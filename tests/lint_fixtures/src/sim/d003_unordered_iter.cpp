// Fixture: DK-D003 iteration over unordered containers.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

std::unordered_map<unsigned, int> table_;
std::unordered_set<std::string> names_;

int bad_map_iteration() {
  int sum = 0;
  for (const auto& [key, value] : table_) {  // expect: DK-D003
    sum += static_cast<int>(key) * value;
  }
  return sum;
}

std::size_t bad_set_iteration() {
  std::size_t total = 0;
  for (const std::string& name : names_) {  // expect: DK-D003
    total += name.size();
  }
  return total;
}

std::vector<unsigned> sorted_keys() {
  std::vector<unsigned> keys;
  // dklint: allow(DK-D003) — key collection only; sorted before any use
  for (const auto& [key, value] : table_) keys.push_back(key);  // expect-suppressed: DK-D003
  std::sort(keys.begin(), keys.end());
  return keys;
}

int good_sorted_iteration() {
  int sum = 0;
  for (const unsigned key : sorted_keys()) {
    sum += table_.at(key);
  }
  return sum;
}

int good_classic_for(const std::vector<int>& v) {
  int sum = 0;
  for (std::size_t i = 0; i < v.size(); ++i) sum += v[i];
  return sum;
}

}  // namespace fixture
