// dklint-fixture-as: src/sim/fixture_clean.cpp
// Fixture: idiomatic hot-path code producing zero findings — the shapes
// dklint must NOT flag (placement new, seeded engines, sorted iteration,
// thread_local pools, tight captures).
#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"

namespace fixture {

class Ledger {
 public:
  void add(std::uint64_t id, int delta) { entries_[id] += delta; }

  std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(entries_.size());
    // dklint: allow(DK-D003) — key collection only; sorted before any use
    for (const auto& [id, delta] : entries_) keys.push_back(id);  // expect-suppressed: DK-D003
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  std::unordered_map<std::uint64_t, int> entries_;
};

// One free list per thread, like EventPool::local(): thread_local is
// storage duration, not a threading primitive.
std::vector<void*>& free_list() {
  static thread_local std::vector<void*> list;
  return list;
}

struct Slot {
  int v = 0;
};

DK_HOT Slot* emplace(void* storage, int v) {
  return ::new (storage) Slot{v};
}

DK_HOT int jitter(std::mt19937_64& engine) {
  return static_cast<int>(engine() & 0xff);
}

}  // namespace fixture
