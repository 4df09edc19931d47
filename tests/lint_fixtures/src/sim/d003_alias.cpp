// Fixture: DK-D003 through aliases, from the companion header and from this
// file.
#include "sim/d003_alias.hpp"

#include <string>
#include <unordered_set>

namespace fixture {

using NameSet = std::unordered_set<std::string>;

NameSet names_;

std::uint64_t total(const RingCounts& ring) {
  std::uint64_t n = 0;
  for (const auto& [id, count] : ring.inflight) n += count;  // expect: DK-D003
  return n;
}

std::uint64_t total_suppressed(const RingCounts& ring) {
  std::uint64_t n = 0;
  // dklint: allow(DK-D003) — commutative sum; result is order-independent
  for (const auto& [id, count] : ring.inflight) n += count;  // expect-suppressed: DK-D003
  return n;
}

std::size_t name_bytes() {
  std::size_t n = 0;
  for (const std::string& name : names_) n += name.size();  // expect: DK-D003
  return n;
}

}  // namespace fixture
