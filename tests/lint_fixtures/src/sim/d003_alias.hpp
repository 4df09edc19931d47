// Fixture: DK-D003 sees unordered containers through a type alias declared
// in the companion header. A container reached through a template
// parameter (`template <typename Map> ... for (... : m)`) is still a gap.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace fixture {

using CountMap = std::unordered_map<std::uint64_t, std::uint32_t>;

struct RingCounts {
  CountMap inflight;
};

std::uint64_t total(const RingCounts& ring);
std::uint64_t total_suppressed(const RingCounts& ring);

}  // namespace fixture
