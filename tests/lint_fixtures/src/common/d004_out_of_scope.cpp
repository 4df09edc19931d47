// Fixture: DK-D004 does NOT apply outside src/sim, src/rados, src/net —
// hashing a pointer for diagnostics is fine there. No findings expected.
#include <unordered_map>

namespace fixture {

struct Widget {};

std::unordered_map<Widget*, int> diagnostics_only_;

}  // namespace fixture
