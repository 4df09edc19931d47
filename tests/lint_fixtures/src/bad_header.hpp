// Fixture: a header whose first directive is not #pragma once (DK-C002) and
// whose project includes are unsorted (DK-C004).
#include "zeta.hpp"  // expect: DK-C002, DK-C004
#include "alpha.hpp"

namespace fixture {
inline int two() { return 2; }
}  // namespace fixture
