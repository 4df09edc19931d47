// Fixture: DK-C001 naked assert() and <cassert> includes are banned in src/;
// invariants go through DK_CHECK/DK_DCHECK (common/check.hpp).
#include <cassert>  // expect: DK-C001

namespace fixture {

int checked(int v) {
  assert(v > 0);  // expect: DK-C001
  static_assert(sizeof(int) >= 4, "static_assert is fine");
  return v;
}

}  // namespace fixture
