// Fixture: DK-C003 a .cpp must include its own header first.
#include "other.hpp"  // expect: DK-C003

#include "pair.hpp"

namespace fixture {
int paired() { return 1; }
}  // namespace fixture
