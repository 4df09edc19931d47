// Fixture: allow-file() suppresses a check for the whole translation unit.
// dklint: allow-file(DK-D002) — fixture: file-wide waiver form
#include <cstdlib>

namespace fixture {

int first() {
  return std::rand();  // expect-suppressed: DK-D002
}

int second() {
  return std::rand();  // expect-suppressed: DK-D002
}

}  // namespace fixture
