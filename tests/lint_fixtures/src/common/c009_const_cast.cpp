// Fixture: DK-C009 const_cast is banned in src/. Page bytes change only
// through PageRef::writable(), which forgets the page's remembered CRC; a
// write through a cast-away const view would leave that CRC stale.
#include <cstdint>

namespace fixture {

void scribble(const std::uint8_t* page) {
  const_cast<std::uint8_t*>(page)[0] = 1;  // expect: DK-C009
}

int justified(const int* p) {
  // dklint: allow(DK-C009) — fixture: a reasoned cast stays allowed
  return *const_cast<int*>(p);  // expect-suppressed: DK-C009
}

int fine(const int* p) { return *p; }

}  // namespace fixture
