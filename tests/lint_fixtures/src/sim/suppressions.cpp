// Fixture: the suppression grammar. A well-formed allow() silences its
// statement (expect-suppressed); a reasonless allow(), or one naming an
// unknown or retired check, is itself a DK-S001 finding at the comment.
#include <chrono>
#include <cstdlib>

namespace fixture {

long trailing_allow() {
  // dklint: allow(DK-D001) — fixture exercising the preceding-line form
  return std::chrono::steady_clock::now()  // expect-suppressed: DK-D001
      .time_since_epoch()
      .count();
}

int same_line_allow() {
  return std::rand();  // dklint: allow(DK-D002) — same-line form // expect-suppressed: DK-D002
}

int reasonless_allow() {
  // dklint: allow(DK-D002)  (expect: DK-S001)
  return std::rand();  // expect-suppressed: DK-D002
}

// dklint: allow(DK-9999) — no such check  (expect: DK-S001)
inline int unknown_check() { return 0; }

// dklint: allow(DK-H002) — a retired check  (expect: DK-S001)
inline int retired_check() { return 0; }

}  // namespace fixture
