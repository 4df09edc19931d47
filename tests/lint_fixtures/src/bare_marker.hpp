// Fixture: an opt-out must give a reason.  // expect-suppressed: DK-C007
// dklint: allow-file(DK-C007)  (expect: DK-S001)
#pragma once

namespace fixture {
inline int bare() { return 0; }
}  // namespace fixture
