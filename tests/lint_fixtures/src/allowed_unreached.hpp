// Fixture: an unreached header that opts out with a reason.  // expect-suppressed: DK-C007
// dklint: allow-file(DK-C007) — only its tests drive it, on purpose
#pragma once

namespace fixture {
inline int allowed() { return 0; }
}  // namespace fixture
