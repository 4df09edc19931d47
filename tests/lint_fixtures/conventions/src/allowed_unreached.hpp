// Conventions fixture: an unreached header that opts out with a reason.
// conventions: allow(reached-header) — only its tests drive it, on purpose
#pragma once

namespace fixture {
inline int allowed() { return 0; }
}  // namespace fixture
