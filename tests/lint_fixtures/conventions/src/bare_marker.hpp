// Conventions fixture: an opt-out marker must give a reason.
// conventions: allow(reached-header)  expect-convention: reached-header
#pragma once

namespace fixture {
inline int bare() { return 0; }
}  // namespace fixture
