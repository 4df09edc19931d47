// Conventions fixture: a header nothing includes.  expect-convention: reached-header
#pragma once

namespace fixture {
inline int unreached() { return 0; }
}  // namespace fixture
