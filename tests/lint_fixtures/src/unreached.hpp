// Fixture: DK-C007 a header nothing includes.  // expect: DK-C007
#pragma once

namespace fixture {
inline int unreached() { return 0; }
}  // namespace fixture
