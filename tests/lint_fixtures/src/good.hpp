// Fixture: a fully conforming header, zero findings.
#pragma once

#include "alpha.hpp"
#include "zeta.hpp"

namespace fixture {
inline int one() { return 1; }
}  // namespace fixture
