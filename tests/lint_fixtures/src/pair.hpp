// Fixture: the paired header for pair.cpp (itself clean).
#pragma once

namespace fixture {
int paired();
}  // namespace fixture
