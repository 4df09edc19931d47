// Fixture: DK-D001 wall-clock reads. `// expect:` marks the line a finding
// must anchor to; the runner (tests/test_dklint.py) compares exactly.
#include <chrono>
#include <ctime>

namespace fixture {

long bad_steady() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // expect: DK-D001
}

long bad_system() {
  return std::chrono::system_clock::now().time_since_epoch().count();  // expect: DK-D001
}

long bad_clock_gettime() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // expect: DK-D001
  return ts.tv_nsec;
}

long good_injected(long simulated_now) {
  // Simulated time arrives as a parameter: nothing to flag.
  return simulated_now + 5;
}

}  // namespace fixture
