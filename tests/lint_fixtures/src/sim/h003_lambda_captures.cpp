// Fixture: DK-H003 risky lambda captures in DK_HOT functions. EventFn's
// inline buffer is 32 bytes; wide or implicit captures spill to the pool.
#include <cstdint>

#include "common/annotations.hpp"

namespace fixture {

using Sink = void (*)(long);

DK_HOT void bad_default_by_value(Sink sink, long a, long b) {
  auto fn = [=] { sink(a + b); };  // expect: DK-H003
  fn();
}

DK_HOT void bad_default_by_ref(Sink sink, long a) {
  auto fn = [&] { sink(a); };  // expect: DK-H003
  fn();
}

DK_HOT void bad_wide_capture(Sink sink, long a, long b, long c, long d) {
  auto fn = [sink, a, b, c, d] { sink(a + b + c + d); };  // expect: DK-H003
  fn();
}

DK_HOT void good_narrow_capture(Sink sink, long a) {
  auto fn = [sink, a] { sink(a); };
  fn();
}

DK_HOT long good_captureless(long x) {
  auto fn = [](long v) { return v * 2; };
  return fn(x);
}

void cold_defaults_are_fine(Sink sink, long a) {
  auto fn = [=] { sink(a); };
  fn();
}

}  // namespace fixture
