// Fixture: std::function in and out of DK_HOT functions. DK-H002 flagged it
// only inside DK_HOT bodies; it is retired, since every DK_HOT function is in
// src/, where DK-C006 flags std::function anywhere.
#include <functional>

#include "common/annotations.hpp"

namespace fixture {

DK_HOT int bad_std_function(int x) {
  std::function<int(int)> f = [](int v) { return v + 1; };  // expect: DK-C006
  return f(x);
}

int cold_std_function(int x) {
  std::function<int(int)> f = [](int v) { return v + 1; };  // expect: DK-C006
  return f(x);
}

template <typename F>
DK_HOT int good_template_callable(F&& f, int x) {
  return f(x);
}

}  // namespace fixture
