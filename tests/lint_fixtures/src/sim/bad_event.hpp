// Fixture: DK-C006 src/sim/ event callbacks must be EventFn, never
// std::function<void()>.
#pragma once

#include <functional>

namespace fixture {

struct Scheduler {
  void post(std::function<void()> fn);  // expect: DK-C006
};

}  // namespace fixture
