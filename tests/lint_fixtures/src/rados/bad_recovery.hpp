// Fixture: DK-C006 src/rados/ callbacks, the recovery path's included, must
// be UniqueFn, never std::function.
#pragma once

#include <functional>

namespace fixture {

struct Recovery {
  void execute(std::function<void()> done);  // expect: DK-C006
};

}  // namespace fixture
