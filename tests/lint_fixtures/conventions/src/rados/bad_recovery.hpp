// Conventions fixture: src/rados/ callbacks — the recovery path's included,
// not only the client's — must be UniqueFn, never std::function.
#pragma once

#include <functional>

namespace fixture {

struct Recovery {
  void execute(std::function<void()> done);  // expect-convention: no-std-function-event
};

}  // namespace fixture
