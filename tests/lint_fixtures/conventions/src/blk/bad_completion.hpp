// Conventions fixture: per-I/O completions must be UniqueFn, never
// std::function of any signature.
#pragma once

#include <cstdint>
#include <functional>

namespace fixture {

struct Request {
  std::function<void(std::int32_t)> complete;  // expect-convention: no-std-function-event
};

}  // namespace fixture
