// Fixture: DK-C006 per-I/O completions must be UniqueFn, never
// std::function of any signature.
#pragma once

#include <cstdint>
#include <functional>

namespace fixture {

struct Request {
  std::function<void(std::int32_t)> complete;  // expect: DK-C006
};

}  // namespace fixture
