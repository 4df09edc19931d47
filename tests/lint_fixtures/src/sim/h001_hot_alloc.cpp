// Fixture: DK-H001 heap traffic inside DK_HOT functions. The same
// constructs in a non-hot function are not findings.
#include <cstdlib>
#include <memory>
#include <new>

#include "common/annotations.hpp"

namespace fixture {

struct Payload {
  int v = 0;
};

DK_HOT int* bad_new() {
  return new int(7);  // expect: DK-H001
}

DK_HOT void bad_delete(int* p) {
  delete p;  // expect: DK-H001
}

DK_HOT void* bad_malloc() {
  return std::malloc(16);  // expect: DK-H001
}

DK_HOT void* bad_operator_new() {
  return ::operator new(16);  // expect: DK-H001
}

DK_HOT std::unique_ptr<Payload> bad_make_unique() {
  return std::make_unique<Payload>();  // expect: DK-H001
}

DK_HOT Payload* good_placement_new(void* slot) {
  // Placement new constructs in pre-owned storage: no heap traffic.
  return ::new (slot) Payload{};
}

int* cold_new_is_fine() {
  return new int(7);
}

}  // namespace fixture
