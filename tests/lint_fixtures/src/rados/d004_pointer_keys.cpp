// Fixture: DK-D004 pointer-keyed hashed containers in a determinism-critical
// scope (src/rados/, where the check applies).
#include <cstdint>
#include <unordered_map>

namespace fixture {

struct Osd {};

std::unordered_map<Osd*, int> bad_ptr_keyed_;  // expect: DK-D004

std::unordered_map<std::uint64_t, Osd*> good_id_keyed_;  // values may point

}  // namespace fixture
