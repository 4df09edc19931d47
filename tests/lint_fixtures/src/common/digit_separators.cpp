// Fixture: a C++14 digit separator belongs to its number. Lexed as the start
// of a character literal, the separator in 50'000 would hide the rest of its
// line from every check, and the rest of the file from a lexer whose
// literals span lines.
#include <mutex>

namespace fixture {

constexpr long kOps = 50'000; std::mutex same_line;  // expect: DK-T002
inline long next_line() { assert(kOps > 0); return kOps; }  // expect: DK-C001

}  // namespace fixture
