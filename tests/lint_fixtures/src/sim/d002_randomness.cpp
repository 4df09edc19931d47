// Fixture: DK-D002 ambient randomness.
#include <cstdlib>
#include <random>

namespace fixture {

unsigned bad_random_device() {
  std::random_device rd;  // expect: DK-D002
  return rd();
}

int bad_rand() {
  return std::rand();  // expect: DK-D002
}

void bad_srand(unsigned seed) {
  srand(seed);  // expect: DK-D002
}

struct Dice {
  int rand() { return 4; }
};

int good_seeded(std::uint64_t seed) {
  // A caller-owned seed is the sanctioned source of randomness; a member
  // function that happens to be named rand() is not libc rand().
  std::mt19937_64 engine(seed);
  Dice d;
  return static_cast<int>(engine()) + d.rand();
}

}  // namespace fixture
