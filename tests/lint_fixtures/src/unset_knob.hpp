// Fixture: DK-C008 a config field nothing assigns by name is flagged; the
// one a bench file sets is not.
#pragma once

namespace fixture {

struct KnobConfig {
  unsigned set_by_bench = 1;
  unsigned never_set = 2;  // expect: DK-C008
};

}  // namespace fixture
