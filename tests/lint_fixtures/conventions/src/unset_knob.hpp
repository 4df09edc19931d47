// Conventions fixture: a config field nothing assigns by name is flagged;
// the one a bench file sets is not.
#pragma once

namespace fixture {

struct KnobConfig {
  unsigned set_by_bench = 1;
  unsigned never_set = 2;  // expect-convention: set-config-field
};

}  // namespace fixture
