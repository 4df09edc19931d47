// Fixture: a positional table opts out of DK-C008 with one allow() on its
// head, which covers every field (fpga::KernelSpec does this).
#pragma once

namespace fixture {

// dklint: allow(DK-C008) — a positional table, one row per kernel
struct TableSpec {
  unsigned rows;  // expect-suppressed: DK-C008
  unsigned cols;  // expect-suppressed: DK-C008
};

}  // namespace fixture
