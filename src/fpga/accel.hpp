// RTL accelerator kernel models.
//
// DeLiBA-K re-implements six kernels in Verilog (paper Table I): the five
// CRUSH bucket-selection kernels (Straw, Straw2, List, Tree, Uniform) and a
// Reed-Solomon erasure-coding encoder. Each kernel here is a *cycle* model
// at the published 235 MHz fabric clock: it charges time, while placement
// and parity come from the same dk_crush and dk_ec code the client runs,
// since the offload is bit-exact by design. Per-kernel cycle counts,
// software profile times, HW end-to-end times, SLOC counts (Table I) and
// resource footprints (Table III) are carried as specs so the benchmarks
// can regenerate both tables.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/units.hpp"
#include "fpga/u280.hpp"

namespace dk::fpga {

enum class KernelKind : std::uint8_t {
  straw,
  straw2,
  list,
  tree,
  uniform,
  rs_encoder,
};

constexpr std::array<KernelKind, 6> kAllKernels = {
    KernelKind::straw,  KernelKind::straw2,  KernelKind::list,
    KernelKind::tree,   KernelKind::uniform, KernelKind::rs_encoder,
};

std::string_view kernel_name(KernelKind kind);

/// Everything Table I / Table III report per kernel.
// conventions: allow(set-config-field) — a positional table of the paper's
// Table I/III values, one row per kernel
struct KernelSpec {
  KernelKind kind;
  // Table I columns.
  Nanos sw_exec_time;          // Ceph-kernel software profile
  double runtime_contribution; // fraction of op runtime (0.80 == 80%)
  unsigned rtl_cycles_min;
  unsigned rtl_cycles_max;
  Nanos hw_exec_time;          // end-to-end on the physical U280
  unsigned sloc_c;
  unsigned sloc_verilog;
  // Table III footprint (static kernels measured chip-relative; RMs
  // SLR0-relative — both stored as raw counts here).
  Resources footprint;
  bool reconfigurable;         // true for the three DFX RMs
};

const KernelSpec& kernel_spec(KernelKind kind);

/// Fabric clock for the replication/EC accelerators (§IV.B).
constexpr double kAccelClockHz = 235e6;

constexpr Nanos cycles_to_time(std::uint64_t cycles) {
  return static_cast<Nanos>(static_cast<double>(cycles) / kAccelClockHz *
                            kSecond);
}

/// One instantiated accelerator engine: its cycle charge and op count.
class AccelKernel {
 public:
  explicit AccelKernel(KernelKind kind) : spec_(&kernel_spec(kind)) {}

  KernelKind kind() const { return spec_->kind; }
  const KernelSpec& spec() const { return *spec_; }

  /// Cycle cost of one bucket selection (or of encoding one 64-byte beat
  /// for the RS encoder). Uses the published per-op cycle count; `work`
  /// scales it for multi-item inputs (e.g. deeper buckets, more beats).
  std::uint64_t op_cycles(std::uint64_t work = 1) const {
    // Table I publishes per-selection totals for the default cluster shape
    // (16-item buckets); scale linearly beyond it.
    return spec_->rtl_cycles_min * (work == 0 ? 1 : work);
  }

  Nanos op_latency(std::uint64_t work = 1) const {
    return cycles_to_time(op_cycles(work));
  }

  /// Cycle cost of RS-encoding `bytes` through the 256-bit (32 B/beat)
  /// datapath (§IV.A): cycles scale with beats, floor one op's cycles.
  std::uint64_t encode_cycles(std::uint64_t bytes) const {
    const std::uint64_t beats = (bytes + 31) / 32;
    const std::uint64_t c = beats;  // one beat per cycle, fully pipelined
    return c < spec_->rtl_cycles_min ? spec_->rtl_cycles_min : c;
  }

  Nanos encode_latency(std::uint64_t bytes) const {
    return cycles_to_time(encode_cycles(bytes));
  }

  std::uint64_t ops_executed() const { return ops_; }
  void count_op() { ++ops_; }

 private:
  const KernelSpec* spec_;
  std::uint64_t ops_ = 0;
};

}  // namespace dk::fpga
