// DFX (Dynamic Function eXchange) manager — partial reconfiguration of the
// DeLiBA-K accelerators (§IV.C, Fig 5).
//
// Layout per the paper: the Straw, Straw2 and RS-Encoder kernels live in
// the static region (spanning SLR1+SLR2) and are always available; one
// Reconfigurable Partition (RP) in SLR0 hosts one of three Reconfigurable
// Modules (RMs) at a time — Uniform, List, or Tree bucket accelerators —
// each matched to a cluster shape:
//   Uniform — homogeneous clusters (identical device capacities),
//   List    — grow-mostly clusters (devices frequently added),
//   Tree    — large/complex clusters (many devices, nested buckets).
// Partial bitstreams are loaded through MCAP over PCIe; a pr_verify-style
// check validates every RM against the RP's physical constraints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "fpga/accel.hpp"
#include "fpga/u280.hpp"
#include "sim/simulator.hpp"

namespace dk::fpga {

enum class RpState : std::uint8_t { vacant, loading, active };

/// MCAP over PCIe sustains ~400 MB/s (XAPP1338 fast-PR flow).
constexpr double kMcapBytesPerSec = 400e6;
/// Partial bitstream covering the SLR0 RP.
constexpr std::uint64_t kPartialBitstreamBytes = 25 * MiB;
/// Decoupling + reset sequencing around the swap.
constexpr Nanos kDecoupleLatency = us(50);

struct DfxStats {
  std::uint64_t reconfigurations = 0;
  Nanos total_reconfig_time = 0;
  std::uint64_t rejected_loads = 0;
};

/// pr_verify-style per-RM report entry.
struct VerifyEntry {
  KernelKind kernel;
  bool fits_rp = false;
  Utilization rp_utilization;  // RM footprint vs SLR0 RP capacity
};

class DfxManager {
 public:
  explicit DfxManager(sim::Simulator& sim) : sim_(sim) {}

  const DfxStats& stats() const { return stats_; }
  RpState state() const { return state_; }
  std::optional<KernelKind> active_rm() const { return active_; }

  /// Static-region kernels are always available; an RM kernel only while it
  /// is the active module in the RP.
  bool kernel_available(KernelKind kind) const;

  /// Swap the RP to the given RM via MCAP. Fails for non-reconfigurable
  /// kernels or while a load is in flight. Loading the already-active RM is
  /// a cheap no-op. During the load the RP is unavailable (state loading).
  Status load_rm(KernelKind kind, sim::EventFn done);

  /// Wall time one MCAP partial-bitstream load takes.
  Nanos reconfig_time() const;

  /// DFX Configuration Analysis: validate every RM against the RP.
  std::vector<VerifyEntry> pr_verify() const;

  /// The paper's deployment guidance: pick the RM matching cluster shape.
  static KernelKind recommend_rm(bool uniform_devices, bool frequently_growing);

  /// Resource capacity of the RP (all of SLR0 is reserved for it).
  static constexpr Resources rp_capacity() { return U280::slr(0); }

 private:
  sim::Simulator& sim_;
  DfxStats stats_;
  RpState state_ = RpState::vacant;
  std::optional<KernelKind> active_;
};

}  // namespace dk::fpga
