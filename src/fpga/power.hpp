// Board power model (§V.c).
//
// The paper reports two measured full-load scenarios on the U280:
//   * ~195 W with all accelerators resident in the static region
//     (the pre-DFX, single-bitstream configuration), and
//   * ~170 W with partial reconfiguration (three static kernels + one
//     active RM in the SLR0 partition).
// We model board power as a fixed base (shell, HBM, CMAC, QDMA, PCIe) plus
// a per-kernel dynamic term proportional to the kernel's LUT footprint —
// the standard first-order fabric-power approximation. The coefficient and
// base are calibrated so the two published scenarios are reproduced.
#pragma once

#include <initializer_list>

#include "fpga/accel.hpp"

namespace dk::fpga {

// Calibrated against the two published measurements (see above).
constexpr double kBaseWatts = 101.6;     // shell + HBM + CMAC + QDMA + PCIe
constexpr double kWattsPerLut = 2.2e-4;  // full-load dynamic + static per LUT

struct PowerModel {
  /// Power with the given set of kernels resident.
  double watts(std::initializer_list<KernelKind> resident) const {
    double total = kBaseWatts;
    for (KernelKind k : resident)
      total +=
          kWattsPerLut * static_cast<double>(kernel_spec(k).footprint.luts);
    return total;
  }

  /// Scenario 1: full load, no partial reconfiguration (all six kernels
  /// in the static region). Paper measurement: ~195 W.
  double full_load_no_pr() const {
    return watts({KernelKind::straw, KernelKind::straw2, KernelKind::list,
                  KernelKind::tree, KernelKind::uniform,
                  KernelKind::rs_encoder});
  }

  /// Scenario 2: full load with partial reconfiguration (static kernels +
  /// one active RM). Paper measurement: ~170 W.
  double full_load_with_pr(KernelKind active_rm = KernelKind::uniform) const {
    return watts(
        {KernelKind::straw, KernelKind::straw2, KernelKind::rs_encoder,
         active_rm});
  }
};

}  // namespace dk::fpga
