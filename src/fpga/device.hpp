// FPGA device façade: one Alveo U280 populated with the DeLiBA-K stack —
// QDMA data mover, six accelerator kernels, DFX manager for the SLR0
// reconfigurable partition, RTL TCP/IP + CMAC offload, and the power model.
//
// The host driver (UIFD, src/host) talks to this object; the framework
// variants (src/core) charge latencies from it.
#pragma once

#include <array>
#include <memory>

#include "fpga/accel.hpp"
#include "fpga/dfx.hpp"
#include "fpga/power.hpp"
#include "fpga/qdma.hpp"
#include "fpga/tcpip.hpp"
#include "fpga/u280.hpp"

namespace dk::fpga {

class FpgaDevice {
 public:
  explicit FpgaDevice(sim::Simulator& sim) : sim_(sim), qdma_(sim), dfx_(sim) {
    for (std::size_t i = 0; i < kAllKernels.size(); ++i)
      kernels_[i] = std::make_unique<AccelKernel>(kAllKernels[i]);
  }

  sim::Simulator& simulator() { return sim_; }
  QdmaEngine& qdma() { return qdma_; }
  DfxManager& dfx() { return dfx_; }
  TcpIpOffload& tcpip() { return tcpip_; }
  const PowerModel& power() const { return power_; }

  AccelKernel& kernel(KernelKind kind) {
    return *kernels_[static_cast<std::size_t>(kind)];
  }

  /// Latency of one placement selection on the given bucket kernel, or
  /// `unsupported` when the kernel is not currently loaded (RM swapped out).
  Result<Nanos> placement_latency(KernelKind kind, std::uint64_t work = 1) {
    if (!dfx_.kernel_available(kind))
      return Status::Error(Errc::unsupported, "kernel not resident");
    AccelKernel& k = kernel(kind);
    k.count_op();
    return k.op_latency(work);
  }

  /// Latency of RS-encoding `bytes` on the encoder kernel.
  Result<Nanos> encode_latency(std::uint64_t bytes) {
    AccelKernel& k = kernel(KernelKind::rs_encoder);
    k.count_op();
    return k.encode_latency(bytes);
  }

  /// Static-region resources in use (always-resident kernels).
  Resources static_region_used() const {
    return kernel_spec(KernelKind::straw).footprint +
           kernel_spec(KernelKind::straw2).footprint +
           kernel_spec(KernelKind::rs_encoder).footprint;
  }

 private:
  sim::Simulator& sim_;
  QdmaEngine qdma_;
  DfxManager dfx_;
  TcpIpOffload tcpip_;
  PowerModel power_;
  std::array<std::unique_ptr<AccelKernel>, kAllKernels.size()> kernels_;
};

}  // namespace dk::fpga
