#include "fpga/dfx.hpp"

namespace dk::fpga {

bool DfxManager::kernel_available(KernelKind kind) const {
  const KernelSpec& spec = kernel_spec(kind);
  if (!spec.reconfigurable) return true;  // static region
  return state_ == RpState::active && active_ == kind;
}

Nanos DfxManager::reconfig_time() const {
  return kDecoupleLatency +
         transfer_time(kPartialBitstreamBytes, kMcapBytesPerSec);
}

Status DfxManager::load_rm(KernelKind kind, sim::EventFn done) {
  const KernelSpec& spec = kernel_spec(kind);
  if (!spec.reconfigurable) {
    ++stats_.rejected_loads;
    return Status::Error(Errc::invalid_argument,
                         "kernel lives in the static region");
  }
  if (state_ == RpState::loading) {
    ++stats_.rejected_loads;
    return Status::Error(Errc::busy, "partial reconfiguration in flight");
  }
  if (!rp_capacity().fits(spec.footprint)) {
    ++stats_.rejected_loads;
    return Status::Error(Errc::no_space, "RM exceeds RP resources");
  }
  if (state_ == RpState::active && active_ == kind) {
    // Already resident: nothing to stream over MCAP.
    sim_.schedule_after(0, std::move(done));
    return Status::Ok();
  }

  state_ = RpState::loading;
  const Nanos t = reconfig_time();
  ++stats_.reconfigurations;
  stats_.total_reconfig_time += t;
  sim_.schedule_after(t, [this, kind, done = std::move(done)] {
    state_ = RpState::active;
    active_ = kind;
    if (done) done();
  });
  return Status::Ok();
}

std::vector<VerifyEntry> DfxManager::pr_verify() const {
  std::vector<VerifyEntry> report;
  for (KernelKind kind : kAllKernels) {
    const KernelSpec& spec = kernel_spec(kind);
    if (!spec.reconfigurable) continue;
    VerifyEntry e;
    e.kernel = kind;
    e.fits_rp = rp_capacity().fits(spec.footprint);
    e.rp_utilization = utilization(spec.footprint, rp_capacity());
    report.push_back(e);
  }
  return report;
}

KernelKind DfxManager::recommend_rm(bool uniform_devices,
                                    bool frequently_growing) {
  if (uniform_devices) return KernelKind::uniform;
  if (frequently_growing) return KernelKind::list;
  return KernelKind::tree;  // large/nested hierarchies
}

}  // namespace dk::fpga
