// DFX reconfiguration walkthrough: a storage cluster changes shape at
// runtime (disks added / removed), and the DeLiBA-K FPGA swaps the matching
// bucket-kernel Reconfigurable Module into the SLR0 partition over MCAP —
// without power-cycling the storage server — while I/O keeps flowing.
//
//   $ ./reconfig_demo
#include <iostream>

#include "core/framework.hpp"
#include "workload/fio.hpp"

namespace {

using namespace dk;

void status(fpga::DfxManager& dfx) {
  std::cout << "  RP state: ";
  switch (dfx.state()) {
    case fpga::RpState::vacant: std::cout << "vacant"; break;
    case fpga::RpState::loading: std::cout << "loading"; break;
    case fpga::RpState::active:
      std::cout << "active (" << fpga::kernel_name(*dfx.active_rm()) << ")";
      break;
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  sim::Simulator sim;
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.placement_alg = crush::BucketAlg::uniform;  // homogeneous cluster
  cfg.image_size = 64 * MiB;
  core::Framework fw(sim, cfg);
  auto& dfx = fw.fpga()->dfx();

  std::cout << "Scenario: homogeneous 32-OSD cluster; operator picks the "
               "Uniform Bucket RM.\n";
  std::cout << "  recommended RM: "
            << fpga::kernel_name(fpga::DfxManager::recommend_rm(
                   /*uniform=*/true, /*growing=*/false))
            << "\n";
  status(dfx);

  std::cout << "Loading Uniform RM over MCAP ("
            << to_ms(dfx.reconfig_time()) << " ms partial bitstream)...\n";
  (void)dfx.load_rm(fpga::KernelKind::uniform, [] {});
  sim.run();
  status(dfx);

  auto probe = [&](const char* label) {
    const Nanos lat =
        workload::probe_latency(fw, workload::RwMode::rand_write, 4096, 30);
    std::cout << "  " << label << ": 4k rand-write latency "
              << to_us(lat) << " us (" << fw.stats().fpga_placements
              << " FPGA placements, " << fw.stats().sw_placement_fallbacks
              << " host fallbacks so far)\n";
  };
  probe("with Uniform RM");

  std::cout << "\nScenario change: new disks arrive weekly -> cluster is "
               "grow-mostly; swap to the List Bucket RM.\n";
  std::cout << "  recommended RM: "
            << fpga::kernel_name(fpga::DfxManager::recommend_rm(false, true))
            << "\n";
  (void)dfx.load_rm(fpga::KernelKind::list, [] {});
  // I/O issued during the swap falls back to host CRUSH transparently.
  probe("during the swap (host-CRUSH fallback)");
  sim.run();
  status(dfx);

  std::cout << "\npr_verify across all RMs:\n";
  for (const auto& e : dfx.pr_verify())
    std::cout << "  " << fpga::kernel_name(e.kernel) << ": "
              << (e.fits_rp ? "fits RP" : "DOES NOT FIT") << "\n";

  std::cout << "\nTotal reconfigurations: " << dfx.stats().reconfigurations
            << ", MCAP time: " << to_ms(dfx.stats().total_reconfig_time)
            << " ms\n";
  std::cout << "Power while reconfigurable: "
            << fw.fpga()->power().full_load_with_pr(fpga::KernelKind::list)
            << " W vs " << fw.fpga()->power().full_load_no_pr()
            << " W with everything static.\n";
  return 0;
}
