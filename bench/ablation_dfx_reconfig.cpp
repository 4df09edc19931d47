// Ablation (§IV.C, Fig 5): DFX partial reconfiguration under live load.
// The cluster changes shape (grow/shrink -> different best bucket kernel);
// the framework swaps the SLR0 RM over MCAP while I/O continues. During
// the ~65 ms swap, placements fall back to host CRUSH (latency penalty);
// afterwards they run on the new kernel.
#include <iostream>

#include "bench_util.hpp"
#include "fpga/device.hpp"

int main() {
  using namespace dk;
  using core::VariantKind;
  using fpga::KernelKind;

  bench::print_header(
      "Ablation: DFX live reconfiguration (DeLiBA-K, tree-bucket placement)",
      "§IV.C: one RP in SLR0, RMs Uniform/List/Tree swapped via MCAP");

  auto cfg = bench::make_config(VariantKind::delibak,
                                core::PoolMode::replicated, 128 * MiB);
  cfg.placement_alg = crush::BucketAlg::tree;  // accelerated by the Tree RM
  sim::Simulator sim;
  core::Framework fw(sim, cfg);
  auto& dfx = fw.fpga()->dfx();

  auto probe_phase = [&](const char* phase) {
    const auto fallbacks_before = fw.stats().sw_placement_fallbacks;
    const auto fpga_before = fw.stats().fpga_placements;
    const Nanos lat =
        workload::probe_latency(fw, workload::RwMode::rand_write, 4096, 40);
    std::cout << "  " << phase << ": mean 4k rand-write latency "
              << TextTable::num(to_us(lat), 1) << " us, placements: "
              << (fw.stats().fpga_placements - fpga_before) << " on-FPGA, "
              << (fw.stats().sw_placement_fallbacks - fallbacks_before)
              << " host-CRUSH fallbacks\n";
  };

  std::cout << "Phase 1: Tree RM not loaded (cold start)\n";
  probe_phase("no RM resident");

  std::cout << "Phase 2: loading Tree RM ("
            << TextTable::num(to_ms(dfx.reconfig_time()), 1)
            << " ms MCAP partial bitstream load), I/O continues\n";
  bool loaded = false;
  auto s = dfx.load_rm(KernelKind::tree, [&] { loaded = true; });
  if (!s.ok()) {
    std::cout << "  load failed: " << s.to_string() << "\n";
    return 1;
  }
  probe_phase("during reconfiguration");
  sim.run();  // let the load finish if probes ended early
  std::cout << "  RM load complete: " << (loaded ? "yes" : "no") << "\n";

  std::cout << "Phase 3: Tree RM active\n";
  probe_phase("RM resident");

  std::cout << "Phase 4: cluster becomes homogeneous -> swap to Uniform RM\n";
  (void)dfx.load_rm(KernelKind::uniform, [] {});
  sim.run();
  std::cout << "  active RM now: "
            << fpga::kernel_name(*dfx.active_rm()) << ", reconfigurations: "
            << dfx.stats().reconfigurations << ", total MCAP time: "
            << TextTable::num(to_ms(dfx.stats().total_reconfig_time), 1)
            << " ms\n";

  std::cout << "\nRM recommendation guidance (§IV.C):\n";
  std::cout << "  homogeneous devices        -> "
            << fpga::kernel_name(fpga::DfxManager::recommend_rm(true, false))
            << "\n";
  std::cout << "  frequently growing cluster -> "
            << fpga::kernel_name(fpga::DfxManager::recommend_rm(false, true))
            << "\n";
  std::cout << "  large/nested cluster       -> "
            << fpga::kernel_name(fpga::DfxManager::recommend_rm(false, false))
            << "\n";
  return 0;
}
