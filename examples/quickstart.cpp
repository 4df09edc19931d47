// Quickstart: bring up a complete DeLiBA-K stack (io_uring front-end, DMQ
// block layer, UIFD driver, FPGA model, simulated 10 GbE, 32-OSD cluster),
// write a block, read it back, and print what happened.
//
//   $ ./quickstart
#include <iostream>
#include <vector>

#include "common/check.hpp"
#include "core/framework.hpp"

int main() {
  using namespace dk;

  // One deterministic simulator drives everything.
  sim::Simulator sim;

  // Default config: DeLiBA-K (D3), replicated pool (size 2) on the paper's
  // testbed shape — 2 servers x 16 OSDs over 10 GbE, straw2 placement.
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.image_size = 64 * MiB;
  core::Framework fw(sim, cfg);

  std::cout << "Framework: " << core::variant_name(cfg.variant) << "\n";
  std::cout << "Cluster:   " << fw.cluster().osd_count() << " OSDs on "
            << fw.cluster().network().node_count() - 1 << " servers\n";
  std::cout << "Rings:     " << fw.urings()->size()
            << " io_uring instances (kernel-polled), bound to CPUs 0-"
            << fw.urings()->size() - 1 << "\n\n";

  // Write 4 kB at block 7.
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31);

  Nanos write_latency = 0;
  const Nanos w0 = sim.now();
  fw.write(/*job=*/0, /*offset=*/7 * 4096, payload, [&](std::int32_t res) {
    write_latency = sim.now() - w0;
    DK_CHECK(res == 4096) << "short write: " << res;
  });
  sim.run();
  std::cout << "write(4 kB): " << to_us(write_latency) << " us end-to-end\n";

  // Read it back and verify every byte survived the trip through rings,
  // block layer, QDMA, CRUSH placement, replication, and the object stores.
  Nanos read_latency = 0;
  bool verified = false;
  const Nanos r0 = sim.now();
  fw.read(0, 7 * 4096, 4096, [&](Result<Payload> r) {
    read_latency = sim.now() - r0;
    verified = r.ok() && *r == payload;
  });
  sim.run();
  std::cout << "read(4 kB):  " << to_us(read_latency) << " us, data "
            << (verified ? "verified" : "MISMATCH") << "\n\n";

  // Where did the bytes land? Ask CRUSH.
  const std::uint64_t oid = fw.image().oid_of(7 * 4096);
  auto acting = fw.cluster().acting_set(0, oid);
  std::cout << "CRUSH acting set for the object: osd." << acting[0]
            << " (primary), osd." << acting[1] << " (replica)\n";

  auto ring_stats = fw.urings()->total_stats();
  std::cout << "io_uring: " << ring_stats.sqes_submitted << " SQEs, "
            << ring_stats.cqes_reaped << " CQEs, "
            << ring_stats.enter_calls << " enter() syscalls (kernel-polled)\n";
  std::cout << "QDMA: " << fw.fpga()->qdma().stats().h2c_ops << " H2C / "
            << fw.fpga()->qdma().stats().c2h_ops << " C2H DMA ops\n";
  std::cout << "FPGA placements: " << fw.stats().fpga_placements << "\n";
  return verified ? 0 : 1;
}
