// Tests for the FPGA stack: U280 resources, accelerator kernels (Table I),
// QDMA queue sets and DMA timing, DFX partial reconfiguration, the TCP/IP
// offload path, and the power model (Table III scenarios).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fpga/device.hpp"

namespace dk::fpga {
namespace {

TEST(U280, SlrResourcesSumToChip) {
  Resources sum;
  for (unsigned i = 0; i < U280::kSlrCount; ++i) sum += U280::slr(i);
  // SLR1/2 round down when splitting the remainder; allow that slack.
  EXPECT_LE(sum.luts, U280::chip().luts);
  EXPECT_GE(sum.luts, U280::chip().luts - 2);
  EXPECT_LE(sum.bram, U280::chip().bram);
}

TEST(U280, UtilizationPercentages) {
  auto u = utilization({130'400, 0, 0, 0, 0}, U280::chip());
  EXPECT_NEAR(u.luts, 10.0, 0.01);
  EXPECT_DOUBLE_EQ(u.registers, 0.0);
}

TEST(U280, FitsChecksEveryComponent) {
  Resources cap{100, 100, 100, 100, 100};
  EXPECT_TRUE(cap.fits({100, 100, 100, 100, 100}));
  EXPECT_FALSE(cap.fits({101, 0, 0, 0, 0}));
  EXPECT_FALSE(cap.fits({0, 0, 0, 101, 0}));
}

TEST(AccelKernel, TableOneSpecsAreLoaded) {
  const auto& straw = kernel_spec(KernelKind::straw);
  EXPECT_EQ(straw.sw_exec_time, us(55));
  EXPECT_EQ(straw.rtl_cycles_min, 105u);
  EXPECT_EQ(straw.hw_exec_time, us(49));
  EXPECT_EQ(straw.sloc_verilog, 880u);
  const auto& rs = kernel_spec(KernelKind::rs_encoder);
  EXPECT_EQ(rs.sw_exec_time, us(65));
  EXPECT_FALSE(rs.reconfigurable);
  EXPECT_TRUE(kernel_spec(KernelKind::uniform).reconfigurable);
}

TEST(AccelKernel, KernelLatencyIsSubMicrosecond) {
  // Table I: every kernel's RTL latency is deep sub-microsecond, orders of
  // magnitude below its software execution time.
  for (KernelKind kind : kAllKernels) {
    AccelKernel k(kind);
    EXPECT_LT(k.op_latency(), us(1)) << kernel_name(kind);
    EXPECT_LT(k.op_latency() * 30, kernel_spec(kind).sw_exec_time)
        << kernel_name(kind);
  }
}

TEST(AccelKernel, EncodeCyclesScaleWithBytes) {
  AccelKernel k(KernelKind::rs_encoder);
  EXPECT_EQ(k.encode_cycles(32), 150u) << "floor at the per-op cycle count";
  EXPECT_EQ(k.encode_cycles(128 * 1024), 128u * 1024 / 32);
  EXPECT_GT(k.encode_latency(128 * 1024), k.encode_latency(4096));
}

TEST(Qdma, AllocateAndFreeQueueSets) {
  sim::Simulator sim;
  QdmaEngine q(sim);
  auto a = q.alloc_queue_set(QueueClass::replication);
  auto b = q.alloc_queue_set(QueueClass::erasure_coding, /*vf=*/3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(q.queue_set_count(), 2u);
  EXPECT_EQ(q.queue_set(*b)->virtual_function(), 3u);
  EXPECT_EQ(q.queue_sets_of_vf(3).size(), 1u);
  ASSERT_TRUE(q.free_queue_set(*a).ok());
  EXPECT_EQ(q.queue_set_count(), 1u);
  // Freed slot is reused.
  auto c = q.alloc_queue_set(QueueClass::replication);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);
}

TEST(Qdma, QueueSetLimitEnforced) {
  sim::Simulator sim;
  QdmaConfig cfg;
  cfg.max_queue_sets = 4;
  QdmaEngine q(sim, cfg);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(q.alloc_queue_set(QueueClass::replication).ok());
  EXPECT_FALSE(q.alloc_queue_set(QueueClass::replication).ok());
}

TEST(Qdma, H2cDmaTiming) {
  sim::Simulator sim;
  QdmaEngine q(sim);
  auto id = q.alloc_queue_set(QueueClass::replication);
  ASSERT_TRUE(id.ok());
  Nanos done_at = -1;
  ASSERT_TRUE(q.h2c(*id, 4096, [&](Status) { done_at = sim.now(); }).ok());
  sim.run();
  // doorbell(0.8us) + (4096+128)B @ 12 GB/s (~0.35us) + completion(0.6us).
  EXPECT_EQ(done_at, q.idle_latency(4096));
  EXPECT_GT(done_at, us(1.5));
  EXPECT_LT(done_at, us(3));
  EXPECT_EQ(q.stats().h2c_ops, 1u);
  EXPECT_EQ(q.stats().h2c_bytes, 4096u);
}

TEST(Qdma, DescriptorRingsTrackOps) {
  sim::Simulator sim;
  QdmaEngine q(sim);
  auto id = q.alloc_queue_set(QueueClass::erasure_coding);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(q.c2h(*id, 1024, [](Status) {}).ok());
  EXPECT_EQ(q.queue_set(*id)->c2h_pending(), 1u);
  sim.run();
  EXPECT_EQ(q.queue_set(*id)->c2h_pending(), 0u);
  EXPECT_EQ(q.queue_set(*id)->completions_pending(), 1u);
  EXPECT_TRUE(q.queue_set(*id)->pop_completion().has_value());
}

TEST(Qdma, ConcurrentDmasSharePcieBandwidth) {
  sim::Simulator sim;
  QdmaEngine q(sim);
  auto id = q.alloc_queue_set(QueueClass::replication);
  ASSERT_TRUE(id.ok());
  std::vector<Nanos> done;
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(q.h2c(*id, 1 * MiB, [&](Status) { done.push_back(sim.now()); }).ok());
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Second transfer serializes behind the first on the PCIe channel.
  EXPECT_GT(done[1] - done[0], us(50));
}

TEST(Qdma, DescriptorRamBudgetRejectsOverflow) {
  sim::Simulator sim;
  QdmaConfig cfg;
  cfg.ring_entries = 2048;  // let the rings hold more than the URAM budget
  QdmaEngine q(sim, cfg);
  auto id = q.alloc_queue_set(QueueClass::replication);
  ASSERT_TRUE(id.ok());
  unsigned accepted = 0;
  for (std::uint64_t i = 0; i < kMaxOutstandingDescriptors + 10; ++i)
    if (q.h2c(*id, 64, [](Status) {}).ok()) ++accepted;
  EXPECT_EQ(accepted, kMaxOutstandingDescriptors);
  EXPECT_GT(q.stats().ring_full_rejects, 0u);
  sim.run();
  // Budget frees after completion.
  EXPECT_TRUE(q.h2c(*id, 64, [](Status) {}).ok());
  sim.run();
}

TEST(Dfx, StaticKernelsAlwaysAvailable) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  EXPECT_TRUE(dfx.kernel_available(KernelKind::straw));
  EXPECT_TRUE(dfx.kernel_available(KernelKind::straw2));
  EXPECT_TRUE(dfx.kernel_available(KernelKind::rs_encoder));
  EXPECT_FALSE(dfx.kernel_available(KernelKind::uniform));
  EXPECT_EQ(dfx.state(), RpState::vacant);
}

TEST(Dfx, LoadRmMakesKernelAvailableAfterReconfigTime) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  bool loaded = false;
  ASSERT_TRUE(dfx.load_rm(KernelKind::list, [&] { loaded = true; }).ok());
  EXPECT_EQ(dfx.state(), RpState::loading);
  EXPECT_FALSE(dfx.kernel_available(KernelKind::list));
  sim.run();
  EXPECT_TRUE(loaded);
  EXPECT_TRUE(dfx.kernel_available(KernelKind::list));
  // MCAP load of a 25 MiB partial bitstream at 400 MB/s: ~65 ms.
  EXPECT_GT(dfx.reconfig_time(), ms(40));
  EXPECT_LT(dfx.reconfig_time(), ms(120));
}

TEST(Dfx, SwappingRmReplacesPrevious) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  ASSERT_TRUE(dfx.load_rm(KernelKind::list, [] {}).ok());
  sim.run();
  ASSERT_TRUE(dfx.load_rm(KernelKind::tree, [] {}).ok());
  sim.run();
  EXPECT_TRUE(dfx.kernel_available(KernelKind::tree));
  EXPECT_FALSE(dfx.kernel_available(KernelKind::list));
  EXPECT_EQ(dfx.stats().reconfigurations, 2u);
}

TEST(Dfx, ConcurrentLoadRejectedAsBusy) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  ASSERT_TRUE(dfx.load_rm(KernelKind::list, [] {}).ok());
  EXPECT_EQ(dfx.load_rm(KernelKind::tree, [] {}).code(), Errc::busy);
  sim.run();
}

TEST(Dfx, StaticKernelLoadRejected) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  EXPECT_EQ(dfx.load_rm(KernelKind::straw, [] {}).code(),
            Errc::invalid_argument);
}

TEST(Dfx, ReloadingActiveRmIsFreeNoOp) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  ASSERT_TRUE(dfx.load_rm(KernelKind::uniform, [] {}).ok());
  sim.run();
  const auto before = dfx.stats().reconfigurations;
  bool done = false;
  ASSERT_TRUE(dfx.load_rm(KernelKind::uniform, [&] { done = true; }).ok());
  const Nanos t0 = sim.now();
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), t0) << "no MCAP traffic for the resident RM";
  EXPECT_EQ(dfx.stats().reconfigurations, before);
}

TEST(Dfx, PrVerifyReportsAllThreeRms) {
  sim::Simulator sim;
  DfxManager dfx(sim);
  auto report = dfx.pr_verify();
  ASSERT_EQ(report.size(), 3u);
  for (const auto& e : report) {
    EXPECT_TRUE(e.fits_rp) << kernel_name(e.kernel);
    // Table III: RM utilization of SLR0 is 14-18% LUTs.
    EXPECT_GT(e.rp_utilization.luts, 10.0);
    EXPECT_LT(e.rp_utilization.luts, 20.0);
  }
}

TEST(Dfx, RecommendationMatchesPaperGuidance) {
  EXPECT_EQ(DfxManager::recommend_rm(true, false), KernelKind::uniform);
  EXPECT_EQ(DfxManager::recommend_rm(false, true), KernelKind::list);
  EXPECT_EQ(DfxManager::recommend_rm(false, false), KernelKind::tree);
}

TEST(TcpIp, ChecksumKnownVector) {
  // Segment digests are CRC32C; pin to the RFC 3720 all-zeros test vector.
  TcpIpOffload tcp;
  const std::vector<std::uint8_t> payload(32, 0x00);
  auto segs = tcp.segment(payload, 0);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].checksum, 0x8a9136aau);
}

TEST(TcpIp, SegmentReassembleRoundTrip) {
  TcpIpOffload tcp;
  Rng rng(5);
  std::vector<std::uint8_t> payload(100'000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  auto segs = tcp.segment(payload, 1000);
  EXPECT_GT(segs.size(), 10u);
  auto out = tcp.reassemble(segs, 1000);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, payload);
}

TEST(TcpIp, CorruptedSegmentDetected) {
  TcpIpOffload tcp;
  std::vector<std::uint8_t> payload(5000, 0x42);
  auto segs = tcp.segment(payload, 0);
  segs[0].payload[10] ^= 0xff;
  EXPECT_FALSE(tcp.reassemble(segs, 0).ok());
}

TEST(TcpIp, SequenceGapDetected) {
  TcpIpOffload tcp;
  std::vector<std::uint8_t> payload(30'000, 7);
  auto segs = tcp.segment(payload, 0);
  ASSERT_GT(segs.size(), 2u);
  segs.erase(segs.begin() + 1);
  EXPECT_FALSE(tcp.reassemble(std::move(segs), 0).ok());
}

TEST(TcpIp, StandardMtuSegmentsSmaller) {
  TcpIpConfig cfg;
  cfg.max_frame_bytes = 1518;
  TcpIpOffload tcp(cfg);
  std::vector<std::uint8_t> payload(10'000, 1);
  auto segs = tcp.segment(payload, 0);
  for (const auto& s : segs) EXPECT_LE(s.payload.size(), 1518u - 54u);
  EXPECT_EQ(segs.size(), (10'000 + (1518 - 54) - 1) / (1518 - 54));
}

TEST(TcpIp, PacketLatencyAtCmacClock) {
  TcpIpOffload tcp;
  // 64B min packet: 42 header cycles + 1 beat = 43 cycles @ 260 MHz ~165ns.
  EXPECT_NEAR(static_cast<double>(tcp.packet_latency(64)), 43.0 / 260e6 * 1e9, 2.0);
  EXPECT_GT(tcp.message_latency(128 * 1024), tcp.message_latency(4096));
}

TEST(Power, ReproducesPaperScenarios) {
  PowerModel p;
  EXPECT_NEAR(p.full_load_no_pr(), 195.0, 3.0);
  EXPECT_NEAR(p.full_load_with_pr(KernelKind::uniform), 170.0, 3.0);
  EXPECT_LT(p.full_load_with_pr(KernelKind::list), p.full_load_no_pr());
}

TEST(Device, PlacementRequiresResidentKernel) {
  sim::Simulator sim;
  FpgaDevice dev(sim);
  EXPECT_TRUE(dev.placement_latency(KernelKind::straw2).ok());
  EXPECT_FALSE(dev.placement_latency(KernelKind::tree).ok())
      << "RM not loaded yet";
  ASSERT_TRUE(dev.dfx().load_rm(KernelKind::tree, [] {}).ok());
  sim.run();
  EXPECT_TRUE(dev.placement_latency(KernelKind::tree).ok());
  EXPECT_EQ(dev.kernel(KernelKind::tree).ops_executed(), 1u);
}

TEST(Device, StaticRegionFitsInTwoSlrs) {
  sim::Simulator sim;
  FpgaDevice dev(sim);
  const Resources used = dev.static_region_used();
  const Resources cap = U280::slr(1) + U280::slr(2);
  EXPECT_TRUE(cap.fits(used));
}

}  // namespace
}  // namespace dk::fpga
