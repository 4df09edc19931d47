// Integration tests for the DeLiBA framework variants: end-to-end data
// integrity through every stack, variant trait behaviour, strategy
// selection, ring accounting, DFX fallback, and structural latency ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "common/page.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"

namespace dk::core {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

constexpr VariantKind kAllVariants[] = {
    VariantKind::sw_ceph_d2, VariantKind::sw_delibak, VariantKind::deliba1,
    VariantKind::deliba2, VariantKind::delibak};

class VariantRoundTrip
    : public ::testing::TestWithParam<std::tuple<VariantKind, PoolMode>> {};

TEST_P(VariantRoundTrip, WriteThenReadReturnsSameBytes) {
  const auto [variant, pool] = GetParam();
  if (pool == PoolMode::erasure && !variant_traits(variant).supports_ec)
    GTEST_SKIP() << "DeLiBA-1 has no EC accelerators";
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = variant;
  cfg.pool_mode = pool;
  cfg.image_size = 64 * MiB;
  Framework fw(sim, cfg);

  auto data = pattern(8192, 42);
  std::int32_t wres = 0;
  fw.write(0, 12 * 8192, data, [&](std::int32_t r) { wres = r; });
  sim.run();
  ASSERT_EQ(wres, 8192);

  Result<std::vector<std::uint8_t>> rres = Status::Error(Errc::timed_out);
  fw.read(0, 12 * 8192, 8192,
          [&](Result<std::vector<std::uint8_t>> r) { rres = std::move(r); });
  sim.run();
  ASSERT_TRUE(rres.ok()) << rres.status().to_string();
  EXPECT_EQ(*rres, data);
}

std::string variant_pool_name(
    const ::testing::TestParamInfo<std::tuple<VariantKind, PoolMode>>& info) {
  std::string name(variant_short_name(std::get<0>(info.param)));
  for (auto& ch : name)
    if (ch == '-') ch = '_';
  return name +
         (std::get<1>(info.param) == PoolMode::replicated ? "_repl" : "_ec");
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPools, VariantRoundTrip,
    ::testing::Combine(::testing::ValuesIn(kAllVariants),
                       ::testing::Values(PoolMode::replicated,
                                         PoolMode::erasure)),
    variant_pool_name);

// Every I/O the API accepts completes: sizes on both sides of the block
// layer's 512 KiB split limit round-trip at a 4 kB-aligned offset whose range
// crosses an object boundary and at an unaligned one, each split fragment
// moving only its own slice, and a write past the image end fails.
class SplitRoundTrip
    : public ::testing::TestWithParam<std::tuple<VariantKind, PoolMode>> {};

TEST_P(SplitRoundTrip, EverySizeCompletesWithTheBytesWritten) {
  const auto [variant, pool] = GetParam();
  if (pool == PoolMode::erasure && !variant_traits(variant).supports_ec)
    GTEST_SKIP() << "DeLiBA-1 has no EC accelerators";
  std::uint64_t check_failures = 0;
  ScopedCheckFailureHandler count(
      [&](const CheckContext&) { ++check_failures; });
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = variant;
  cfg.pool_mode = pool;
  cfg.image_size = 16 * MiB;
  Framework fw(sim, cfg);

  constexpr std::uint64_t kSizes[] = {
      512,       4 * KiB,         512 * KiB, 516 * KiB,
      768 * KiB, 1 * MiB + 1000, 3 * MiB,   4 * MiB};
  constexpr std::uint64_t kOffsets[] = {4 * MiB - 4 * KiB, 8 * MiB - 3000};
  for (const std::uint64_t offset : kOffsets) {
    for (const std::uint64_t size : kSizes) {
      SCOPED_TRACE(::testing::Message() << size << " B at " << offset);
      const auto data = pattern(size, size + offset);
      std::int32_t wres = 0;
      fw.write(0, offset, data, [&](std::int32_t r) { wres = r; });
      sim.run();
      EXPECT_EQ(wres, static_cast<std::int32_t>(size));

      const std::uint64_t read_before = fw.image().stats().bytes_read;
      Result<std::vector<std::uint8_t>> rres = Status::Error(Errc::timed_out);
      fw.read(0, offset, size, [&](Result<std::vector<std::uint8_t>> r) {
        rres = std::move(r);
      });
      sim.run();
      ASSERT_TRUE(rres.ok()) << rres.status().to_string();
      EXPECT_EQ(*rres, data);
      EXPECT_EQ(fw.image().stats().bytes_read - read_before, size);
      EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
    }
  }

  std::int32_t past_end = 0;
  fw.write(0, cfg.image_size - 512 * KiB, pattern(1 * MiB, 7),
           [&](std::int32_t r) { past_end = r; });
  sim.run();
  EXPECT_EQ(past_end, -static_cast<std::int32_t>(Errc::out_of_range));
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
  EXPECT_EQ(check_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsBothPools, SplitRoundTrip,
    ::testing::Combine(::testing::ValuesIn(kAllVariants),
                       ::testing::Values(PoolMode::replicated,
                                         PoolMode::erasure)),
    variant_pool_name);

TEST(Framework, DmaCorruptionOfSplitIoIsDetectedOncePerIo) {
  std::uint64_t check_failures = 0;
  ScopedCheckFailureHandler count(
      [&](const CheckContext&) { ++check_failures; });
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.image_size = 16 * MiB;
  cfg.integrity = true;
  cfg.fault_plan.dma_corruption.push_back(
      sim::DmaCorruptionWindow{0, sec(1), 1.0, 4});
  Framework fw(sim, cfg);

  std::int32_t wres = 0;
  fw.write(0, 0, pattern(1 * MiB, 11), [&](std::int32_t r) { wres = r; });
  sim.run();
  EXPECT_EQ(wres, -static_cast<std::int32_t>(Errc::corrupted));

  Result<std::vector<std::uint8_t>> rres = Status::Error(Errc::timed_out);
  fw.read(0, 0, 1 * MiB,
          [&](Result<std::vector<std::uint8_t>> r) { rres = std::move(r); });
  sim.run();
  ASSERT_FALSE(rres.ok());
  EXPECT_EQ(rres.status().code(), Errc::corrupted);

  // Both fragments of both I/Os were hit, yet each I/O counts one detection,
  // and each detection is resolved by the error its caller got.
  EXPECT_EQ(fw.faults()->stats().dma_corruptions, 4u);
  EXPECT_EQ(fw.validator().corruptions_detected(), 2u);
  EXPECT_EQ(fw.validator().corruptions_resolved(), 2u);
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
  EXPECT_EQ(check_failures, 0u);
}

TEST(Framework, Deliba1RejectsEc) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::deliba1;
  cfg.pool_mode = PoolMode::erasure;
  Framework fw(sim, cfg);
  std::int32_t res = 0;
  fw.write(0, 0, pattern(4096, 1), [&](std::int32_t r) { res = r; });
  sim.run();
  EXPECT_EQ(res, -static_cast<std::int32_t>(Errc::unsupported));
}

TEST(Framework, IoAtTheTopOfTheAddressSpaceIsOutOfRange) {
  // offset + length overflows 64 bits; the image's range check must still
  // reject it rather than store the bytes in another image's oids.
  sim::Simulator sim;
  Framework fw(sim, FrameworkConfig{});
  const std::uint64_t top = ~std::uint64_t{0} - 4095;
  std::int32_t res = 0;
  fw.write(0, top, pattern(4096, 1), [&](std::int32_t r) { res = r; });
  Result<std::vector<std::uint8_t>> read = Status::Error(Errc::timed_out);
  fw.read(0, top, 4096, [&](Result<std::vector<std::uint8_t>> r) {
    read = std::move(r);
  });
  sim.run();
  EXPECT_EQ(res, -static_cast<std::int32_t>(Errc::out_of_range));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Errc::out_of_range);
  EXPECT_EQ(fw.cluster().total_ops_served(), 0u);
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

TEST(Framework, UringVariantsPostAndReapCqes) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  Framework fw(sim, cfg);
  for (int i = 0; i < 5; ++i) {
    fw.write(0, 4096ull * i, pattern(4096, i), [](std::int32_t) {});
  }
  sim.run();
  auto stats = fw.urings()->total_stats();
  EXPECT_EQ(stats.sqes_submitted, 5u);
  EXPECT_EQ(stats.cqes_reaped, 5u);
  EXPECT_EQ(stats.enter_calls, 0u) << "kernel-polled mode needs no enter()";
  EXPECT_GT(stats.sq_poll_wakeups, 0u);
}

TEST(Framework, NbdVariantsHaveNoRings) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::deliba2;
  Framework fw(sim, cfg);
  EXPECT_EQ(fw.urings(), nullptr);
}

TEST(Framework, SoftwareVariantsHaveNoFpga) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::sw_ceph_d2;
  Framework fw(sim, cfg);
  EXPECT_EQ(fw.fpga(), nullptr);
  cfg.variant = VariantKind::delibak;
  sim::Simulator sim2;
  Framework fw2(sim2, cfg);
  EXPECT_NE(fw2.fpga(), nullptr);
}

TEST(Framework, JobsSpreadOverUringInstances) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.uring_instances = 3;
  Framework fw(sim, cfg);
  for (unsigned job = 0; job < 3; ++job)
    fw.write(job, 4096ull * job, pattern(4096, job), [](std::int32_t) {});
  sim.run();
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(fw.urings()->ring(i).stats().sqes_submitted, 1u)
        << "instance " << i;
}

TEST(Framework, StrategySelectionMatchesPaperArchitecture) {
  sim::Simulator sim;
  {
    FrameworkConfig cfg;
    cfg.variant = VariantKind::delibak;
    Framework fw(sim, cfg);
    EXPECT_EQ(fw.write_strategy(), rados::WriteStrategy::client_fanout);
  }
  {
    FrameworkConfig cfg;
    cfg.variant = VariantKind::deliba2;
    Framework fw(sim, cfg);
    EXPECT_EQ(fw.write_strategy(), rados::WriteStrategy::primary_copy);
  }
  {
    FrameworkConfig cfg;
    cfg.variant = VariantKind::delibak;
    cfg.pool_mode = PoolMode::erasure;
    Framework fw(sim, cfg);
    EXPECT_EQ(fw.write_strategy(), rados::WriteStrategy::client_fanout);
    EXPECT_EQ(fw.read_strategy(), rados::ReadStrategy::direct_shards);
  }
  {
    FrameworkConfig cfg;
    cfg.variant = VariantKind::sw_ceph_d2;
    cfg.pool_mode = PoolMode::erasure;
    Framework fw(sim, cfg);
    EXPECT_EQ(fw.write_strategy(), rados::WriteStrategy::primary_copy);
    EXPECT_EQ(fw.read_strategy(), rados::ReadStrategy::primary);
  }
}

TEST(Framework, SubmitCostOrderingD3FastestD1Slowest) {
  sim::Simulator sim;
  std::map<VariantKind, Nanos> cost;
  for (VariantKind v :
       {VariantKind::deliba1, VariantKind::deliba2, VariantKind::delibak}) {
    FrameworkConfig cfg;
    cfg.variant = v;
    Framework fw(sim, cfg);
    cost[v] = fw.host_submit_cost(true, 4096);
  }
  EXPECT_LT(cost[VariantKind::delibak], cost[VariantKind::deliba2]);
  EXPECT_LT(cost[VariantKind::deliba2], cost[VariantKind::deliba1]);
}

TEST(Framework, CopyCostScalesWithBlockSizeOnlyForCopyingVariants) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::deliba2;
  Framework d2(sim, cfg);
  cfg.variant = VariantKind::delibak;
  Framework d3(sim, cfg);
  const Nanos d2_delta = d2.host_submit_cost(true, 128 * 1024) -
                         d2.host_submit_cost(true, 4096);
  const Nanos d3_delta = d3.host_submit_cost(true, 128 * 1024) -
                         d3.host_submit_cost(true, 4096);
  EXPECT_GT(d2_delta, us(200)) << "5 copies of 128k dominate D2's submit";
  EXPECT_EQ(d3_delta, 0) << "zero-copy: D3 submit cost is size-independent";
}

TEST(Framework, FpgaPlacementsCountedAndKernelFallback) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.placement_alg = crush::BucketAlg::tree;  // tree is a DFX RM
  Framework fw(sim, cfg);
  // RM not loaded -> placements fall back to host CRUSH.
  fw.write(0, 0, pattern(4096, 1), [](std::int32_t) {});
  sim.run();
  EXPECT_GT(fw.stats().sw_placement_fallbacks, 0u);
  EXPECT_EQ(fw.stats().fpga_placements, 0u);

  // Load the Tree RM, then placements run on the FPGA.
  ASSERT_TRUE(fw.fpga()->dfx().load_rm(fpga::KernelKind::tree, [] {}).ok());
  sim.run();
  fw.write(0, 4096, pattern(4096, 2), [](std::int32_t) {});
  sim.run();
  EXPECT_GT(fw.stats().fpga_placements, 0u);
}

TEST(Framework, DmqBypassAblationChangesSchedulerUse) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.dmq_bypass_override = false;
  Framework fw(sim, cfg);
  fw.write(0, 0, pattern(4096, 1), [](std::int32_t) {});
  sim.run();
  EXPECT_EQ(fw.mq().stats().sched_bypass, 0u);
  EXPECT_GT(fw.host_submit_cost(true, 4096),
            [&] {
              FrameworkConfig c2 = cfg;
              c2.dmq_bypass_override = true;
              sim::Simulator s2;
              Framework f2(s2, c2);
              return f2.host_submit_cost(true, 4096);
            }());
}

TEST(Framework, OutOfRangeWriteFails) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.image_size = 8 * MiB;
  Framework fw(sim, cfg);
  std::int32_t res = 0;
  fw.write(0, 8 * MiB - 100, pattern(4096, 3), [&](std::int32_t r) { res = r; });
  sim.run();
  EXPECT_LT(res, 0);
}

TEST(Framework, EcDegradedReadStillReturnsData) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.pool_mode = PoolMode::erasure;
  cfg.image_size = 32 * MiB;
  Framework fw(sim, cfg);
  auto data = pattern(16384, 9);
  fw.write(0, 0, data, [](std::int32_t) {});
  sim.run();
  // Take down one shard OSD of the object's acting set.
  const std::uint64_t oid = fw.image().oid_of(0);
  auto acting = fw.cluster().acting_set(1 - 1 + 0, oid);  // pool id 0
  ASSERT_GE(acting.size(), 6u);
  fw.cluster().set_osd_down(acting[1], true);
  Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
  fw.read(0, 0, 16384, [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
  sim.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data);
}

// ---------------------------------------------------------------------------
// Reads hand over pages: the bytes a read delivers are the pages the
// cluster replied with, joined across objects and block-layer fragments.

/// `fw` written with `bytes` from offset 0 in 512 kB writes.
void prefill(sim::Simulator& sim, Framework& fw,
             const std::vector<std::uint8_t>& bytes) {
  for (std::uint64_t off = 0; off < bytes.size(); off += 512 * KiB) {
    const std::uint64_t n = std::min<std::uint64_t>(512 * KiB,
                                                    bytes.size() - off);
    std::int32_t res = 0;
    fw.write(0, off, {bytes.begin() + static_cast<long>(off),
                      bytes.begin() + static_cast<long>(off + n)},
             [&](std::int32_t r) { res = r; });
    sim.run();
    ASSERT_EQ(res, static_cast<std::int32_t>(n)) << "prefill at " << off;
  }
}

Result<Payload> read_pages(sim::Simulator& sim, Framework& fw,
                           std::uint64_t offset, std::uint64_t length) {
  Result<Payload> out = Status::Error(Errc::timed_out);
  fw.read(0, offset, length, [&](Result<Payload> r) { out = std::move(r); });
  sim.run();
  return out;
}

TEST(ReadPages, AReplicatedReadHandsOverTheStoresOwnPage) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.image_size = 16 * MiB;
  Framework fw(sim, cfg);
  const std::uint64_t offset = 5 * MiB + 12 * KiB;
  const auto data = pattern(4 * KiB, 3);
  fw.write(0, offset, data, [](std::int32_t) {});
  sim.run();

  const int pool = fw.image().spec().pool;
  const std::uint64_t oid = fw.image().oid_of(offset);
  const int primary = fw.cluster().acting_set(pool, oid).front();
  const Payload stored =
      fw.cluster().osd(primary).store().read(
          rados::ObjectKey{static_cast<std::uint32_t>(pool), oid},
          offset % cfg.object_size, 4 * KiB);

  const std::uint64_t live_before = live_pages();
  std::uint64_t live_in_callback = 0;
  Result<Payload> r = Status::Error(Errc::timed_out);
  fw.read(0, offset, 4 * KiB, [&](Result<Payload> x) {
    live_in_callback = live_pages();
    r = std::move(x);
  });
  sim.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_EQ(r->page_count(), 1u);
  EXPECT_EQ(r->page(0), stored.page(0)) << "the store's page, by reference";
  EXPECT_EQ(*r, std::span<const std::uint8_t>(data));
  EXPECT_EQ(live_in_callback, live_before) << "the read took no page";
  EXPECT_EQ(live_pages(), live_before);
}

class SpanningReads : public ::testing::TestWithParam<VariantKind> {};

TEST_P(SpanningReads, ReturnTheWrittenBytesAcrossObjectsAndFragments) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = GetParam();
  cfg.image_size = 16 * MiB;
  Framework fw(sim, cfg);
  const auto image = pattern(9 * MiB, 17);  // non-periodic
  prefill(sim, fw, image);

  struct Extent {
    std::uint64_t offset, length;
  };
  constexpr Extent kExtents[] = {
      {4 * MiB - 8 * KiB, 16 * KiB},            // two objects, aligned
      {4 * MiB - 5000, 12345},                  // two objects, unaligned
      {1 * MiB, 1 * MiB + 4 * KiB},             // three fragments, aligned
      {777, 600 * KiB + 13},                    // two fragments, unaligned
      {4 * MiB - 300 * KiB + 123, 700 * KiB},   // both at once
      {8 * MiB - 3 * MiB - 1, 3 * MiB + 5000},  // six fragments, two objects
  };
  for (const Extent& e : kExtents) {
    SCOPED_TRACE(::testing::Message() << e.length << " B at " << e.offset);
    const Result<Payload> r = read_pages(sim, fw, e.offset, e.length);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->head(), e.offset % kPageBytes)
        << "laid out for the image offset";
    EXPECT_TRUE(*r == std::span(image).subspan(e.offset, e.length));
  }
  EXPECT_EQ(fw.mq().stats().merges, 0u);
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ReplicatedStacks, SpanningReads,
    ::testing::Values(VariantKind::delibak, VariantKind::sw_ceph_d2),
    [](const ::testing::TestParamInfo<VariantKind>& info) {
      return info.param == VariantKind::delibak ? std::string("D3")
                                                : std::string("D2_SW");
    });

TEST(ReadPages, EcReadsReturnTheWrittenExtentOnBothReadStrategies) {
  // D3 reads the data shards directly and assembles them client-side;
  // D2-SW asks the primary, which gathers and assembles. Each reads back
  // exactly the extents it wrote.
  for (const VariantKind variant :
       {VariantKind::delibak, VariantKind::sw_ceph_d2}) {
    SCOPED_TRACE(variant_name(variant));
    sim::Simulator sim;
    FrameworkConfig cfg;
    cfg.variant = variant;
    cfg.pool_mode = PoolMode::erasure;
    cfg.image_size = 16 * MiB;
    Framework fw(sim, cfg);
    for (const std::uint64_t length : {4 * KiB, 128 * KiB, 1 * MiB}) {
      const std::uint64_t offset = 2 * MiB + length;
      const auto data = pattern(length, length);
      std::int32_t wres = 0;
      fw.write(0, offset, data, [&](std::int32_t res) { wres = res; });
      sim.run();
      ASSERT_EQ(wres, static_cast<std::int32_t>(length));
      const Result<Payload> r = read_pages(sim, fw, offset, length);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_TRUE(*r == std::span<const std::uint8_t>(data)) << length;
    }
  }
}

TEST(ReadPages, AC2hCorruptedReadNeverReachesTheStore) {
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.image_size = 16 * MiB;
  cfg.integrity = true;
  // Only the read issued at 10 ms crosses the window.
  cfg.fault_plan.dma_corruption.push_back(
      sim::DmaCorruptionWindow{ms(10), ms(11), 1.0, 4});
  Framework fw(sim, cfg);
  const std::uint64_t offset = 64 * KiB;
  const auto data = pattern(8 * KiB, 5);
  std::int32_t wres = 0;
  fw.write(0, offset, data, [&](std::int32_t r) { wres = r; });
  sim.run();
  ASSERT_EQ(wres, 8192);
  ASSERT_LT(sim.now(), ms(10));

  Result<Payload> bad = Status::Error(Errc::timed_out);
  sim.schedule_at(ms(10), [&] {
    fw.read(0, offset, data.size(),
            [&](Result<Payload> r) { bad = std::move(r); });
  });
  sim.run();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Errc::corrupted);
  EXPECT_EQ(fw.faults()->stats().dma_corruptions, 1u);

  Result<Payload> good = Status::Error(Errc::timed_out);
  ASSERT_LT(sim.now(), ms(30));
  sim.schedule_at(ms(30), [&] {
    fw.read(0, offset, data.size(),
            [&](Result<Payload> r) { good = std::move(r); });
  });
  sim.run();
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_TRUE(*good == std::span<const std::uint8_t>(data))
      << "the flips landed in the stores' shared pages";
  EXPECT_EQ(fw.faults()->stats().dma_corruptions, 1u);
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

TEST(ReadPages, AdjacentInFlightReadsOnTheElevatorNeverMerge) {
  // D2-SW runs the MQ elevator, which merges a bio into a queued request
  // it continues. Each read names its own pages, so none may merge. A slow
  // fabric (9 ms each way) keeps every read in flight for tens of
  // milliseconds, through timeouts and retries, so the hardware queue's 256
  // tags run out and later reads wait in the elevator beside their
  // neighbours.
  sim::Simulator sim;
  FrameworkConfig cfg;
  cfg.variant = VariantKind::sw_ceph_d2;
  cfg.image_size = 16 * MiB;
  cfg.fault_plan.links.push_back(
      sim::LinkFaultWindow{ms(100), ms(300), 0.0, ms(9), -1});
  Framework fw(sim, cfg);
  ASSERT_FALSE(fw.mq().config().bypass_scheduler);
  const auto image = pattern(4 * MiB, 23);
  prefill(sim, fw, image);
  ASSERT_LT(sim.now(), ms(100));

  constexpr std::uint64_t kReads = 600;
  std::uint64_t good = 0;
  sim.schedule_at(ms(100), [&] {
    for (std::uint64_t i = 0; i < kReads; ++i) {
      fw.read(0, i * 4 * KiB, 4 * KiB, [&, i](Result<Payload> r) {
        good += r.ok() &&
                *r == std::span(image).subspan(i * 4 * KiB, 4 * KiB);
      });
    }
  });
  sim.run();
  EXPECT_EQ(good, kReads);
  EXPECT_GT(fw.mq().stats().tag_waits, 0u) << "no read waited in the queue";
  EXPECT_EQ(fw.mq().stats().merges, 0u);
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

}  // namespace
}  // namespace dk::core
