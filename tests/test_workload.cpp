// Tests for the fio-style engine and the OLAP/OLTP application models.
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "rados/cluster.hpp"
#include "workload/apps.hpp"
#include "workload/fio.hpp"
#include "workload/fio_detail.hpp"

namespace dk::workload {
namespace {

core::FrameworkConfig small_config(core::VariantKind v,
                                   core::PoolMode p = core::PoolMode::replicated) {
  core::FrameworkConfig cfg;
  cfg.variant = v;
  cfg.pool_mode = p;
  cfg.image_size = 32 * MiB;
  return cfg;
}

TEST(FioEngine, ProducesOpsAndLatencies) {
  sim::Simulator sim;
  core::Framework fw(sim, small_config(core::VariantKind::delibak));
  FioEngine engine(fw);
  FioJobSpec spec;
  spec.rw = RwMode::rand_write;
  spec.bs = 4096;
  spec.iodepth = 8;
  spec.runtime = ms(120);
  spec.ramp = ms(20);
  auto r = engine.run(spec);
  EXPECT_GT(r.ops, 100u);
  EXPECT_EQ(r.bytes, r.ops * 4096);
  EXPECT_GT(r.iops(), 0.0);
  EXPECT_GT(r.latency.p50(), us(20));
  EXPECT_LT(r.latency.p50(), ms(5));
}

TEST(FioEngine, DeterministicForSameSeed) {
  auto run_once = [] {
    sim::Simulator sim;
    core::Framework fw(sim, small_config(core::VariantKind::delibak));
    FioEngine engine(fw);
    FioJobSpec spec;
    spec.rw = RwMode::rand_read;
    spec.runtime = ms(80);
    spec.seed = 77;
    return engine.run(spec).ops;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FioEngine, VerifyModeDetectsCorrectData) {
  sim::Simulator sim;
  auto cfg = small_config(core::VariantKind::delibak);
  cfg.image_size = 4 * MiB;
  core::Framework fw(sim, cfg);
  FioEngine engine(fw);
  FioJobSpec spec;
  spec.rw = RwMode::rand_read;
  spec.bs = 4096;
  spec.iodepth = 4;
  spec.runtime = ms(60);
  spec.ramp = 0;
  spec.prefill = true;
  spec.verify = true;
  auto r = engine.run(spec);
  EXPECT_GT(r.ops, 50u);
  EXPECT_EQ(r.verify_errors, 0u)
      << "every read must return the prefill pattern";
}

/// A prefill-and-verify job on a 4 MiB image; the test sets the mode.
FioJobSpec verify_spec(RwMode rw, std::uint64_t bs) {
  FioJobSpec spec;
  spec.rw = rw;
  spec.bs = bs;
  spec.iodepth = 4;
  spec.runtime = ms(60);
  spec.ramp = 0;
  spec.prefill = true;
  spec.verify = true;
  return spec;
}

core::FrameworkConfig verify_config() {
  auto cfg = small_config(core::VariantKind::delibak);
  cfg.image_size = 4 * MiB;
  return cfg;
}

/// Flip one stored byte at image offset `at` on every OSD holding its
/// object, behind the stack's back; returns the number of copies flipped.
unsigned flip_stored_byte(core::Framework& fw, std::uint64_t at) {
  const host::RbdImageSpec& img = fw.image().spec();
  const rados::ObjectKey key{static_cast<std::uint32_t>(img.pool),
                             fw.image().oid_of(at), -1};
  unsigned flipped = 0;
  for (std::size_t i = 0; i < fw.cluster().osd_count(); ++i) {
    auto bytes = fw.cluster().osd(static_cast<int>(i)).store().raw_bytes(key);
    if (bytes.empty()) continue;
    bytes[at % img.object_size] ^= 0x01;
    ++flipped;
  }
  return flipped;
}

TEST(FioEngine, VerifyModeDetectsAFlippedStoredByte) {
  // A pattern that only agrees with itself passes the test above however
  // degenerate it is; one wrong stored byte must still be caught.
  sim::Simulator sim;
  core::Framework fw(sim, verify_config());
  FioEngine engine(fw);
  FioJobSpec spec = verify_spec(RwMode::seq_read, 4096);
  spec.runtime = ms(2);
  ASSERT_EQ(engine.run(spec).verify_errors, 0u);

  ASSERT_GT(flip_stored_byte(fw, 100), 0u);
  spec.prefill = false;  // sequential reads start again at block 0
  EXPECT_GE(engine.run(spec).verify_errors, 1u);
}

TEST(FioEngine, PrefilledBlocksReadBackDifferentBytes) {
  sim::Simulator sim;
  core::Framework fw(sim, verify_config());
  FioEngine engine(fw);
  FioJobSpec spec = verify_spec(RwMode::rand_read, 4096);
  spec.runtime = 0;  // prefill only
  engine.run(spec);

  auto read_block = [&](std::uint64_t offset) {
    std::vector<std::uint8_t> out;
    fw.read(0, offset, 4096, [&](Result<std::vector<std::uint8_t>> r) {
      if (r.ok()) out = std::move(*r);
    });
    sim.run();
    return out;
  };
  const auto first = read_block(0);
  const auto second = read_block(4096);
  ASSERT_EQ(first.size(), 4096u);
  ASSERT_EQ(second.size(), 4096u);
  EXPECT_NE(first, second) << "each block's pattern depends on its offset";
  EXPECT_NE(first, std::vector<std::uint8_t>(4096, 0)) << "prefill wrote data";
}

TEST(FioEngine, VerifyModeAcceptsBlockSizeNotAMultipleOfEight) {
  // A jobfile may ask for bs=1000: each block's pattern ends in a partial
  // word, and the block grid lines up with no 4 kB or 512 kB boundary.
  sim::Simulator sim;
  core::Framework fw(sim, verify_config());
  FioEngine engine(fw);
  const auto r = engine.run(verify_spec(RwMode::rand_rw, 1000));
  EXPECT_GT(r.ops, 50u);
  EXPECT_EQ(r.verify_errors, 0u);
}

TEST(FioEngine, NoWholeBlockInTheImageIssuesNoIo) {
  // A 1 GiB block on a 32 MiB image, or a zero block size, leaves no block
  // to address; the run used to divide by the block count of zero.
  sim::Simulator sim;
  core::Framework fw(sim, small_config(core::VariantKind::delibak));
  FioEngine engine(fw);
  for (const RwMode rw : {RwMode::seq_read, RwMode::rand_read,
                          RwMode::seq_write, RwMode::rand_rw}) {
    for (const std::uint64_t bs : {std::uint64_t{0}, std::uint64_t{GiB}}) {
      FioJobSpec spec;
      spec.rw = rw;
      spec.bs = bs;
      spec.runtime = ms(5);
      spec.prefill = true;
      EXPECT_EQ(engine.run(spec).ops, 0u) << rw_name(rw) << " bs=" << bs;
    }
  }
  EXPECT_EQ(fw.metrics().find_counter("io.reads")->value(), 0u);
  EXPECT_EQ(fw.metrics().find_counter("io.writes")->value(), 0u);
}

// Block sizes for the pattern kernels: every size through 300 (every tail
// length at several vector counts), a size that is no multiple of eight, a
// page, and 128 KiB plus a tail.
std::vector<std::uint64_t> pattern_sizes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t bs = 1; bs <= 300; ++bs) sizes.push_back(bs);
  sizes.insert(sizes.end(), {1000, 4096, 128 * KiB + 7});
  return sizes;
}

constexpr std::uint64_t kPatternOffsets[] = {0, 4096, 1000 * 1000 + 8,
                                             std::uint64_t{1} << 40};
constexpr std::uint64_t kPatternSeeds[] = {0, 1, 97, ~std::uint64_t{0}};

TEST(BlockPattern, Avx2AndPortableKernelsGiveIdenticalBytes) {
  if (!detail::block_pattern_avx2_available())
    GTEST_SKIP() << "this CPU has no AVX2";
  std::vector<std::uint8_t> portable, avx2;
  for (const std::uint64_t bs : pattern_sizes()) {
    portable.assign(bs, 0);
    for (const std::uint64_t offset : kPatternOffsets) {
      for (const std::uint64_t seed : kPatternSeeds) {
        detail::block_pattern_portable(offset, seed, portable);
        avx2.assign(bs, 0xa5);
        detail::block_pattern_avx2(offset, seed, avx2);
        ASSERT_EQ(avx2, portable)
            << "bs=" << bs << " offset=" << offset << " seed=" << seed;
      }
    }
  }
}

TEST(BlockPattern, DifferentOffsetsGiveDifferentBlocks) {
  // From eight bytes up a repeat would mean the lanes of two blocks share
  // a stream; a one-byte block matches another by chance 1 time in 256.
  std::vector<std::uint8_t> a, b;
  for (const std::uint64_t bs : pattern_sizes()) {
    if (bs < 8) continue;
    a.resize(bs);
    b.resize(bs);
    for (const std::uint64_t seed : kPatternSeeds) {
      for (std::size_t i = 0; i < std::size(kPatternOffsets); ++i) {
        detail::block_pattern_portable(kPatternOffsets[i], seed, a);
        for (std::size_t j = i + 1; j < std::size(kPatternOffsets); ++j) {
          detail::block_pattern_portable(kPatternOffsets[j], seed, b);
          EXPECT_NE(a, b) << "bs=" << bs << " seed=" << seed << " offsets "
                          << kPatternOffsets[i] << ", " << kPatternOffsets[j];
        }
        // The next block on the same grid too.
        detail::block_pattern_portable(kPatternOffsets[i] + bs, seed, b);
        EXPECT_NE(a, b) << "bs=" << bs << " seed=" << seed;
      }
    }
  }
}

TEST(FioEngine, HigherIodepthRaisesThroughput) {
  auto tput = [](unsigned qd) {
    sim::Simulator sim;
    core::Framework fw(sim, small_config(core::VariantKind::delibak));
    FioEngine engine(fw);
    FioJobSpec spec;
    spec.rw = RwMode::rand_read;
    spec.iodepth = qd;
    spec.runtime = ms(150);
    return engine.run(spec).iops();
  };
  EXPECT_GT(tput(16), tput(1) * 2.0);
}

TEST(FioEngine, SequentialFasterThanRandomReads) {
  auto run_mode = [](RwMode mode) {
    sim::Simulator sim;
    core::Framework fw(sim, small_config(core::VariantKind::delibak));
    FioEngine engine(fw);
    FioJobSpec spec;
    spec.rw = mode;
    spec.iodepth = 1;
    spec.runtime = ms(150);
    return engine.run(spec);
  };
  // Readahead: sequential reads have visibly lower latency.
  EXPECT_LT(run_mode(RwMode::seq_read).mean_latency_us(),
            run_mode(RwMode::rand_read).mean_latency_us() * 0.85);
}

TEST(ProbeLatency, MicrosecondScaleAndOrdered) {
  sim::Simulator sim;
  core::Framework fw(sim, small_config(core::VariantKind::delibak));
  const Nanos lat4k = probe_latency(fw, RwMode::rand_read, 4096, 20);
  EXPECT_GT(lat4k, us(30));
  EXPECT_LT(lat4k, us(150));
  const Nanos lat128k = probe_latency(fw, RwMode::rand_read, 128 * 1024, 20);
  EXPECT_GT(lat128k, lat4k);
}

TEST(FioEngine, MixedRandRwRespectsReadFraction) {
  sim::Simulator sim;
  core::Framework fw(sim, small_config(core::VariantKind::delibak));
  FioEngine engine(fw);
  FioJobSpec spec;
  spec.rw = RwMode::rand_rw;
  spec.rwmix_read = 70;
  spec.iodepth = 8;
  spec.runtime = ms(200);
  spec.ramp = 0;
  auto r = engine.run(spec);
  ASSERT_GT(r.ops, 200u);
  // Reads and writes both happened (framework stats split them).
  EXPECT_GT(fw.stats().reads, fw.stats().writes)
      << "70% read mix must skew toward reads";
  EXPECT_GT(fw.stats().writes, 0u);
  const double read_frac = static_cast<double>(fw.stats().reads) /
                           (fw.stats().reads + fw.stats().writes);
  EXPECT_NEAR(read_frac, 0.70, 0.08);
}

TEST(Olap, ScanCompletesAndD3BeatsD2Sw) {
  auto run_variant = [](core::VariantKind v) {
    sim::Simulator sim;
    auto cfg = small_config(v);
    cfg.image_size = 64 * MiB;
    core::Framework fw(sim, cfg);
    OlapSpec spec;
    spec.table_bytes = 32 * MiB;
    return run_olap(fw, spec);
  };
  auto d2 = run_variant(core::VariantKind::sw_ceph_d2);
  auto d3 = run_variant(core::VariantKind::delibak);
  EXPECT_GT(d2.scan_mbps, 0.0);
  EXPECT_LT(d3.total(), d2.total());
}

TEST(Oltp, TransactionsCommitWithLatencies) {
  sim::Simulator sim;
  core::Framework fw(sim, small_config(core::VariantKind::delibak));
  OltpSpec spec;
  spec.transactions = 100;
  spec.clients = 2;
  auto r = run_oltp(fw, spec);
  EXPECT_EQ(r.committed, 100u);
  EXPECT_GT(r.tps(), 0.0);
  EXPECT_EQ(r.txn_latency.count(), 100u);
  // A txn spans several I/Os: latency well above a single I/O.
  EXPECT_GT(r.txn_latency.p50(), us(100));
}

TEST(Oltp, MoreClientsRaiseTps) {
  auto tps = [](unsigned clients) {
    sim::Simulator sim;
    core::Framework fw(sim, small_config(core::VariantKind::delibak));
    OltpSpec spec;
    spec.transactions = 200;
    spec.clients = clients;
    return run_oltp(fw, spec).tps();
  };
  EXPECT_GT(tps(4), tps(1) * 1.5);
}

}  // namespace
}  // namespace dk::workload
