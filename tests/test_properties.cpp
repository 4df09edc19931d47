// Cross-module property tests: randomized/fuzz-style invariants that no
// single-module unit test covers.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "blk/mq.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "crush/builder.hpp"
#include "ec/reed_solomon.hpp"
#include "fpga/qdma.hpp"
#include "net/network.hpp"

namespace dk {
namespace {

// --- End-to-end data integrity fuzz -----------------------------------------

class IntegrityFuzz
    : public ::testing::TestWithParam<std::tuple<core::VariantKind, core::PoolMode>> {};

TEST_P(IntegrityFuzz, RandomWritesThenFullReadback) {
  const auto [variant, pool] = GetParam();
  if (pool == core::PoolMode::erasure &&
      !core::variant_traits(variant).supports_ec)
    GTEST_SKIP();
  sim::Simulator sim;
  core::FrameworkConfig cfg;
  cfg.variant = variant;
  cfg.pool_mode = pool;
  cfg.image_size = 16 * MiB;
  core::Framework fw(sim, cfg);

  // Random overlapping writes; remember the expected final image.
  Rng rng(2024);
  std::map<std::uint64_t, std::uint8_t> expected;  // block -> fill byte
  constexpr std::uint64_t kBlock = 4096;
  const std::uint64_t blocks = cfg.image_size / kBlock;
  for (int op = 0; op < 120; ++op) {
    const std::uint64_t b = rng.below(blocks);
    const auto fill = static_cast<std::uint8_t>(rng.below(255) + 1);
    const unsigned span = 1 + static_cast<unsigned>(rng.below(4));
    std::vector<std::uint8_t> data(kBlock * span, fill);
    for (unsigned s = 0; s < span && b + s < blocks; ++s)
      expected[b + s] = fill;
    const std::uint64_t len =
        std::min<std::uint64_t>(data.size(), (blocks - b) * kBlock);
    data.resize(len);
    fw.write(op % 3, b * kBlock, std::move(data), [](std::int32_t) {});
    // Interleave: sometimes let the pipeline drain, sometimes pile up.
    if (rng.chance(0.5)) sim.run();
  }
  sim.run();

  // Read back every touched block and verify the last write won.
  for (const auto& [block, fill] : expected) {
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    fw.read(0, block * kBlock, kBlock,
            [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
    sim.run();
    ASSERT_TRUE(r.ok()) << "block " << block;
    for (std::uint8_t byte : *r)
      ASSERT_EQ(byte, fill) << "block " << block;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, IntegrityFuzz,
    ::testing::Values(
        std::make_tuple(core::VariantKind::delibak, core::PoolMode::replicated),
        std::make_tuple(core::VariantKind::delibak, core::PoolMode::erasure),
        std::make_tuple(core::VariantKind::deliba2, core::PoolMode::erasure),
        std::make_tuple(core::VariantKind::sw_ceph_d2,
                        core::PoolMode::replicated)),
    [](const auto& info) {
      std::string name(core::variant_short_name(std::get<0>(info.param)));
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + (std::get<1>(info.param) == core::PoolMode::replicated
                         ? "_repl"
                         : "_ec");
    });

// --- Block layer conservation ------------------------------------------------

TEST(BlkProperty, EveryBioCompletesExactlyOnce) {
  // Random mix of sizes (some splitting), ops, and queues against a driver
  // that completes in random order: completions must equal submissions and
  // no tag may leak.
  class RandomDriver final : public blk::Driver {
   public:
    explicit RandomDriver(Rng& rng) : rng_(rng) {}
    void queue_rq(blk::Request request) override {
      held_.push_back(std::move(request));
      // Randomly complete 0-2 held requests, in random positions.
      for (int i = 0; i < 2 && !held_.empty(); ++i) {
        if (!rng_.chance(0.7)) continue;
        const std::size_t pick = rng_.below(held_.size());
        blk::Request r = std::move(held_[pick]);
        held_.erase(held_.begin() + static_cast<long>(pick));
        r.complete(static_cast<std::int32_t>(r.len));
      }
    }
    void drain() {
      while (!held_.empty()) {
        blk::Request r = std::move(held_.back());
        held_.pop_back();
        r.complete(static_cast<std::int32_t>(r.len));
      }
    }

   private:
    Rng& rng_;
    std::vector<blk::Request> held_;
  };

  Rng rng(7);
  RandomDriver driver(rng);
  blk::MqBlockLayer mq({.nr_hw_queues = 2,
                        .queue_depth = 8,
                        .max_io_bytes = 64 * 1024,
                        .bypass_scheduler = false},
                       driver);
  unsigned completions = 0;
  constexpr unsigned kBios = 500;
  for (unsigned i = 0; i < kBios; ++i) {
    blk::Request req;
    req.op = rng.chance(0.5) ? blk::ReqOp::read : blk::ReqOp::write;
    req.offset = rng.below(1024) * 4096;
    req.len = static_cast<std::uint32_t>((1 + rng.below(64)) * 4096);
    req.complete = [&](std::int32_t res) {
      EXPECT_GT(res, 0);
      ++completions;
    };
    ASSERT_TRUE(mq.submit(static_cast<unsigned>(rng.below(4)), std::move(req)).ok());
    if (rng.chance(0.2)) driver.drain();
    mq.run_queues();
  }
  // Drain repeatedly: every drain may dispatch queued requests needing
  // further drains.
  for (int round = 0; round < 64; ++round) {
    driver.drain();
    mq.run_queues();
  }
  EXPECT_EQ(completions, kBios);
  EXPECT_EQ(mq.tags_in_use(0), 0u);
  EXPECT_EQ(mq.tags_in_use(1), 0u);
}

// --- QDMA descriptor conservation --------------------------------------------

TEST(QdmaProperty, DescriptorBudgetConservedUnderStress) {
  sim::Simulator sim;
  fpga::QdmaConfig cfg;
  cfg.ring_entries = 1024;  // let the URAM budget (512) be the binding limit
  fpga::QdmaEngine q(sim, cfg);
  auto id = q.alloc_queue_set(fpga::QueueClass::replication);
  ASSERT_TRUE(id.ok());
  Rng rng(3);
  unsigned completed = 0, accepted = 0;
  for (int round = 0; round < 50; ++round) {
    // Burst of up to 600 DMAs (more than the 512-descriptor URAM budget).
    const unsigned burst = 300 + static_cast<unsigned>(rng.below(300));
    for (unsigned i = 0; i < burst; ++i) {
      const bool h2c = rng.chance(0.5);
      const std::uint64_t bytes = 64 + rng.below(8192);
      const Status s = h2c ? q.h2c(*id, bytes, [&](Status) { ++completed; })
                           : q.c2h(*id, bytes, [&](Status) { ++completed; });
      if (s.ok()) ++accepted;
    }
    sim.run();  // drain the burst
    EXPECT_EQ(completed, accepted) << "no DMA may be lost";
  }
  // After draining, the full budget must be available again.
  for (unsigned i = 0; i < fpga::kMaxOutstandingDescriptors; ++i)
    ASSERT_TRUE(q.h2c(*id, 64, [](Status) {}).ok()) << i;
  sim.run();
}

// --- CRUSH stability under growth ---------------------------------------------

class CrushGrowth : public ::testing::TestWithParam<crush::BucketAlg> {};

TEST_P(CrushGrowth, AddingAHostMovesBoundedFraction) {
  // Growing the cluster from 2 to 3 hosts should move roughly 1/3 of
  // placements (weight-proportional), never the majority.
  crush::ClusterSpec spec;
  spec.host_alg = GetParam();
  spec.root_alg = GetParam();
  auto small = crush::build_cluster(spec);
  crush::ClusterSpec bigger = spec;
  bigger.hosts = 3;
  auto big = crush::build_cluster(bigger);

  int moved = 0;
  constexpr int kPgs = 2000;
  for (std::uint32_t pg = 0; pg < kPgs; ++pg) {
    auto a = small.map.do_rule(small.replicated_rule, pg, 2);
    auto b = big.map.do_rule(big.replicated_rule, pg, 2);
    // Compare primaries only (replica sets naturally change when a host appears).
    if (!a.empty() && !b.empty() && a[0] != b[0]) ++moved;
  }
  const double frac = static_cast<double>(moved) / kPgs;
  // tree buckets reorganize more on growth than straw2/list (the classic
  // trade CRUSH documents); all must still keep the majority in place-ish.
  const double bound = GetParam() == crush::BucketAlg::tree ? 0.75 : 0.60;
  EXPECT_LT(frac, bound) << crush::bucket_alg_name(GetParam());
  EXPECT_GT(frac, 0.05) << "growth must move some data";
}

INSTANTIATE_TEST_SUITE_P(Algs, CrushGrowth,
                         ::testing::Values(crush::BucketAlg::straw2,
                                           crush::BucketAlg::tree,
                                           crush::BucketAlg::list),
                         [](const auto& info) {
                           return std::string(
                               crush::bucket_alg_name(info.param));
                         });

// --- Network byte conservation -------------------------------------------------

TEST(NetProperty, DeliveredPayloadEqualsSentPayload) {
  sim::Simulator sim;
  net::Network net(sim);
  std::uint64_t delivered = 0;
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(net.add_node(
        "n" + std::to_string(i),
        [&](const net::Message& m) { delivered += m.payload_bytes; }));
  }
  Rng rng(5);
  std::uint64_t sent = 0;
  for (int i = 0; i < 500; ++i) {
    const auto src = nodes[rng.below(nodes.size())];
    const auto dst = nodes[rng.below(nodes.size())];
    const std::uint64_t bytes = rng.below(256 * 1024);
    sent += bytes;
    net.send(net::Message{src, dst, bytes, 0, nullptr});
  }
  sim.run();
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(net.payload_bytes_sent(), sent);
}

// --- Reed-Solomon fuzz -----------------------------------------------------------

TEST(EcProperty, RandomProfilesRandomErasuresAlwaysDecode) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const unsigned k = 2 + static_cast<unsigned>(rng.below(9));   // 2..10
    const unsigned m = 1 + static_cast<unsigned>(rng.below(4));   // 1..4
    ec::ReedSolomon rs({k, m, rng.chance(0.5)
                               ? ec::GeneratorKind::vandermonde
                               : ec::GeneratorKind::cauchy});
    std::vector<std::uint8_t> object(1 + rng.below(20000));
    for (auto& b : object) b = static_cast<std::uint8_t>(rng.below(256));

    auto data = rs.split(object);
    auto coding = rs.encode(data);
    ASSERT_TRUE(coding.ok());
    std::vector<std::optional<ec::Chunk>> all;
    for (auto& c : data) all.emplace_back(std::move(c));
    for (auto& c : *coding) all.emplace_back(std::move(c));

    // Erase up to m random distinct chunks.
    std::set<std::size_t> erased;
    const unsigned erasures = static_cast<unsigned>(rng.below(m + 1));
    while (erased.size() < erasures)
      erased.insert(static_cast<std::size_t>(rng.below(k + m)));
    for (auto e : erased) all[e].reset();

    auto decoded = rs.decode(all);
    ASSERT_TRUE(decoded.ok()) << "k=" << k << " m=" << m;
    EXPECT_EQ(rs.assemble(*decoded, 0, object.size()), object)
        << "k=" << k << " m=" << m;
  }
}

// --- Histogram percentile monotonicity -----------------------------------------

TEST(HistogramProperty, PercentilesMonotoneUnderRandomData) {
  Rng rng(13);
  LatencyHistogram h;
  for (int i = 0; i < 20000; ++i)
    h.record(static_cast<Nanos>(rng.below(50'000'000)));
  Nanos prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const Nanos v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_LE(h.percentile(100.0), h.max());
  EXPECT_GE(h.percentile(0.0), 0);
}

}  // namespace
}  // namespace dk
