// Tests for the time-charged background subsystem: deterministic scrub
// timelines, token-bucket budget accounting, paced recovery with the
// recovery_max_bps throttle, the station two-class scheme (charged
// background busy time, starvation-guard progress), scrub repairs run as
// recovery moves (a replicated copy, EC data and parity shards, and a
// client write racing a queued repair), the validator's background_leak
// rule, and the armed Framework's background.* metrics.
#include "rados/background.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "common/pipeline_validator.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "rados/client.hpp"
#include "sim/faults.hpp"
#include "workload/fio.hpp"

namespace dk::rados {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

/// Bare cluster with a replicated and an EC pool populated like the
/// recovery fixture, plus a background scheduler built per test.
class BackgroundFixture : public ::testing::Test {
 protected:
  void SetUp() override { build(ClusterConfig{}); }

  /// Fresh cluster under `cc` with both pools populated.
  void build(const ClusterConfig& cc) {
    client_.reset();
    cluster_ = std::make_unique<Cluster>(sim_, cc);
    client_ = std::make_unique<RadosClient>(*cluster_);
    client_->set_integrity(cc.integrity);
    pool_ = cluster_->create_replicated_pool(2);
    ec_pool_ = cluster_->create_ec_pool(ec::Profile{4, 2});
    for (std::uint64_t oid = 0; oid < 30; ++oid) {
      client_->write(pool_, oid, 0, pattern(8192, oid),
                     WriteStrategy::primary_copy, [](Status) {});
    }
    for (std::uint64_t oid = 0; oid < 10; ++oid) {
      client_->write(ec_pool_, oid, 0, pattern(8192, 100 + oid),
                     WriteStrategy::client_fanout, [](Status) {});
    }
    sim_.run();
  }

  BackgroundScheduler& arm(BackgroundConfig config) {
    config.enabled = true;
    background_ =
        std::make_unique<BackgroundScheduler>(*cluster_, config);
    cluster_->set_background(background_.get());
    background_->start();
    return *background_;
  }

  /// Flip 16 stored bytes of `key`'s copy on `osd` without refreshing its
  /// checksums: latent media corruption only a verify can see.
  void corrupt(int osd, const ObjectKey& key) {
    auto raw = cluster_->osd(osd).store().raw_bytes(key);
    ASSERT_GE(raw.size(), 116u);
    for (std::size_t i = 100; i < 116; ++i) raw[i] ^= 0xff;
  }

  /// Integrity-armed paced scrub with EC shard `shard` of one object
  /// corrupt: the convicted shard is rebuilt from k verified siblings and
  /// afterwards holds exactly its pre-corruption bytes.
  void expect_scrub_repairs_ec_shard(std::int32_t shard) {
    ClusterConfig cc;
    cc.integrity = true;
    build(cc);
    const std::uint64_t oid = 4;
    const int holder = cluster_->acting_set(ec_pool_, oid)
                           [static_cast<std::size_t>(shard)];
    const ObjectKey key{static_cast<std::uint32_t>(ec_pool_), oid, shard};
    const ObjectStore& store = cluster_->osd(holder).store();
    const auto original = store.read(key, 0, store.object_size(key));
    corrupt(holder, key);

    BackgroundConfig bc;
    bc.scrub_interval = ms(10);
    bc.horizon = ms(25);
    BackgroundScheduler& bg = arm(bc);
    sim_.run();

    EXPECT_GT(bg.scrub_errors(), 0u) << "scrub missed the corrupt shard";
    EXPECT_GT(bg.scrub_repairs(), 0u) << "the EC shard was never repaired";
    EXPECT_TRUE(store.verify(key, 0, store.object_size(key)))
        << "repair must leave the shard verifying clean";
    EXPECT_EQ(store.read(key, 0, store.object_size(key)), original);
  }

  Nanos total_bg_busy() const {
    Nanos sum = 0;
    for (std::size_t i = 0; i < cluster_->osd_count(); ++i)
      sum += cluster_->osd(static_cast<int>(i)).workers().bg_busy_time();
    return sum;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  std::unique_ptr<BackgroundScheduler> background_;
  int pool_ = -1;
  int ec_pool_ = -1;
};

// --- deep scrub -------------------------------------------------------------

/// Full scrub run in a fresh environment; returns the chunk timeline.
std::vector<ScrubChunkRecord> scrub_timeline_run(std::uint64_t seed) {
  sim::Simulator sim;
  ClusterConfig cc;
  cc.seed = seed;
  Cluster cluster(sim, cc);
  RadosClient client(cluster);
  const int pool = cluster.create_replicated_pool(2);
  for (std::uint64_t oid = 0; oid < 20; ++oid) {
    client.write(pool, oid, 0, pattern(8192, oid),
                 WriteStrategy::primary_copy, [](Status) {});
  }
  sim.run();

  BackgroundConfig bc;
  bc.enabled = true;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(40);
  BackgroundScheduler background(cluster, bc);
  cluster.set_background(&background);
  background.start();
  sim.run();
  return background.scrub_timeline();
}

TEST(ScrubScheduler, SameSeedYieldsIdenticalTimeline) {
  const auto a = scrub_timeline_run(7);
  const auto b = scrub_timeline_run(7);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "scrub schedule must replay bit-exactly per seed";
}

TEST_F(BackgroundFixture, ScrubChargesStationTimeInBackgroundClass) {
  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(25);
  BackgroundScheduler& bg = arm(bc);
  sim_.run();

  EXPECT_GT(bg.scrub_passes(), 0u);
  EXPECT_GT(bg.scrub_bytes(), 0u);
  // The acceptance pin: scrub reads occupied OSD op-thread stations in the
  // background service class for real simulated time.
  EXPECT_GT(total_bg_busy(), 0);
  EXPECT_EQ(bg.scrub_errors(), 0u) << "healthy stores must verify clean";
}

TEST_F(BackgroundFixture, ScrubBudgetPacesChunksAndCountsWaits) {
  // 1 MB/s budget: an 8 kB chunk earns the next grant ~8.2 ms later, far
  // beyond the OSD service time, so pacing (not the station) dominates.
  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(15);
  bc.scrub_bps = 1.0e6;
  BackgroundScheduler& bg = arm(bc);
  sim_.run();

  EXPECT_GT(bg.throttle_waits(), 0u)
      << "an over-subscribed budget must delay chunks";
  // Per OSD, consecutive scheduled chunks respect the bucket spacing.
  const auto& timeline = bg.scrub_timeline();
  ASSERT_FALSE(timeline.empty());
  std::map<int, const ScrubChunkRecord*> last;
  for (const auto& rec : timeline) {
    auto it = last.find(rec.osd);
    if (it != last.end()) {
      const Nanos min_gap = transfer_time(it->second->bytes, bc.scrub_bps);
      EXPECT_GE(rec.at - it->second->at, min_gap)
          << "chunk on osd." << rec.osd << " outran its token bucket";
    }
    last[rec.osd] = &rec;
  }
}

TEST_F(BackgroundFixture, ScrubRepairsCorruptChunkFromVerifiedReplica) {
  // Integrity-armed cluster so scrub can convict a chunk by checksum.
  ClusterConfig cc;
  cc.integrity = true;
  build(cc);

  // Flip stored bytes of one copy without refreshing its checksums.
  const auto acting = cluster_->acting_set(pool_, 3);
  ASSERT_GE(acting.size(), 2u);
  ObjectKey key{static_cast<std::uint32_t>(pool_), 3, -1};
  corrupt(acting[0], key);

  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(25);
  BackgroundScheduler& bg = arm(bc);
  sim_.run();

  EXPECT_GT(bg.scrub_errors(), 0u) << "scrub missed the corrupt chunk";
  EXPECT_GT(bg.scrub_repairs(), 0u);
  const auto& store = cluster_->osd(acting[0]).store();
  EXPECT_TRUE(store.verify(key, 0, store.object_size(key)))
      << "repair must leave the copy verifying clean";
}

TEST_F(BackgroundFixture, ScrubRepairsCorruptEcDataShard) {
  expect_scrub_repairs_ec_shard(1);
}

TEST_F(BackgroundFixture, ScrubRepairsCorruptEcParityShard) {
  expect_scrub_repairs_ec_shard(5);
}

TEST_F(BackgroundFixture, ClientWriteOvertakingQueuedRepairIsNotRolledBack) {
  // The convicted OSD's station is kept busy with client reads, so a
  // repair queued there in the background class waits while a client
  // write to the same object arrives. The repair must not land the bytes
  // it saw at conviction over that newer write: after drain every holder
  // returns the client's bytes.
  ClusterConfig cc;
  cc.integrity = true;
  build(cc);
  const std::uint64_t oid = 3;
  const auto acting = cluster_->acting_set(pool_, oid);
  const int convicted = acting[0];
  const ObjectKey key{static_cast<std::uint32_t>(pool_), oid, -1};

  // Load objects whose primary is the convicted OSD.
  std::vector<std::uint64_t> load;
  for (std::uint64_t o = 1000; load.size() < 6 && o < 3000; ++o) {
    if (cluster_->acting_set(pool_, o)[0] != convicted) continue;
    client_->write(pool_, o, 0, pattern(4096, o), WriteStrategy::primary_copy,
                   [](Status) {});
    load.push_back(o);
  }
  ASSERT_EQ(load.size(), 6u);
  sim_.run();
  corrupt(convicted, key);

  bool loading = true;
  std::function<void(std::size_t)> read_loop = [&](std::size_t i) {
    if (!loading) return;
    client_->read(pool_, load[i % load.size()], 0, 4096,
                  ReadStrategy::primary,
                  [&, i](Result<std::vector<std::uint8_t>>) {
                    read_loop(i + load.size());
                  });
  };
  for (std::size_t i = 0; i < load.size(); ++i) read_loop(i);

  BackgroundConfig bc;
  bc.scrub_interval = ms(10);
  bc.horizon = ms(25);
  BackgroundScheduler& bg = arm(bc);
  while (bg.scrub_errors() == 0 && sim_.now() < bc.horizon && sim_.step()) {
  }
  ASSERT_GT(bg.scrub_errors(), 0u) << "scrub never convicted the copy";

  // The client overwrites the object right at conviction time.
  const auto fresh = pattern(8192, 777);
  Status wres = Status::Error(Errc::timed_out);
  client_->write(pool_, oid, 0, fresh, WriteStrategy::primary_copy,
                 [&](Status st) { wres = st; });
  sim_.run_until(sim_.now() + ms(2));
  loading = false;
  sim_.run();

  ASSERT_TRUE(wres.ok()) << wres.to_string();
  EXPECT_GT(bg.scrub_repairs(), 0u);
  for (const int holder : acting) {
    const ObjectStore& store = cluster_->osd(holder).store();
    EXPECT_EQ(store.read(key, 0, fresh.size()), fresh)
        << "osd." << holder << " lost the client's write to the repair";
    EXPECT_TRUE(store.verify(key, 0, store.object_size(key)))
        << "osd." << holder;
  }
}

// --- paced recovery ---------------------------------------------------------

struct RecoveryOutcome {
  Nanos ttfr = 0;
  std::uint64_t moves = 0;
  std::uint64_t bytes = 0;
  std::uint64_t waits = 0;
};

/// Crash-free mark-out of one OSD under a paced scheduler; returns the
/// recovery episode's outcome once the cluster drained.
RecoveryOutcome paced_recovery_run(double recovery_max_bps, Nanos pace_cap) {
  sim::Simulator sim;
  Cluster cluster(sim);
  RadosClient client(cluster);
  const int pool = cluster.create_replicated_pool(2);
  const int ec_pool = cluster.create_ec_pool(ec::Profile{4, 2});
  for (std::uint64_t oid = 0; oid < 30; ++oid) {
    client.write(pool, oid, 0, pattern(8192, oid),
                 WriteStrategy::primary_copy, [](Status) {});
  }
  for (std::uint64_t oid = 0; oid < 10; ++oid) {
    client.write(ec_pool, oid, 0, pattern(8192, 100 + oid),
                 WriteStrategy::client_fanout, [](Status) {});
  }
  sim.run();

  BackgroundConfig bc;
  bc.enabled = true;
  bc.scrub_interval = 0;  // recovery-only: isolate the throttle
  bc.recovery_max_bps = recovery_max_bps;
  bc.pace_cap = pace_cap;
  BackgroundScheduler background(cluster, bc);
  cluster.set_background(&background);
  background.start();

  cluster.set_osd_down(5, true);
  cluster.set_osd_out(5, true);  // CRUSH reweight -> paced backfill
  sim.run();

  RecoveryOutcome out;
  out.ttfr = background.time_to_full_redundancy();
  out.moves = background.moves_completed();
  out.bytes = background.backfill_bytes();
  out.waits = background.throttle_waits();

  // Full redundancy restored: a fresh plan over both pools finds nothing.
  RecoveryManager check(cluster);
  EXPECT_TRUE(check.plan(pool).moves.empty());
  EXPECT_TRUE(check.plan(ec_pool).moves.empty());
  return out;
}

TEST(PacedRecovery, MarkOutTriggersPacedBackfillToFullRedundancy) {
  const RecoveryOutcome out = paced_recovery_run(200.0e6, ms(5));
  EXPECT_GT(out.moves, 0u);
  EXPECT_GT(out.bytes, 0u);
  EXPECT_GT(out.ttfr, 0);
}

TEST(PacedRecovery, TighterThrottleTradesTimeToFullRedundancy) {
  // Generous pace_cap so the token bucket (not the cap) sets the pace.
  const RecoveryOutcome slow = paced_recovery_run(10.0e6, ms(100));
  const RecoveryOutcome fast = paced_recovery_run(400.0e6, ms(100));
  ASSERT_GT(slow.moves, 0u);
  EXPECT_EQ(slow.moves, fast.moves) << "same placement delta both runs";
  EXPECT_GT(slow.waits, 0u);
  EXPECT_GT(slow.ttfr, fast.ttfr)
      << "a tighter recovery_max_bps must stretch time-to-full-redundancy";
}

TEST(PacedRecovery, PaceCapBoundsStarvationUnderTinyBudget) {
  // A budget this small (100 kB/s for ~8 kB moves) would park recovery for
  // seconds; the pace cap clips each grant wait, so backfill still lands.
  const RecoveryOutcome out = paced_recovery_run(1.0e5, ms(1));
  EXPECT_GT(out.moves, 0u);
  EXPECT_GT(out.waits, 0u);
  // Every move waited at most pace_cap for its grant; with the plans run
  // sequentially per pool the episode stays near moves * cap, not
  // bytes / bps (which would be ~100x longer).
  EXPECT_LT(out.ttfr, static_cast<Nanos>(out.moves + 16) * ms(1) + ms(50));
}

TEST_F(BackgroundFixture, RecoveryPushLostToFrameLossSettlesItsMove) {
  // Frame loss on server1's links eats every backfill push to or from it
  // for 5 ms after a mark-out. A lost push must settle its move as not
  // landed: otherwise the object's recovery lock never releases, its
  // client writes defer forever and the round never ends.
  PipelineValidator validator;
  cluster_->set_validator(&validator);
  client_->set_validator(&validator);
  const Nanos t0 = sim_.now();
  sim::FaultPlan plan;
  plan.links.push_back(sim::LinkFaultWindow{t0, t0 + ms(5), 1.0, 0, 2});
  sim::FaultInjector faults(sim_, plan);
  faults.set_validator(&validator);
  cluster_->arm_faults(faults);
  BackgroundConfig bc;
  bc.scrub_interval = 0;  // recovery only
  BackgroundScheduler& bg = arm(bc);
  bg.set_validator(&validator);

  cluster_->set_osd_out(cluster_->acting_set(pool_, 3)[0], true);
  sim_.run_until(t0 + ms(20));
  ASSERT_GT(faults.stats().frames_dropped, 0u) << "no push was lost";

  unsigned completed = 0;
  for (std::uint64_t oid = 0; oid < 30; ++oid) {
    client_->write(pool_, oid, 0, pattern(8192, 500 + oid),
                   WriteStrategy::primary_copy, [&](Status st) {
                     EXPECT_TRUE(st.ok()) << st.to_string();
                     ++completed;
                   });
  }
  sim_.run_until(t0 + ms(500));
  EXPECT_EQ(completed, 30u);
  EXPECT_FALSE(bg.recovery_active());
  EXPECT_EQ(faults.stats().crash_dropped_msgs, 0u)
      << "frame loss is not a crash drop";
  EXPECT_EQ(validator.verify_quiescent(), 0u);
}

// --- two-class station ------------------------------------------------------

TEST(TwoClassStation, BackgroundYieldsToClientsButIsNotStarved) {
  sim::Simulator sim;
  sim::FifoServer server(sim, 1, "station");
  server.set_starve_limit(2);

  std::vector<int> order;
  // One background job waiting behind a stream of client jobs: the guard
  // admits it after two consecutive client dispatches bypass it.
  server.submit(us(10), [&] { order.push_back(0); });
  server.submit_background(us(10), [&] { order.push_back(100); });
  for (int i = 1; i <= 4; ++i)
    server.submit(us(10), [&, i] { order.push_back(i); });
  sim.run();

  ASSERT_EQ(order.size(), 6u);
  // Clients 1 and 2 preempt the waiting background job; the starve limit
  // then admits it before clients 3 and 4.
  const std::vector<int> expected{0, 1, 2, 100, 3, 4};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(server.preemptions(), 2u);
  EXPECT_EQ(server.bg_busy_time(), us(10));
}

// --- validator: background_leak ---------------------------------------------

TEST(BackgroundLeak, UnresolvedBackgroundWorkFailsQuiescence) {
  // The deliberate violation must not abort a debug build.
  ScopedCheckFailureHandler quiet([](const CheckContext&) {});
  PipelineValidator validator;
  validator.on_background_scheduled();
  validator.on_background_scheduled();
  validator.on_background_resolved();
  EXPECT_GT(validator.verify_quiescent(), 0u);
  EXPECT_GE(validator.violations(PipelineValidator::Violation::background_leak),
            1u);
}

TEST(BackgroundLeak, BalancedWorkIsQuiescent) {
  PipelineValidator validator;
  validator.on_background_scheduled();
  validator.on_background_resolved();
  EXPECT_EQ(validator.verify_quiescent(), 0u);
  EXPECT_EQ(validator.violations(PipelineValidator::Violation::background_leak),
            0u);
}

// --- armed Framework: budget accounting under bursty client load ------------

TEST(FrameworkBackground, ArmedRunChargesAndReportsBackgroundActivity) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.image_size = 16 * MiB;
  cfg.background.enabled = true;
  cfg.background.scrub_interval = ms(5);
  cfg.background.horizon = ms(30);
  cfg.background.scrub_bps = 20.0e6;  // tight budget under client load

  sim::Simulator sim;
  core::Framework fw(sim, cfg);
  ASSERT_NE(fw.background(), nullptr);

  workload::FioEngine engine(fw);
  workload::FioJobSpec spec;
  spec.rw = workload::RwMode::rand_write;
  spec.bs = 4096;
  spec.iodepth = 32;
  spec.runtime = ms(10);
  spec.ramp = ms(1);
  spec.seed = 11;
  const workload::FioResult result = engine.run(spec);
  sim.run();

  EXPECT_GT(result.ops, 0u);
  // Background activity is real (charged) and reported via metrics.
  EXPECT_GT(fw.background()->scrub_bytes(), 0u);
  EXPECT_GT(fw.background()->throttle_waits(), 0u)
      << "bursty client load plus a tight budget must hit the throttle";
  const Counter* scrubbed = fw.metrics().find_counter("background.scrub_bytes");
  const Counter* waits =
      fw.metrics().find_counter("background.budget_throttle_waits");
  const Counter* preempt =
      fw.metrics().find_counter("background.client_preemptions");
  ASSERT_TRUE(scrubbed && waits && preempt);
  EXPECT_EQ(scrubbed->value(), fw.background()->scrub_bytes());
  EXPECT_GT(waits->value(), 0u);
  Nanos bg_busy = 0;
  for (std::size_t i = 0; i < fw.cluster().osd_count(); ++i)
    bg_busy += fw.cluster().osd(static_cast<int>(i)).workers().bg_busy_time();
  EXPECT_GT(bg_busy, 0);
  // Every scheduled chunk resolved: the background_leak rule holds.
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

}  // namespace
}  // namespace dk::rados
