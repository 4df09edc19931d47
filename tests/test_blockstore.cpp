// Crash-point property harness for the journaled blockstore.
//
// The core sweep drives a Blockstore + backing ObjectStore with a random
// mixed workload (sub-block coalescing writes, sequential extends, random
// overwrites, cap-pressure trims), crashes it at a randomized point, replays,
// and checks the two WAL guarantees against a byte-level shadow model:
//
//   1. no acknowledged write is lost (every committed byte reads back), and
//   2. no unacknowledged bytes surface (the torn record is discarded).
//
// The crash kind is drawn per seed: either the tail journal record tears at
// a random byte boundary, or it stays intact but uncommitted, so replay must
// apply it (half of those extend the applied tail record by coalescing, so
// only the new suffix is pending).
//
// Alongside: the journal-cap/trim-policy regression (sustained writes keep
// occupancy bounded), the journal_leak validator rule (balanced after
// replay, and deliberately tripped when a torn journal is abandoned), the
// blockstore.* metric surface, the fsync-barrier cost model, a
// cluster-level crash/restart integration test through Osd::apply_durable
// (blockstore-armed and integrity-only), and the guard that an
// integrity-only WAL charges no simulated time.
#include "rados/blockstore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/pipeline_validator.hpp"
#include "common/rng.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"
#include "rados/recovery.hpp"

namespace dk::rados {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

/// CI override: the chaos job exports DK_CHAOS_SEED (date-derived) so every
/// nightly run explores a fresh slice of the seed space; local runs default
/// to a fixed base so failures reproduce out of the box.
std::uint64_t base_seed() {
  if (const char* env = std::getenv("DK_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 1;
}

/// Byte-level shadow of the data area: exactly the acknowledged writes,
/// applied in order with sparse zero-fill (mirrors ObjectStore semantics).
struct ShadowStore {
  std::map<ObjectKey, std::vector<std::uint8_t>> objects;

  void write(const ObjectKey& key, std::uint64_t offset,
             const std::vector<std::uint8_t>& data) {
    auto& bytes = objects[key];
    if (bytes.size() < offset + data.size())
      bytes.resize(offset + data.size(), 0);
    std::copy(data.begin(), data.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  }
};

constexpr std::uint64_t kSeeds = 32;

// --- Crash-point property sweep ---------------------------------------------

TEST(BlockstoreCrashSweep, ReplayKeepsExactlyTheAcknowledgedPrefix) {
  const std::uint64_t base = base_seed();
  std::uint64_t coalesced = 0;
  std::uint64_t trims = 0;
  std::uint64_t compaction_debt = 0;
  std::uint64_t torn_crashes = 0;
  std::uint64_t intact_crashes = 0;

  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("blockstore seed=" + std::to_string(seed));
    Rng rng(seed);
    ObjectStore store;
    PipelineValidator validator;
    BlockstoreConfig cfg;
    cfg.enabled = true;
    // Small ring so the sweep's workload crosses the cap (wraparound trims)
    // and the watermark policy, not just the append path.
    cfg.journal_bytes = 48 * KiB;
    Blockstore bs(cfg, store);
    bs.set_validator(&validator);
    ShadowStore shadow;

    const std::uint64_t ops = 48 + rng.below(48);
    const std::uint64_t crash_at = rng.below(ops);
    const bool tear = rng.below(2) == 0;
    (tear ? torn_crashes : intact_crashes) += 1;
    std::map<ObjectKey, std::uint64_t> cursor;  // per-object append cursor
    ObjectKey last_key{};

    for (std::uint64_t op = 0; op <= crash_at; ++op) {
      ObjectKey key{1, 1 + rng.below(3), -1};
      // 60% sub-block writes (coalescing candidates), the rest multi-block;
      // half continue the object's append cursor (contiguous -> coalesce),
      // half land at a random offset.
      const bool sub_block = rng.below(100) < 60;
      std::uint64_t size = 1 + rng.below(sub_block ? 2048 : 12 * 1024);
      std::uint64_t offset =
          rng.below(100) < 50 ? cursor[key] : rng.below(64 * KiB);
      if (op == crash_at && !tear && op > 0 && rng.below(2) == 0) {
        // A sub-block write continuing the last (applied) one coalesces
        // onto the tail record.
        key = last_key;
        size = 1 + rng.below(2048);
        offset = cursor[key];
      }
      cursor[key] = offset + size;
      last_key = key;
      const auto data = pattern(size, seed * 1000 + op);
      const Payload pages = Payload::copy_of(data, offset);

      const std::uint64_t lsn = bs.append(key, offset, pages);
      if (op == crash_at && tear) {
        // Crash mid-append: the tail record's on-journal footprint is
        // truncated at a random byte boundary strictly inside it. This
        // write was never committed, never acknowledged.
        bs.tear_tail(rng.below(bs.record_bytes(lsn)));
        break;
      }
      // An intact record survives the crash via replay, committed or not.
      if (op != crash_at) bs.commit(lsn, key, offset, pages, {});
      shadow.write(key, offset, data);
    }
    coalesced += bs.coalesced_writes();
    trims += bs.trims();
    compaction_debt += bs.take_compaction_debt();

    bs.replay();

    // 2. No unacknowledged bytes surface: every stored object must match
    // the shadow byte-for-byte, at the shadow's exact size.
    for (const ObjectKey& key : store.keys()) {
      const auto hit = shadow.objects.find(key);
      ASSERT_NE(hit, shadow.objects.end())
          << "object with no acknowledged write surfaced";
      EXPECT_EQ(store.object_size(key), hit->second.size());
      EXPECT_EQ(store.read(key, 0, hit->second.size()), hit->second);
    }
    // 1. No acknowledged write lost.
    for (const auto& [key, bytes] : shadow.objects)
      EXPECT_TRUE(store.exists(key)) << "acknowledged object lost";

    // Only a torn record is discarded, and every journaled intent resolved.
    EXPECT_EQ(bs.replays_discarded(), tear ? 1u : 0u);
    EXPECT_EQ(bs.occupancy(), 0u);
    EXPECT_EQ(bs.record_count(), 0u);
    EXPECT_EQ(validator.verify_quiescent(), 0u);
    EXPECT_EQ(
        validator.violations(PipelineValidator::Violation::journal_leak), 0u);
    EXPECT_EQ(validator.journal_intents(),
              validator.journal_intents_resolved());
  }

  // The sweep's randomized crash points must have spanned the interesting
  // write paths — a quiet pass would mean the workload never left the
  // simple-append lane.
  EXPECT_GT(coalesced, 0u) << "no crash point landed near a coalesced write";
  EXPECT_GT(trims, 0u) << "the cap/watermark trim policy never ran";
  EXPECT_GT(compaction_debt, 0u) << "trims must accrue compaction debt";
  EXPECT_GT(torn_crashes, 0u) << "no seed crashed by tearing";
  EXPECT_GT(intact_crashes, 0u) << "no seed left its last record for replay";
}

TEST(BlockstoreCrashSweep, AbandonedTornJournalTripsJournalLeak) {
  // Negative control for the validator rule: a record that is neither
  // committed nor replayed is a journaled intent that never resolved. The
  // deliberate violation must not abort a debug build.
  ScopedCheckFailureHandler quiet([](const CheckContext&) {});
  ObjectStore store;
  PipelineValidator validator;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  Blockstore bs(cfg, store);
  bs.set_validator(&validator);

  const ObjectKey key{1, 7, -1};
  const std::uint64_t lsn =
      bs.append(key, 0, Payload::copy_of(pattern(4096, 9), 0));
  bs.tear_tail(bs.record_bytes(lsn) / 2);

  EXPECT_EQ(validator.verify_quiescent(), 1u);
  EXPECT_EQ(validator.violations(PipelineValidator::Violation::journal_leak),
            1u);
}

// --- Journal cap and trim policy --------------------------------------------

TEST(BlockstoreJournalCap, SustainedWritesKeepOccupancyBounded) {
  ObjectStore store;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  cfg.journal_bytes = 64 * KiB;
  Blockstore bs(cfg, store);
  Rng rng(7);
  const auto watermark = static_cast<std::uint64_t>(
      cfg.trim_watermark * static_cast<double>(cfg.journal_bytes));

  for (int i = 0; i < 4000; ++i) {
    const ObjectKey key{1, rng.below(4), -1};
    const std::uint64_t size = 512 + rng.below(7 * 1024);
    const std::uint64_t offset = rng.below(256 * KiB);
    const Payload data = Payload::copy_of(
        pattern(size, 100 + static_cast<std::uint64_t>(i)), offset);
    const std::uint64_t lsn = bs.append(key, offset, data);
    bs.commit(lsn, key, offset, data, {});
    ASSERT_LE(bs.occupancy(), cfg.journal_bytes)
        << "occupancy exceeded the hard cap at op " << i;
    ASSERT_LE(bs.occupancy(), watermark)
        << "watermark policy let occupancy park above the high-water mark";
  }
  EXPECT_GT(bs.trims(), 0u);
  EXPECT_GT(bs.take_compaction_debt(), 0u);
  EXPECT_EQ(bs.take_compaction_debt(), 0u) << "debt must drain on take";
}

// --- Metric surface ---------------------------------------------------------

TEST(BlockstoreMetrics, CountersAndGaugesTrackTheStore) {
  MetricsRegistry registry;
  ObjectStore store;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  Blockstore bs(cfg, store);
  bs.attach_metrics(registry, "blockstore");

  const ObjectKey key{1, 1, -1};
  const Payload first = Payload::copy_of(pattern(1024, 1), 0);
  std::uint64_t lsn = bs.append(key, 0, first);
  bs.commit(lsn, key, 0, first, {});
  // A contiguous sub-block write: coalesces.
  const Payload second = Payload::copy_of(pattern(1024, 2), 1024);
  lsn = bs.append(key, 1024, second);
  bs.commit(lsn, key, 1024, second, {});

  EXPECT_EQ(bs.coalesced_writes(), 1u);
  EXPECT_EQ(bs.logical_bytes(), 2048u);

  const Gauge* occupancy = registry.find_gauge("blockstore.journal.occupancy");
  ASSERT_NE(occupancy, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(occupancy->value()), bs.occupancy());
  const Counter* coalesced =
      registry.find_counter("blockstore.journal.coalesced_writes");
  ASSERT_NE(coalesced, nullptr);
  EXPECT_EQ(coalesced->value(), 1u);
  const Counter* logical = registry.find_counter("blockstore.logical_bytes");
  ASSERT_NE(logical, nullptr);
  EXPECT_EQ(logical->value(), 2048u);
  const Counter* physical = registry.find_counter("blockstore.physical_bytes");
  ASSERT_NE(physical, nullptr);
  EXPECT_GT(physical->value(), logical->value())
      << "journal headers + 4 kB block rounding must amplify writes";

  // Amplification: journal (header + payload, payload again on coalesce)
  // plus block-rounded data-area traffic over 2 kB logical.
  EXPECT_GT(bs.write_amplification(), 1.0);
  const Gauge* amp = registry.find_gauge("blockstore.write_amp_x1000");
  ASSERT_NE(amp, nullptr);
  EXPECT_GT(amp->value(), 1000);

  // Replay drains the journal; the occupancy gauge must follow.
  bs.replay();
  EXPECT_EQ(occupancy->value(), 0);
}

// --- Cost model -------------------------------------------------------------

TEST(BlockstoreCost, FsyncBarrierChargedEveryIntervalBytes) {
  ObjectStore store;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  cfg.fsync_interval_bytes = 8 * KiB;
  Blockstore bs(cfg, store);

  const Nanos base = bs.append_cost(1024);  // first append: no barrier yet
  EXPECT_GE(base, kJournalAppendFixed);
  int barriers = 0;
  for (int i = 0; i < 16; ++i) {
    const Nanos cost = bs.append_cost(1024);
    if (cost != base) {
      EXPECT_EQ(cost, base + kFsyncFixed)
          << "the only cost step allowed is one fsync barrier";
      ++barriers;
    }
  }
  // 17 x (48 + 1024) bytes of journal traffic crosses the 8 KiB interval
  // exactly twice.
  EXPECT_EQ(barriers, 2);
}

// --- Cluster-level crash/restart integration --------------------------------

class BlockstoreClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cc;
    cc.blockstore.enabled = true;
    build(cc);
  }

  /// Fresh cluster under `cc` holding 8 acknowledged 8 kB objects.
  void build(const ClusterConfig& cc) {
    client_.reset();
    cluster_ = std::make_unique<Cluster>(sim_, cc);
    cluster_->set_validator(&validator_);
    client_ = std::make_unique<RadosClient>(*cluster_);
    client_->set_integrity(cc.integrity);
    pool_ = cluster_->create_replicated_pool(2);
    for (std::uint64_t oid = 0; oid < 8; ++oid) {
      client_->write(pool_, oid, 0, pattern(8192, oid),
                     WriteStrategy::primary_copy, [](Status) {});
    }
    sim_.run();
  }

  sim::Simulator sim_;
  PipelineValidator validator_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  int pool_ = -1;
};

TEST_F(BlockstoreClusterFixture, TornCrashRestartKeepsAcknowledgedData) {
  // Two armings of the same WAL: the blockstore (charged) and integrity
  // alone (uncharged). Both must keep acknowledged data across a torn
  // crash, never surface torn bytes, and leave a copy that verifies.
  auto torn_crash_restart = [&](const char* arming) {
    SCOPED_TRACE(arming);
    const std::uint64_t oid = 5;
    const auto acting = cluster_->acting_set(pool_, oid);
    Osd& osd = cluster_->osd(acting[0]);
    ASSERT_NE(osd.blockstore(), nullptr) << "cluster config must arm the WAL";
    const ObjectKey key{static_cast<std::uint32_t>(pool_), oid, -1};

    // An acknowledged overwrite lands through the journal.
    const auto acked = pattern(4096, 5000);
    osd.apply_durable(key, 0, Payload::copy_of(acked, 0), {});
    EXPECT_EQ(osd.store().read(key, 0, acked.size()), acked);

    // Crash; the write in flight at crash time tears the tail record, so
    // its bytes never reach the data area and it is never acknowledged.
    cluster_->crash_osd(acting[0]);
    osd.arm_torn_write();
    const auto unacked = pattern(4096, 6000);
    osd.apply_durable(key, 0, Payload::copy_of(unacked, 0), {});
    EXPECT_EQ(osd.store().read(key, 0, acked.size()), acked)
        << "WAL discipline: a torn append must not touch the data area";

    cluster_->restart_osd(acting[0]);
    EXPECT_GE(cluster_->torn_writes_replayed(), 1u);
    EXPECT_EQ(osd.blockstore()->record_count(), 0u)
        << "replay must drain the journal";
    EXPECT_GE(osd.blockstore()->replays_discarded(), 1u);
    EXPECT_EQ(osd.store().read(key, 0, acked.size()), acked)
        << "acknowledged bytes lost across crash/restart";
    EXPECT_TRUE(osd.store().verify(key, 0, osd.store().object_size(key)))
        << "the surviving copy must verify against its checksums";

    // Reads through the client still see consistent replicas.
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    client_->read(pool_, oid, 0, acked.size(), ReadStrategy::primary,
                  [&](Result<std::vector<std::uint8_t>> x) {
                    r = std::move(x);
                  });
    sim_.run();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(*r, acked);
    EXPECT_EQ(validator_.verify_quiescent(), 0u);
  };

  torn_crash_restart("blockstore armed");
  ClusterConfig integrity_only;
  integrity_only.integrity = true;
  build(integrity_only);
  torn_crash_restart("integrity only");
}

TEST(IntegrityWal, ArmingChargesNoSimulatedTime) {
  // Integrity alone arms the WAL under every OSD, but only
  // blockstore.enabled charges its time: the same fault-free write
  // sequence drains at the same simulated instant with integrity on and
  // off, while a charged blockstore visibly moves it.
  auto drain_time = [](const ClusterConfig& cc) {
    sim::Simulator sim;
    Cluster cluster(sim, cc);
    EXPECT_EQ(cluster.osd(0).blockstore() != nullptr,
              cc.integrity || cc.blockstore.enabled);
    RadosClient client(cluster);
    client.set_integrity(cc.integrity);
    const int pool = cluster.create_replicated_pool(2);
    for (std::uint64_t i = 0; i < 64; ++i) {
      client.write(pool, i % 8, (i / 8) * 4096, pattern(4096, i),
                   WriteStrategy::primary_copy, [](Status s) {
                     EXPECT_TRUE(s.ok()) << s.to_string();
                   });
    }
    sim.run();
    return sim.now();
  };
  ClusterConfig off;
  ClusterConfig integrity;
  integrity.integrity = true;
  ClusterConfig charged;
  charged.blockstore.enabled = true;
  const Nanos baseline = drain_time(off);
  EXPECT_EQ(drain_time(integrity), baseline);
  EXPECT_GT(drain_time(charged), baseline);
}

TEST_F(BlockstoreClusterFixture, BackfillAndRepairWritesAreJournaled) {
  // Recovery writes route through the OSD's WAL choke point, so they land
  // in the journal like client writes: after a backfill the target's blockstore
  // has seen traffic and its intents are balanced.
  const std::uint64_t before = validator_.journal_intents();
  const auto acting = cluster_->acting_set(pool_, 2);
  const ObjectKey key{static_cast<std::uint32_t>(pool_), 2, -1};

  // Pick an OSD that does not hold the object and backfill to it.
  int target = -1;
  for (std::size_t i = 0; i < cluster_->osd_count(); ++i) {
    const int id = static_cast<int>(i);
    if (std::find(acting.begin(), acting.end(), id) == acting.end()) {
      target = id;
      break;
    }
  }
  ASSERT_GE(target, 0);
  RecoveryMove move;
  move.key = key;
  move.from_osd = acting[0];
  move.to_osd = target;
  move.bytes = cluster_->osd(acting[0]).store().object_size(key);
  RecoveryPlan plan;
  plan.pool = pool_;
  plan.moves.push_back(move);
  RecoveryManager rec(*cluster_);
  bool done = false;
  rec.execute(plan, {}, [&] { done = rec.objects_recovered() == 1; });
  sim_.run();
  ASSERT_TRUE(done);

  EXPECT_GT(validator_.journal_intents(), before)
      << "the backfill write bypassed the journal";
  EXPECT_EQ(validator_.journal_intents(),
            validator_.journal_intents_resolved());
  EXPECT_EQ(cluster_->osd(target).store().read(key, 0, 8192),
            pattern(8192, 2));
}

}  // namespace
}  // namespace dk::rados
