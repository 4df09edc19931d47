// Tests for recovery/backfill and scrub: placement-change detection, timed
// execution of the backfill plan, and consistency verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/crc32c.hpp"
#include "common/pipeline_validator.hpp"
#include "common/rng.hpp"
#include "rados/blockstore.hpp"
#include "rados/client.hpp"
#include "rados/recovery.hpp"

namespace dk::rados {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

class RecoveryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(sim_);
    client_ = std::make_unique<RadosClient>(*cluster_);
    pool_ = cluster_->create_replicated_pool(2);
    ec_pool_ = cluster_->create_ec_pool(ec::Profile{4, 2});
    // Populate the replicated pool with 30 objects.
    for (std::uint64_t oid = 0; oid < 30; ++oid) {
      client_->write(pool_, oid, 0, pattern(8192, oid),
                     WriteStrategy::primary_copy, [](Status) {});
    }
    // And the EC pool with 10.
    for (std::uint64_t oid = 0; oid < 10; ++oid) {
      client_->write(ec_pool_, oid, 0, pattern(8192, 100 + oid),
                     WriteStrategy::client_fanout, [](Status) {});
    }
    sim_.run();
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  int pool_ = -1;
  int ec_pool_ = -1;
};

TEST_F(RecoveryFixture, HealthyClusterNeedsNoRecovery) {
  RecoveryManager rec(*cluster_);
  auto plan = rec.plan(pool_);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_TRUE(plan.degraded.empty());
  auto report = rec.scrub(pool_);
  EXPECT_EQ(report.objects_checked, 30u);
  EXPECT_EQ(report.placements_ok, 30u);
  EXPECT_EQ(report.missing, 0u);
  EXPECT_EQ(report.inconsistent, 0u);
}

TEST_F(RecoveryFixture, OsdOutProducesBackfillPlan) {
  cluster_->set_osd_out(0, true);
  cluster_->set_osd_down(0, true);
  RecoveryManager rec(*cluster_);
  auto plan = rec.plan(pool_);
  // Some PGs remapped away from osd.0: their new acting member lacks data.
  EXPECT_GT(plan.moves.size(), 0u);
  for (const auto& m : plan.moves) {
    EXPECT_NE(m.from_osd, 0) << "down OSD must not be a source";
    EXPECT_GT(m.bytes, 0u);
  }
  EXPECT_GT(plan.total_bytes(), 0u);
}

TEST_F(RecoveryFixture, ExecuteRestoresFullRedundancy) {
  cluster_->set_osd_out(5, true);
  cluster_->set_osd_down(5, true);
  RecoveryManager rec(*cluster_);
  auto plan = rec.plan(pool_);
  ASSERT_GT(plan.moves.size(), 0u);

  bool finished = false;
  const Nanos t0 = sim_.now();
  rec.execute(plan, {}, [&] { finished = true; });
  sim_.run();
  ASSERT_TRUE(finished);
  EXPECT_GT(sim_.now(), t0) << "backfill must consume simulated time";
  EXPECT_EQ(rec.objects_recovered(), plan.moves.size());

  // After recovery, a fresh plan is empty and scrub only flags the stale
  // copies still sitting on the out OSD (misplaced, not missing).
  auto plan2 = rec.plan(pool_);
  EXPECT_TRUE(plan2.moves.empty());
  auto report = rec.scrub(pool_);
  EXPECT_EQ(report.missing, 0u);
  EXPECT_EQ(report.inconsistent, 0u);
}

TEST_F(RecoveryFixture, RecoveredDataIsReadable) {
  cluster_->set_osd_out(3, true);
  cluster_->set_osd_down(3, true);
  RecoveryManager rec(*cluster_);
  auto plan = rec.plan(pool_);
  rec.execute(plan, {.max_parallel = 8}, [] {});
  sim_.run();

  // Every object reads back correctly through the new acting sets.
  for (std::uint64_t oid = 0; oid < 30; ++oid) {
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    client_->read(pool_, oid, 0, 8192, ReadStrategy::primary,
                  [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
    sim_.run();
    ASSERT_TRUE(r.ok()) << "oid " << oid;
    EXPECT_EQ(*r, pattern(8192, oid)) << "oid " << oid;
  }
}

TEST_F(RecoveryFixture, EcShardRecovery) {
  cluster_->set_osd_out(7, true);
  cluster_->set_osd_down(7, true);
  RecoveryManager rec(*cluster_);
  auto plan = rec.plan(ec_pool_);
  rec.execute(plan, {}, [] {});
  sim_.run();
  auto report = rec.scrub(ec_pool_);
  EXPECT_EQ(report.missing, 0u);
  // Every EC object still reads (and decodes) correctly.
  for (std::uint64_t oid = 0; oid < 10; ++oid) {
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    client_->read(ec_pool_, oid, 0, 8192, ReadStrategy::direct_shards,
                  [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
    sim_.run();
    ASSERT_TRUE(r.ok()) << "oid " << oid;
    EXPECT_EQ(*r, pattern(8192, 100 + oid));
  }
}

TEST_F(RecoveryFixture, ScrubDetectsCorruption) {
  // Corrupt one replica behind the cluster's back.
  auto acting = cluster_->acting_set(pool_, 4);
  ObjectKey key{static_cast<std::uint32_t>(pool_), 4, -1};
  cluster_->osd(acting[1]).store().write(key, 0,
                                         std::vector<std::uint8_t>{0xDE, 0xAD});
  RecoveryManager rec(*cluster_);
  auto report = rec.scrub(pool_);
  EXPECT_EQ(report.inconsistent, 1u);
}

TEST_F(RecoveryFixture, EmptyPlanCompletesImmediately) {
  RecoveryManager rec(*cluster_);
  RecoveryPlan empty;
  bool finished = false;
  rec.execute(empty, {}, [&] { finished = true; });
  sim_.run();
  EXPECT_TRUE(finished);
}

TEST_F(RecoveryFixture, MoveLostToMidFlightCrashSettlesCancelled) {
  // A move whose target crashes while its push is in flight loses the
  // push with the process. It must still settle — as cancelled — or the
  // object's recovery write lock and the background accounting leak.
  cluster_->set_osd_out(5, true);
  cluster_->set_osd_down(5, true);
  PipelineValidator validator;
  RecoveryManager rec(*cluster_);
  rec.set_validator(&validator);
  const RecoveryPlan plan = rec.plan(pool_);
  ASSERT_GT(plan.moves.size(), 0u);
  bool finished = false;
  rec.execute(plan, {}, [&] { finished = true; });
  sim_.run_until(sim_.now() + us(20));  // first moves launched, not landed
  ASSERT_EQ(rec.objects_recovered(), 0u);
  cluster_->crash_osd(plan.moves[0].to_osd);
  sim_.run();

  ASSERT_TRUE(finished);
  EXPECT_GT(rec.moves_cancelled(), 0u);
  EXPECT_EQ(rec.objects_recovered() + rec.moves_cancelled(),
            plan.moves.size());
  EXPECT_EQ(validator.verify_quiescent(), 0u);
  for (const RecoveryMove& move : plan.moves)
    EXPECT_FALSE(cluster_->object_recovering(move.key.pool, move.key.oid))
        << "oid " << move.key.oid << " kept its recovery write lock";
}

TEST_F(RecoveryFixture, RebuildLegLostToSiblingCrashSettlesCancelled) {
  // The rebuild half of the gather: an EC rebuild whose sibling holder
  // crashes after launch, before its push leaves, loses that leg. The move
  // must settle as cancelled without persisting a shard, and release the
  // object's recovery write lock and its background accounting.
  cluster_->set_osd_out(7, true);
  cluster_->set_osd_down(7, true);
  PipelineValidator validator;
  RecoveryManager rec(*cluster_);
  rec.set_validator(&validator);
  const RecoveryPlan plan = rec.plan(ec_pool_);
  const auto rebuild =
      std::find_if(plan.moves.begin(), plan.moves.end(),
                   [](const RecoveryMove& m) { return m.reconstruct; });
  ASSERT_NE(rebuild, plan.moves.end());
  RecoveryPlan one;
  one.pool = ec_pool_;
  one.moves.push_back(*rebuild);
  const RecoveryMove& move = one.moves.front();
  ASSERT_FALSE(cluster_->osd(move.to_osd).store().exists(move.key));

  bool finished = false;
  rec.execute(one, {}, [&] { finished = true; });
  sim_.run_until(sim_.now() + us(5));  // launched; no sibling read served
  ASSERT_FALSE(finished);
  cluster_->crash_osd(move.sources.back().first);
  sim_.run();

  ASSERT_TRUE(finished);
  EXPECT_EQ(rec.moves_cancelled(), 1u);
  EXPECT_EQ(rec.objects_recovered(), 0u);
  EXPECT_FALSE(cluster_->osd(move.to_osd).store().exists(move.key))
      << "a rebuild that lost a leg persisted a shard";
  EXPECT_FALSE(cluster_->object_recovering(move.key.pool, move.key.oid))
      << "the object kept its recovery write lock";
  EXPECT_EQ(validator.verify_quiescent(), 0u);
}

// --- Integrity mode: checksum scrub, repair, read-repair --------------------

class IntegrityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cc;
    cc.integrity = true;
    cluster_ = std::make_unique<Cluster>(sim_, cc);
    client_ = std::make_unique<RadosClient>(*cluster_);
    client_->set_integrity(true);
    client_->set_validator(&validator_);
    pool_ = cluster_->create_replicated_pool(2);
    for (std::uint64_t oid = 0; oid < 8; ++oid) {
      client_->write(pool_, oid, 0, pattern(8192, oid),
                     WriteStrategy::primary_copy, [](Status) {});
    }
    sim_.run();
  }

  /// Flip one bit in the middle of `key`'s copy on `osd` through
  /// raw_bytes(), bypassing checksum maintenance — latent media corruption.
  void corrupt(int osd, const ObjectKey& key) {
    auto bytes = cluster_->osd(osd).store().raw_bytes(key);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x40;
  }

  Result<std::vector<std::uint8_t>> read_back(int pool, std::uint64_t oid,
                                              std::uint64_t length,
                                              ReadStrategy strategy) {
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    client_->read(pool, oid, 0, length, strategy,
                  [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
    sim_.run();
    return r;
  }

  sim::Simulator sim_;
  PipelineValidator validator_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  int pool_ = -1;
};

TEST_F(IntegrityFixture, ScrubArbitratesTwoReplicasByChecksum) {
  // With only two replicas a byte diff cannot say which copy is bad; the
  // checksum can. Corrupt the secondary and expect scrub to convict exactly
  // that copy, and repair() to rewrite it from the verified sibling.
  const auto acting = cluster_->acting_set(pool_, 4);
  const ObjectKey key{static_cast<std::uint32_t>(pool_), 4, -1};
  corrupt(acting[1], key);

  RecoveryManager rec(*cluster_);
  auto report = rec.scrub(pool_);
  EXPECT_EQ(report.inconsistent, 1u);
  EXPECT_EQ(report.checksum_failures, 1u);

  auto repaired = rec.repair(pool_);
  EXPECT_EQ(repaired.repaired, 1u);
  sim_.run();  // the repair lands as a recovery move in simulated time
  EXPECT_EQ(rec.scrub_repairs(), 1u);

  auto clean = rec.scrub(pool_);
  EXPECT_EQ(clean.inconsistent, 0u);
  EXPECT_EQ(clean.checksum_failures, 0u);
  EXPECT_TRUE(cluster_->osd(acting[1]).store().verify(key, 0, 8192));
  const auto r = read_back(pool_, 4, 8192, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, pattern(8192, 4));
}

TEST_F(IntegrityFixture, RepairRestoresEveryCorruptedLocation) {
  // Property: for every single-corruption location — each replica of a
  // replicated object, each data or parity shard of every EC profile —
  // repair() rewrites the bad copy and the object survives bit-exactly.
  for (std::size_t r = 0; r < 2; ++r) {
    const std::uint64_t oid = 6;
    const auto acting = cluster_->acting_set(pool_, oid);
    const ObjectKey key{static_cast<std::uint32_t>(pool_), oid, -1};
    corrupt(acting[r], key);

    RecoveryManager rec(*cluster_);
    EXPECT_EQ(rec.repair(pool_).repaired, 1u) << "replica " << r;
    sim_.run();
    EXPECT_EQ(rec.scrub(pool_).checksum_failures, 0u) << "replica " << r;
    const auto got = read_back(pool_, oid, 8192, ReadStrategy::primary);
    ASSERT_TRUE(got.ok()) << "replica " << r;
    EXPECT_EQ(*got, pattern(8192, oid)) << "replica " << r;
  }

  const ec::Profile profiles[] = {
      {2, 1}, {3, 2}, {4, 2}, {4, 2, ec::GeneratorKind::cauchy}};
  for (const auto& prof : profiles) {
    const std::string name =
        "ec" + std::to_string(prof.k) + std::to_string(prof.m);
    const int pool = cluster_->create_ec_pool(prof);
    const std::uint64_t oid = 1;
    const auto data = pattern(prof.k * 2048, 500 + prof.k);
    Status wres = Status::Error(Errc::timed_out);
    client_->write(pool, oid, 0, data, WriteStrategy::client_fanout,
                   [&](Status s) { wres = s; });
    sim_.run();
    ASSERT_TRUE(wres.ok()) << name;

    const auto acting = cluster_->acting_set(pool, oid);
    ASSERT_EQ(acting.size(), prof.total());
    for (unsigned s = 0; s < prof.total(); ++s) {
      const ObjectKey key{static_cast<std::uint32_t>(pool), oid,
                          static_cast<std::int32_t>(s)};
      corrupt(acting[s], key);

      RecoveryManager rec(*cluster_);
      EXPECT_EQ(rec.repair(pool).repaired, 1u) << name << " shard " << s;
      sim_.run();
      EXPECT_EQ(rec.scrub(pool).checksum_failures, 0u)
          << name << " shard " << s;
      const auto got =
          read_back(pool, oid, data.size(), ReadStrategy::direct_shards);
      ASSERT_TRUE(got.ok()) << name << " shard " << s;
      EXPECT_EQ(*got, data) << name << " shard " << s;
    }
  }
}

TEST_F(IntegrityFixture, ReadRepairHealsCorruptPrimary) {
  // Client reads route to the primary; its copy is corrupt. The read must
  // return the good replica's bytes AND write them back over the bad copy.
  const std::uint64_t oid = 2;
  const auto acting = cluster_->acting_set(pool_, oid);
  const ObjectKey key{static_cast<std::uint32_t>(pool_), oid, -1};
  corrupt(acting[0], key);

  const auto r = read_back(pool_, oid, 8192, ReadStrategy::primary);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, pattern(8192, oid));
  EXPECT_GE(client_->checksum_failures(), 1u);
  EXPECT_GE(client_->read_repairs(), 1u);

  sim_.run();  // drain the fire-and-forget repair write
  EXPECT_TRUE(cluster_->osd(acting[0]).store().verify(key, 0, 8192))
      << "read-repair must rewrite the corrupt primary copy";
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

TEST_F(IntegrityFixture, ReadWithAllReplicasCorruptedErrors) {
  const std::uint64_t oid = 3;
  const auto acting = cluster_->acting_set(pool_, oid);
  const ObjectKey key{static_cast<std::uint32_t>(pool_), oid, -1};
  for (const int osd : acting) corrupt(osd, key);

  const auto r = read_back(pool_, oid, 8192, ReadStrategy::primary);
  ASSERT_FALSE(r.ok()) << "no verified replica left: must error, not guess";
  EXPECT_EQ(r.status().code(), Errc::corrupted);
  EXPECT_EQ(validator_.verify_quiescent(), 0u)
      << "detected corruption must resolve (here: by surfacing the error)";
}

TEST_F(IntegrityFixture, EcReadRepairsCorruptShard) {
  const int pool = cluster_->create_ec_pool(ec::Profile{4, 2});
  const std::uint64_t oid = 9;
  const auto data = pattern(16384, 900);
  client_->write(pool, oid, 0, data, WriteStrategy::client_fanout,
                 [](Status) {});
  sim_.run();

  const auto acting = cluster_->acting_set(pool, oid);
  const ObjectKey key{static_cast<std::uint32_t>(pool), oid, 1};
  corrupt(acting[1], key);

  const auto r = read_back(pool, oid, data.size(), ReadStrategy::direct_shards);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data) << "decode from the k verified shards, not the bad one";
  EXPECT_GE(client_->read_repairs(), 1u);

  sim_.run();
  EXPECT_TRUE(cluster_->osd(acting[1]).store().verify(
      key, 0, cluster_->osd(acting[1]).store().object_size(key)))
      << "read-repair must rewrite the corrupt shard from the decode";
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

TEST_F(IntegrityFixture, EcPrimaryReadFallsBackOnCorruptPrimaryShard) {
  const int pool = cluster_->create_ec_pool(ec::Profile{4, 2});
  const std::uint64_t oid = 11;
  const auto data = pattern(16384, 1100);
  client_->write(pool, oid, 0, data, WriteStrategy::client_fanout,
                 [](Status) {});
  sim_.run();

  // Corrupt the primary's own shard: the primary-gather read reports
  // corruption and the client converts to a direct-shard gather + decode.
  const auto acting = cluster_->acting_set(pool, oid);
  const ObjectKey key{static_cast<std::uint32_t>(pool), oid, 0};
  corrupt(acting[0], key);

  const auto r = read_back(pool, oid, data.size(), ReadStrategy::primary);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data);
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

TEST_F(IntegrityFixture, BackfillFromSourceCorruptedAfterPlanningStaysDetectable) {
  // A copy persists its source's bytes as they are when its push has been
  // served. A source block that rots after the copy was granted must land
  // failing verify on the destination too, because its stored CRC travels
  // with the bytes; a fresh CRC would hide it from every later scrub. One
  // object of whole blocks, and one whose corrupt block is its partial
  // tail.
  const std::uint64_t partial_oid = 20;
  client_->write(pool_, partial_oid, 0, pattern(6000, partial_oid),
                 WriteStrategy::primary_copy, [](Status) {});
  sim_.run();

  const std::pair<std::uint64_t, std::uint64_t> cases[] = {
      {5, kChecksumBlockBytes + 7}, {partial_oid, 5000}};
  for (const auto& [oid, flip_at] : cases) {
    const auto acting = cluster_->acting_set(pool_, oid);
    const ObjectKey key{static_cast<std::uint32_t>(pool_), oid, -1};
    int dest = 0;
    while (std::find(acting.begin(), acting.end(), dest) != acting.end())
      ++dest;
    RecoveryMove move;
    move.key = key;
    move.from_osd = acting[0];
    move.to_osd = dest;
    move.bytes = cluster_->osd(acting[0]).store().object_size(key);
    RecoveryPlan plan;
    plan.pool = pool_;
    plan.moves.push_back(move);
    RecoveryManager rec(*cluster_);
    bool landed = false;
    rec.execute(plan, {}, [&] { landed = rec.objects_recovered() == 1; });
    cluster_->osd(acting[0]).store().raw_bytes(key)[flip_at] ^= 0x40;
    sim_.run();

    ASSERT_TRUE(landed) << "oid " << oid;
    const ObjectStore& copy = cluster_->osd(dest).store();
    const std::uint64_t size = copy.object_size(key);
    ASSERT_EQ(size, cluster_->osd(acting[0]).store().object_size(key));
    EXPECT_TRUE(copy.verify(key, 0, kChecksumBlockBytes))
        << "oid " << oid << ": the untouched first block keeps its CRC";
    EXPECT_FALSE(copy.verify(key, 0, size))
        << "oid " << oid << ": corrupt source bytes landed under a fresh CRC";
  }
}

TEST_F(IntegrityFixture, EcRebuildFromSiblingCorruptedAfterPlanningDoesNotLand) {
  // plan_move verifies a rebuild's k siblings when it plans the move. A
  // sibling that rots before the rebuild runs must fail the move; decoding
  // it would persist a wrong shard under fresh CRCs, which every later
  // verify and direct_shards read would then trust.
  const int pool = cluster_->create_ec_pool(ec::Profile{4, 2});
  for (std::uint64_t oid = 0; oid < 10; ++oid)
    client_->write(pool, oid, 0, pattern(8192, 100 + oid),
                   WriteStrategy::client_fanout, [](Status) {});
  sim_.run();
  cluster_->set_osd_out(7, true);
  cluster_->set_osd_down(7, true);
  RecoveryManager rec(*cluster_);
  const RecoveryPlan plan = rec.plan(pool);
  const auto rebuild = std::find_if(
      plan.moves.begin(), plan.moves.end(),
      [](const RecoveryMove& m) { return m.reconstruct; });
  ASSERT_NE(rebuild, plan.moves.end());
  const ObjectKey key = rebuild->key;
  const auto [source_osd, source_key] = rebuild->sources.front();
  const ObjectStore& lost = cluster_->osd(7).store();
  const auto original = lost.read(key, 0, lost.object_size(key));

  rec.execute(plan, {}, [] {});
  cluster_->osd(source_osd).store().raw_bytes(source_key)[0] ^= 0x01;
  sim_.run();

  const ObjectStore& rebuilt = cluster_->osd(rebuild->to_osd).store();
  const std::uint64_t size = rebuilt.object_size(key);
  EXPECT_FALSE(size > 0 && rebuilt.verify(key, 0, size) &&
               rebuilt.read(key, 0, size) != original)
      << "oid " << key.oid << " shard " << key.shard
      << ": a wrong rebuild landed under fresh CRCs";
  const auto r = read_back(pool, key.oid, 8192, ReadStrategy::direct_shards);
  if (r.ok()) {
    EXPECT_EQ(*r, pattern(8192, 100 + key.oid));
  }
  EXPECT_EQ(validator_.verify_quiescent(), 0u);
}

TEST(ObjectStoreIntegrity, WritesNeverLaunderCorruptBlocks) {
  // A write re-checksums the blocks it touches from the stored bytes. A
  // block it only partly overwrites — or the old tail block a write past
  // the end re-checksums — keeps old bytes; if those were corrupt the
  // block must keep failing verify instead of gaining a fresh CRC.
  ObjectStore st;
  st.set_integrity(true);
  const ObjectKey key{0, 1, -1};
  const auto base = pattern(8192, 1);
  st.write(key, 0, base, block_checksums(base));
  st.raw_bytes(key)[100] ^= 0x01;         // block 0
  st.raw_bytes(key)[4096 + 100] ^= 0x01;  // block 1, the tail

  st.write(key, 2048, pattern(1024, 2));
  EXPECT_FALSE(st.verify(key, 0, 4096)) << "partial overwrite laundered";
  st.write(key, 16384, pattern(4096, 3));
  EXPECT_FALSE(st.verify(key, 4096, 4096)) << "extending write laundered";
  EXPECT_TRUE(st.verify(key, 8192, 12288)) << "zero gap + new block";

  st.write(key, 0, pattern(8192, 4));  // full rewrite heals both
  EXPECT_TRUE(st.verify(key, 0, st.object_size(key)));
}

// --- Blockstore journal format: the crash-consistency contract --------------

TEST(BlockstoreJournal, TornEntryTruncatedAtEveryByteBoundary) {
  // A committed record A and an uncommitted record B. For every possible
  // tear position inside B's on-journal footprint, replay must keep A's
  // bytes and drop B's entirely; only the full-length keep (the append was
  // durable after all) lets B apply.
  const ObjectKey key{0, 1, -1};
  const auto a = pattern(512, 1);
  const auto b = pattern(300, 2);
  const std::uint64_t footprint = kJournalHeaderBytes + b.size();

  for (std::uint64_t keep = 0; keep <= footprint; ++keep) {
    ObjectStore store;
    BlockstoreConfig cfg;
    cfg.enabled = true;
    Blockstore bs(cfg, store);
    const std::uint64_t la = bs.append(key, 0, a);
    bs.commit(la, key, 0, a, {});
    const std::uint64_t lb = bs.append(key, 4096, b);
    ASSERT_EQ(bs.record_bytes(lb), footprint);

    bs.tear_tail(keep);
    bs.replay();

    EXPECT_EQ(store.read(key, 0, a.size()), a) << "keep=" << keep;
    if (keep < footprint) {
      EXPECT_EQ(store.object_size(key), a.size())
          << "keep=" << keep << ": torn bytes surfaced";
      EXPECT_EQ(bs.replays_discarded(), 1u) << "keep=" << keep;
    } else {
      EXPECT_EQ(store.read(key, 4096, b.size()), b) << "full-length keep";
      EXPECT_EQ(bs.replays_discarded(), 0u);
    }
  }
}

TEST(BlockstoreJournal, CrcRejectedEntryStopsReplay) {
  // Three uncommitted records (crash before any commit); the middle one has
  // a latent CRC error. Replay applies the first, then stops: the rejected
  // record AND the intact one after it are discarded — a bad record ends
  // the readable log, exactly like a torn tail.
  ObjectStore store;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  Blockstore bs(cfg, store);
  const ObjectKey key{0, 1, -1};
  const auto p1 = pattern(1000, 1);
  const auto p2 = pattern(1000, 2);
  const auto p3 = pattern(1000, 3);
  bs.append(key, 0, p1);
  const std::uint64_t l2 = bs.append(key, 8192, p2);
  bs.append(key, 16384, p3);
  bs.corrupt_crc(l2);

  EXPECT_EQ(bs.replay(), 3u) << "1 applied + 2 discarded";
  EXPECT_EQ(bs.replays_discarded(), 2u);
  EXPECT_EQ(store.read(key, 0, p1.size()), p1);
  EXPECT_EQ(store.object_size(key), p1.size())
      << "bytes past the rejected record must not surface";
}

TEST(BlockstoreJournal, CoalescedWriteDoesNotLaunderACorruptRecord) {
  // A record with a latent CRC error, then a contiguous sub-block write
  // that coalesces into it. The merged record must still fail its check:
  // replay discards it, and neither write's bytes surface.
  ObjectStore store;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  Blockstore bs(cfg, store);
  const ObjectKey key{0, 1, -1};
  const auto p1 = pattern(1000, 1);
  const auto p2 = pattern(1000, 2);
  const std::uint64_t lsn = bs.append(key, 0, p1);
  bs.corrupt_crc(lsn);
  ASSERT_EQ(bs.append(key, p1.size(), p2), lsn) << "the write must coalesce";
  ASSERT_EQ(bs.coalesced_writes(), 1u);

  EXPECT_EQ(bs.replay(), 1u);
  EXPECT_EQ(bs.replays_discarded(), 1u);
  EXPECT_EQ(store.object_size(key), 0u)
      << "the coalescing write re-derived the corrupt record's CRC";
}

TEST(BlockstoreJournal, AppendWrapsAroundAtTheCap) {
  // A tiny ring with the watermark policy disabled: making room is entirely
  // the append path's wraparound trim. Old applied records are evicted
  // head-first, occupancy never exceeds the cap, and every committed byte
  // stays readable from the data area.
  ObjectStore store;
  BlockstoreConfig cfg;
  cfg.enabled = true;
  cfg.journal_bytes = 8 * KiB;
  cfg.trim_watermark = 1.1;  // > 1: commit never trims, only append does
  Blockstore bs(cfg, store);
  const ObjectKey key{0, 1, -1};

  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto data = pattern(2048, 10 + i);
    last = bs.append(key, i * 8192, data);
    bs.commit(last, key, i * 8192, data, {});
    ASSERT_LE(bs.occupancy(), cfg.journal_bytes) << "write " << i;
  }
  EXPECT_GT(bs.trims(), 0u);
  EXPECT_LT(bs.record_count(), 8u);
  EXPECT_EQ(bs.record_bytes(1), 0u) << "oldest record must be trimmed";
  EXPECT_EQ(bs.record_bytes(last), kJournalHeaderBytes + 2048u)
      << "newest record must survive";
  EXPECT_GT(bs.take_compaction_debt(), 0u);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(store.read(key, i * 8192, 2048), pattern(2048, 10 + i))
        << "trimming the journal lost committed write " << i;
}

TEST(BlockstoreJournal, ReplayIsDeterministic) {
  // Two stores fed the identical op sequence — including coalesced
  // sub-block writes, a batch of uncommitted appends, and a torn tail —
  // replay to identical data-area contents.
  auto run = [](ObjectStore& st) {
    BlockstoreConfig cfg;
    cfg.enabled = true;
    Blockstore bs(cfg, st);
    const ObjectKey key{0, 1, -1};
    Rng rng(77);
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t size = 1 + rng.below(3000);
      const std::uint64_t offset = rng.below(32 * 1024);
      const auto data = pattern(size, 200 + static_cast<std::uint64_t>(i));
      const std::uint64_t lsn = bs.append(key, offset, data);
      if (i < 17) bs.commit(lsn, key, offset, data, {});
    }
    bs.tear_tail(10);  // crash truncates the tail mid-header
    bs.replay();
    return st.read(key, 0, st.object_size(key));
  };
  ObjectStore a, b;
  EXPECT_EQ(run(a), run(b));
  EXPECT_GT(a.object_size({0, 1, -1}), 0u);
}

}  // namespace
}  // namespace dk::rados
