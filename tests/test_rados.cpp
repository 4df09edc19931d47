// Integration tests for the simulated RADOS cluster: object store, OSD
// protocol paths (replication primary-copy / client-fanout, EC primary /
// client-encode), degraded reads, placement behaviour, and the per-epoch
// placement cache.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "crush/hash.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"

namespace dk::rados {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(ObjectStore, WriteReadRoundTrip) {
  ObjectStore store;
  ObjectKey key{1, 42, -1};
  auto data = pattern(1000, 1);
  store.write(key, 0, data);
  EXPECT_EQ(store.read(key, 0, 1000), data);
  EXPECT_EQ(store.object_size(key), 1000u);
}

TEST(ObjectStore, SparseWriteZeroFills) {
  ObjectStore store;
  ObjectKey key{1, 1, -1};
  std::vector<std::uint8_t> d{0xAA, 0xBB};
  store.write(key, 100, d);
  auto out = store.read(key, 98, 6);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0, 0, 0xAA, 0xBB, 0, 0}));
}

TEST(ObjectStore, ReadPastEndZeroFills) {
  ObjectStore store;
  ObjectKey key{1, 2, -1};
  store.write(key, 0, std::vector<std::uint8_t>{1, 2, 3});
  auto out = store.read(key, 2, 4);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{3, 0, 0, 0}));
}

TEST(ObjectStore, ShardsAreDistinctObjects) {
  ObjectStore store;
  store.write(ObjectKey{1, 5, 0}, 0, std::vector<std::uint8_t>{1});
  store.write(ObjectKey{1, 5, 1}, 0, std::vector<std::uint8_t>{2});
  EXPECT_EQ(store.object_count(), 2u);
  EXPECT_EQ(store.read(ObjectKey{1, 5, 1}, 0, 1)[0], 2);
}

TEST(ObjectStore, RemoveAndAccounting) {
  ObjectStore store;
  ObjectKey key{1, 9, -1};
  store.write(key, 0, pattern(512, 3));
  EXPECT_TRUE(store.exists(key));
  EXPECT_EQ(store.bytes_stored(), 512u);
  store.remove(key);
  EXPECT_FALSE(store.exists(key));
  EXPECT_EQ(store.bytes_stored(), 0u);
}

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(sim_);
    client_ = std::make_unique<RadosClient>(*cluster_);
    repl_pool_ = cluster_->create_replicated_pool(2);
    ec_pool_ = cluster_->create_ec_pool(ec::Profile{4, 2});
  }

  // Synchronous helpers (drive the simulation until completion).
  Status write_sync(int pool, std::uint64_t oid, std::uint64_t off,
                    std::vector<std::uint8_t> data, WriteStrategy ws) {
    Status out = Status::Error(Errc::timed_out, "no completion");
    client_->write(pool, oid, off, std::move(data), ws,
                   [&](Status s) { out = s; });
    sim_.run();
    return out;
  }

  Result<std::vector<std::uint8_t>> read_sync(int pool, std::uint64_t oid,
                                              std::uint64_t off,
                                              std::uint64_t len,
                                              ReadStrategy rs) {
    Result<std::vector<std::uint8_t>> out =
        Status::Error(Errc::timed_out, "no completion");
    client_->read(pool, oid, off, len, rs,
                  [&](Result<std::vector<std::uint8_t>> r) { out = std::move(r); });
    sim_.run();
    return out;
  }

  sim::Simulator sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  int repl_pool_ = -1;
  int ec_pool_ = -1;
};

TEST_F(ClusterFixture, TopologyMatchesPaperTestbed) {
  EXPECT_EQ(cluster_->osd_count(), 32u);
  EXPECT_EQ(cluster_->network().node_count(), 3u);  // client + 2 servers
}

TEST_F(ClusterFixture, ReplicatedWriteReadPrimaryCopy) {
  auto data = pattern(4096, 7);
  ASSERT_TRUE(write_sync(repl_pool_, 1, 0, data, WriteStrategy::primary_copy).ok());
  auto r = read_sync(repl_pool_, 1, 0, 4096, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(ClusterFixture, ReplicatedWriteStoresAllReplicas) {
  auto data = pattern(4096, 8);
  ASSERT_TRUE(write_sync(repl_pool_, 2, 0, data, WriteStrategy::primary_copy).ok());
  auto acting = cluster_->acting_set(repl_pool_, 2);
  ASSERT_EQ(acting.size(), 2u);
  for (int osd : acting) {
    ObjectKey key{static_cast<std::uint32_t>(repl_pool_), 2, -1};
    EXPECT_EQ(cluster_->osd(osd).store().read(key, 0, 4096), data)
        << "osd " << osd;
  }
}

TEST_F(ClusterFixture, ClientFanoutWriteStoresAllReplicas) {
  auto data = pattern(8192, 9);
  ASSERT_TRUE(write_sync(repl_pool_, 3, 0, data, WriteStrategy::client_fanout).ok());
  for (int osd : cluster_->acting_set(repl_pool_, 3)) {
    ObjectKey key{static_cast<std::uint32_t>(repl_pool_), 3, -1};
    EXPECT_EQ(cluster_->osd(osd).store().read(key, 0, 8192), data);
  }
}

TEST_F(ClusterFixture, ClientFanoutIsFasterThanPrimaryCopy) {
  // The structural claim behind DeLiBA's replication offload: removing the
  // primary->replica hop shortens the critical path.
  auto data = pattern(4096, 10);
  const Nanos t0 = sim_.now();
  ASSERT_TRUE(write_sync(repl_pool_, 4, 0, data, WriteStrategy::primary_copy).ok());
  const Nanos primary_copy = sim_.now() - t0;
  const Nanos t1 = sim_.now();
  ASSERT_TRUE(write_sync(repl_pool_, 5, 0, data, WriteStrategy::client_fanout).ok());
  const Nanos fanout = sim_.now() - t1;
  EXPECT_LT(fanout, primary_copy);
}

TEST_F(ClusterFixture, EcClientEncodeWriteAndDirectRead) {
  auto data = pattern(4096, 11);
  ASSERT_TRUE(write_sync(ec_pool_, 1, 0, data, WriteStrategy::client_fanout).ok());
  auto r = read_sync(ec_pool_, 1, 0, 4096, ReadStrategy::direct_shards);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
  EXPECT_EQ(client_->ec_bytes_encoded(), 4096u);
}

TEST_F(ClusterFixture, EcPrimaryWriteAndPrimaryRead) {
  auto data = pattern(16384, 12);
  ASSERT_TRUE(write_sync(ec_pool_, 2, 0, data, WriteStrategy::primary_copy).ok());
  auto r = read_sync(ec_pool_, 2, 0, 16384, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, data);
}

TEST_F(ClusterFixture, EcPathsInteroperate) {
  // Data written via the primary path must be readable via direct shards
  // and vice versa (same on-disk shard layout).
  auto data = pattern(4096, 13);
  ASSERT_TRUE(write_sync(ec_pool_, 3, 0, data, WriteStrategy::primary_copy).ok());
  auto r1 = read_sync(ec_pool_, 3, 0, 4096, ReadStrategy::direct_shards);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, data);

  auto data2 = pattern(4096, 14);
  ASSERT_TRUE(write_sync(ec_pool_, 4, 0, data2, WriteStrategy::client_fanout).ok());
  auto r2 = read_sync(ec_pool_, 4, 0, 4096, ReadStrategy::primary);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, data2);
}

TEST_F(ClusterFixture, EcShardsLandOnSixDistinctOsds) {
  auto data = pattern(4096, 15);
  ASSERT_TRUE(write_sync(ec_pool_, 5, 0, data, WriteStrategy::client_fanout).ok());
  auto acting = cluster_->acting_set(ec_pool_, 5);
  ASSERT_EQ(acting.size(), 6u);
  for (unsigned s = 0; s < 6; ++s) {
    ObjectKey key{static_cast<std::uint32_t>(ec_pool_), 5,
                  static_cast<std::int32_t>(s)};
    EXPECT_TRUE(cluster_->osd(acting[s]).store().exists(key))
        << "shard " << s << " missing on osd " << acting[s];
  }
}

TEST_F(ClusterFixture, EcDegradedReadDecodesThroughParity) {
  auto data = pattern(4096, 16);
  ASSERT_TRUE(write_sync(ec_pool_, 6, 0, data, WriteStrategy::client_fanout).ok());
  auto acting = cluster_->acting_set(ec_pool_, 6);
  // Take down two data-shard OSDs (m == 2 tolerance).
  cluster_->set_osd_down(acting[0], true);
  cluster_->set_osd_down(acting[2], true);
  auto r = read_sync(ec_pool_, 6, 0, 4096, ReadStrategy::direct_shards);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data);
}

TEST_F(ClusterFixture, EcReadFailsBeyondTolerance) {
  auto data = pattern(4096, 17);
  ASSERT_TRUE(write_sync(ec_pool_, 7, 0, data, WriteStrategy::client_fanout).ok());
  auto acting = cluster_->acting_set(ec_pool_, 7);
  for (int i = 0; i < 3; ++i) cluster_->set_osd_down(acting[i], true);
  auto r = read_sync(ec_pool_, 7, 0, 4096, ReadStrategy::direct_shards);
  EXPECT_FALSE(r.ok());
}

TEST_F(ClusterFixture, EcRejectsUnalignedOffset) {
  EXPECT_FALSE(write_sync(ec_pool_, 8, 3, pattern(64, 18),
                          WriteStrategy::client_fanout)
                   .ok());
}

TEST_F(ClusterFixture, WritesAtOffsetsCompose) {
  auto a = pattern(4096, 19);
  auto b = pattern(4096, 20);
  ASSERT_TRUE(write_sync(repl_pool_, 9, 0, a, WriteStrategy::primary_copy).ok());
  ASSERT_TRUE(write_sync(repl_pool_, 9, 4096, b, WriteStrategy::primary_copy).ok());
  auto r = read_sync(repl_pool_, 9, 0, 8192, ReadStrategy::primary);
  ASSERT_TRUE(r.ok());
  std::vector<std::uint8_t> both = a;
  both.insert(both.end(), b.begin(), b.end());
  EXPECT_EQ(*r, both);
}

TEST_F(ClusterFixture, ManyObjectsSpreadAcrossOsds) {
  std::set<int> primaries;
  for (std::uint64_t oid = 0; oid < 200; ++oid)
    primaries.insert(cluster_->acting_set(repl_pool_, oid)[0]);
  EXPECT_GT(primaries.size(), 20u) << "primaries should spread over OSDs";
}

TEST_F(ClusterFixture, PlacementWorkAccumulates) {
  (void)write_sync(repl_pool_, 10, 0, pattern(512, 21),
                   WriteStrategy::primary_copy);
  EXPECT_GT(client_->placement_work().bucket_descents, 0u);
}

TEST_F(ClusterFixture, OutOsdRemapsPlacement) {
  auto before = cluster_->acting_set(repl_pool_, 11);
  cluster_->set_osd_out(before[0], true);
  auto after = cluster_->acting_set(repl_pool_, 11);
  EXPECT_EQ(std::count(after.begin(), after.end(), before[0]), 0);
}

TEST_F(ClusterFixture, LatencyIsMicrosecondScale) {
  // Sanity-check the timing model: a 4 kB replicated write over the fabric
  // should land in the tens-to-hundreds of microseconds, not ms or ns.
  const Nanos t0 = sim_.now();
  ASSERT_TRUE(write_sync(repl_pool_, 12, 0, pattern(4096, 22),
                         WriteStrategy::primary_copy)
                  .ok());
  const Nanos lat = sim_.now() - t0;
  EXPECT_GT(lat, us(20));
  EXPECT_LT(lat, us(500));
}

// --- placement cache -------------------------------------------------------

class PlacementCache : public ClusterFixture {
 protected:
  /// One object id per PG, so a sweep over them looks up every PG of a pool.
  std::vector<std::uint64_t> oid_per_pg() const {
    std::vector<std::uint64_t> oids(kPgNum);
    std::vector<bool> seen(kPgNum, false);
    unsigned found = 0;
    for (std::uint64_t oid = 0; found < kPgNum; ++oid) {
      const std::uint32_t pg = cluster_->pg_of(oid);
      if (seen[pg]) continue;
      seen[pg] = true;
      oids[pg] = oid;
      ++found;
    }
    return oids;
  }

  /// Placement computed from scratch on the cluster's current CRUSH map.
  std::vector<int> uncached(int pool, std::uint64_t oid,
                            crush::PlacementWork* work = nullptr) const {
    const PoolConfig& p = cluster_->pool(pool);
    const std::uint32_t x = crush::hash32_2(
        static_cast<std::uint32_t>(pool) + 1, cluster_->pg_of(oid));
    const auto items =
        cluster_->layout().map.do_rule(p.crush_rule, x, p.fanout(), work);
    return std::vector<int>(items.begin(), items.end());
  }
};

TEST_F(PlacementCache, EveryPgMatchesUncachedCrushAcrossMapChanges) {
  const std::vector<int> pools{repl_pool_, ec_pool_};
  const std::vector<std::vector<std::uint64_t>> oids(pools.size(),
                                                     oid_per_pg());
  auto expect_current = [&](int step) {
    for (std::size_t i = 0; i < pools.size(); ++i)
      for (std::uint64_t oid : oids[i])
        ASSERT_EQ(cluster_->acting_set(pools[i], oid),
                  uncached(pools[i], oid))
            << "pool " << pools[i] << " oid " << oid << " after step "
            << step;
  };
  expect_current(-1);

  Rng rng(20261017);
  std::set<int> crashed;
  for (int step = 0; step < 80; ++step) {
    const int osd = static_cast<int>(rng.below(cluster_->osd_count()));
    switch (rng.below(4)) {
      case 0: cluster_->set_osd_out(osd, true); break;
      case 1: cluster_->set_osd_out(osd, false); break;
      case 2:
        cluster_->crash_osd(osd);
        crashed.insert(osd);
        break;
      default:
        if (crashed.empty()) break;
        cluster_->restart_osd(*crashed.begin());
        crashed.erase(crashed.begin());
        break;
    }
    expect_current(step);
    if (HasFatalFailure()) return;
  }
}

TEST_F(PlacementCache, LookupsAddTheWorkOfDirectCrushCalls) {
  // Two passes over the same objects: the first fills each PG's slot, the
  // second hits it. Either way a lookup adds one do_rule's work.
  crush::PlacementWork cached, direct;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t oid = 0; oid < 300; ++oid) {
      for (int pool : {repl_pool_, ec_pool_}) {
        (void)cluster_->acting_set(pool, oid, &cached);
        (void)uncached(pool, oid, &direct);
      }
    }
  }
  EXPECT_GT(direct.bucket_descents, 0u);
  EXPECT_EQ(cached.bucket_descents, direct.bucket_descents);
  EXPECT_EQ(cached.item_comparisons, direct.item_comparisons);
  EXPECT_EQ(cached.retries, direct.retries);
}

TEST_F(PlacementCache, EpochCountsRealDownAndOutChanges) {
  EXPECT_EQ(cluster_->epoch(), 1u);
  cluster_->set_osd_out(3, false);
  cluster_->set_osd_down(3, false);
  EXPECT_EQ(cluster_->epoch(), 1u) << "no flag changed";
  cluster_->set_osd_out(3, true);
  EXPECT_EQ(cluster_->epoch(), 2u);
  cluster_->set_osd_out(3, true);
  EXPECT_EQ(cluster_->epoch(), 2u);
  cluster_->set_osd_down(3, true);
  EXPECT_EQ(cluster_->epoch(), 3u);
  cluster_->set_osd_down(3, true);
  EXPECT_EQ(cluster_->epoch(), 3u);

  cluster_->crash_osd(4);  // down
  EXPECT_EQ(cluster_->epoch(), 4u);
  cluster_->crash_osd(4);
  EXPECT_EQ(cluster_->epoch(), 4u);
  cluster_->restart_osd(4);  // up; it was never out
  EXPECT_EQ(cluster_->epoch(), 5u);

  cluster_->crash_osd(5);
  cluster_->set_osd_out(5, true);
  EXPECT_EQ(cluster_->epoch(), 7u);
  cluster_->restart_osd(5);  // up and in
  EXPECT_EQ(cluster_->epoch(), 9u);
}

}  // namespace
}  // namespace dk::rados
