// The block-granular object store against a dense reference, and the page
// sharing it gives the RADOS layer.
//
// DenseReferenceStore is the store this repository kept before objects
// became runs of shared 4 kB pages: one zero-filled vector per object that
// every write regrows, and one CRC vector beside it. It is the oracle: a
// seeded differential test drives both stores through the same writes
// (unaligned, sub-block, straddling blocks, past the end, with and without
// client CRCs), reads, verifies, checksum queries, removals, integrity
// toggles and raw byte flips, and every result must match. The sharing
// tests pin what the pages are for: one stored copy per replicated write,
// copy-on-write wherever one holder's bytes change, and recovery copies
// that carry the source's pages and CRCs. The page CRC tests drive every
// way a page's bytes change and require that the page then forgets the CRC
// it remembered.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <vector>

#include "common/crc32c.hpp"
#include "common/page.hpp"
#include "common/rng.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"
#include "rados/recovery.hpp"
#include "sim/faults.hpp"

namespace dk::rados {
namespace {

constexpr std::uint64_t kBlock = kChecksumBlockBytes;

/// The dense object store: the semantics the block store must keep.
class DenseReferenceStore {
 public:
  void write(const ObjectKey& key, std::uint64_t offset,
             std::span<const std::uint8_t> data,
             std::span<const std::uint32_t> checksums = {}) {
    if (data.empty()) return;
    if (!integrity_) {
      store_bytes(key, offset, data);
      return;
    }
    // Re-checksum from the write start or, when the write grows the object
    // past its end, from the first block zero-extension touches.
    const std::uint64_t old_size = object_size(key);
    const std::uint64_t old_blocks = (old_size + kBlock - 1) / kBlock;
    const std::uint64_t first = std::min(offset, old_size) / kBlock;
    // Blocks re-checksummed without being fully rewritten keep old bytes:
    // one failing verification now must keep failing.
    const std::uint64_t end = offset + data.size();
    std::vector<std::uint64_t> stale;
    for (std::uint64_t b = first; b < old_blocks && b * kBlock < end; ++b) {
      const std::uint64_t start = b * kBlock;
      const bool rewritten =
          start >= offset &&
          std::min(start + kBlock, std::max(old_size, end)) <= end;
      if (!rewritten && !verify(key, start, 1)) stale.push_back(b);
    }
    store_bytes(key, offset, data);
    refresh_checksums(key, first, offset, data.size(), checksums);
    std::vector<std::uint32_t>& cs = checksums_[key];
    for (const std::uint64_t b : stale) cs[b] = ~cs[b];
  }

  std::vector<std::uint8_t> read(const ObjectKey& key, std::uint64_t offset,
                                 std::uint64_t length) const {
    std::vector<std::uint8_t> out(length, 0);
    auto it = objects_.find(key);
    if (it == objects_.end()) return out;
    const auto& obj = it->second;
    if (offset >= obj.size()) return out;
    const std::uint64_t n =
        std::min<std::uint64_t>(length, obj.size() - offset);
    std::copy_n(obj.begin() + static_cast<std::ptrdiff_t>(offset), n,
                out.begin());
    return out;
  }

  bool exists(const ObjectKey& key) const { return objects_.count(key) > 0; }
  std::uint64_t object_size(const ObjectKey& key) const {
    auto it = objects_.find(key);
    return it == objects_.end() ? 0 : it->second.size();
  }
  void remove(const ObjectKey& key) {
    objects_.erase(key);
    checksums_.erase(key);
  }
  std::vector<ObjectKey> keys() const {
    std::vector<ObjectKey> out;
    for (const auto& [k, v] : objects_) out.push_back(k);
    return out;
  }
  std::uint64_t bytes_stored() const {
    std::uint64_t total = 0;
    for (const auto& [k, v] : objects_) total += v.size();
    return total;
  }

  void set_integrity(bool on) { integrity_ = on; }
  bool integrity() const { return integrity_; }

  bool verify(const ObjectKey& key, std::uint64_t offset,
              std::uint64_t length) const {
    if (!integrity_ || length == 0) return true;
    auto it = objects_.find(key);
    if (it == objects_.end()) return true;
    const auto& obj = it->second;
    if (offset >= obj.size()) return true;
    auto cit = checksums_.find(key);
    const std::span<const std::uint32_t> cs =
        cit == checksums_.end() ? std::span<const std::uint32_t>{}
                                : std::span<const std::uint32_t>(cit->second);
    const std::uint64_t check_end =
        std::min<std::uint64_t>(offset + length, obj.size());
    for (std::uint64_t b = offset / kBlock; b * kBlock < check_end; ++b) {
      const std::uint64_t block_start = b * kBlock;
      const std::uint64_t block_len =
          std::min<std::uint64_t>(kBlock, obj.size() - block_start);
      if (b >= cs.size()) return false;
      const std::uint32_t actual = crc32c(
          std::span<const std::uint8_t>(obj).subspan(block_start, block_len));
      if (actual != cs[b]) return false;
    }
    return true;
  }

  std::vector<std::uint32_t> checksums_for(const ObjectKey& key,
                                           std::uint64_t offset,
                                           std::uint64_t length) const {
    std::vector<std::uint32_t> out;
    if (!integrity_ || length == 0 || offset % kBlock != 0) return out;
    auto it = objects_.find(key);
    auto cit = checksums_.find(key);
    if (it == objects_.end() || cit == checksums_.end()) return out;
    const auto& obj = it->second;
    const auto& cs = cit->second;
    const std::uint64_t end = offset + length;
    const std::uint64_t covered =
        end == obj.size() ? end
                          : std::min<std::uint64_t>(end, obj.size()) / kBlock *
                                kBlock;
    for (std::uint64_t b = offset / kBlock;
         b * kBlock < covered && b < cs.size(); ++b)
      out.push_back(cs[b]);
    return out;
  }

  std::span<std::uint8_t> raw_bytes(const ObjectKey& key) {
    auto it = objects_.find(key);
    if (it == objects_.end()) return {};
    return std::span<std::uint8_t>(it->second);
  }

 private:
  void store_bytes(const ObjectKey& key, std::uint64_t offset,
                   std::span<const std::uint8_t> data) {
    auto& obj = objects_[key];
    const std::uint64_t end = offset + data.size();
    if (obj.size() < end) obj.resize(end, 0);
    std::copy(data.begin(), data.end(),
              obj.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  void refresh_checksums(const ObjectKey& key, std::uint64_t first,
                         std::uint64_t offset, std::uint64_t length,
                         std::span<const std::uint32_t> provided) {
    auto it = objects_.find(key);
    if (it == objects_.end() || it->second.empty()) return;
    const auto& obj = it->second;
    auto& cs = checksums_[key];
    cs.resize((obj.size() + kBlock - 1) / kBlock, 0);
    const std::uint64_t last = (offset + length - 1) / kBlock;
    for (std::uint64_t b = first; b <= last && b < cs.size(); ++b) {
      const std::uint64_t block_start = b * kBlock;
      const std::uint64_t block_len =
          std::min<std::uint64_t>(kBlock, obj.size() - block_start);
      // A client CRC is only usable for a block this write fully covers
      // (and a block-aligned write, so indices map).
      const bool aligned = offset % kBlock == 0;
      const std::uint64_t j = aligned && b >= offset / kBlock
                                  ? b - offset / kBlock
                                  : provided.size();
      const bool fully_covered = block_start >= offset &&
                                 block_start + block_len <= offset + length;
      if (fully_covered && j < provided.size()) {
        cs[b] = provided[j];
      } else {
        cs[b] = crc32c(std::span<const std::uint8_t>(obj).subspan(
            block_start, block_len));
      }
    }
  }

  bool integrity_ = false;
  std::map<ObjectKey, std::vector<std::uint8_t>> objects_;
  std::map<ObjectKey, std::vector<std::uint32_t>> checksums_;
};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return random_bytes(rng, n);
}

/// A write offset: block-aligned, unaligned, at the object's end, or past
/// it (leaving a hole).
/// The store's checksums_for, filled into a list that held nine stale
/// entries (spilled past the inline ones), which the fill must replace.
std::vector<std::uint32_t> stored_crcs(const ObjectStore& store,
                                       const ObjectKey& key,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  BlockCrcs out;
  for (std::uint32_t i = 0; i < 9; ++i) out.push_back(i);
  store.checksums_for(key, offset, length, out);
  return {out.begin(), out.end()};
}

std::uint64_t draw_offset(Rng& rng, std::uint64_t size) {
  switch (rng.below(4)) {
    case 0: return rng.below(16) * kBlock;
    case 1: return rng.below(16 * kBlock);
    case 2: return size;
    default: return size + 1 + rng.below(3 * kBlock);
  }
}

/// A write length: whole blocks, sub-block, or anything up to three blocks.
std::uint64_t draw_length(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return kBlock * (1 + rng.below(3));
    case 1: return 1 + rng.below(kBlock - 1);
    default: return 1 + rng.below(3 * kBlock);
  }
}

/// Client CRCs for a block-aligned write: none, exact, one wrong, or too
/// few.
std::vector<std::uint32_t> draw_checksums(Rng& rng, std::uint64_t offset,
                                          std::span<const std::uint8_t> data) {
  if (offset % kBlock != 0 || rng.below(4) == 0) return {};
  std::vector<std::uint32_t> sums = block_checksums(data);
  switch (rng.below(4)) {
    case 0: sums[rng.below(sums.size())] ^= 0x10; break;
    case 1: sums.resize(rng.below(sums.size())); break;
    default: break;
  }
  return sums;
}

void differential_run(std::uint64_t seed) {
  SCOPED_TRACE("object-store oracle seed=" + std::to_string(seed));
  Rng rng(seed);
  DenseReferenceStore ref;
  ObjectStore store;
  const bool armed = rng.below(3) != 0;
  ref.set_integrity(armed);
  store.set_integrity(armed);
  const std::array<ObjectKey, 3> keys = {
      ObjectKey{1, 1, -1}, ObjectKey{1, 2, -1}, ObjectKey{1, 1, 0}};
  // Reads taken along the way, with what they returned: stored pages
  // change only by copy-on-write, so each must still read the same later.
  std::vector<std::pair<Payload, std::vector<std::uint8_t>>> taken;

  for (int op = 0; op < 300; ++op) {
    SCOPED_TRACE("op=" + std::to_string(op));
    const ObjectKey& key = keys[rng.below(keys.size())];
    const std::uint64_t size = ref.object_size(key);
    const std::uint64_t at = rng.below(size + 2 * kBlock);
    const std::uint64_t span = 1 + rng.below(3 * kBlock);
    switch (rng.below(12)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        const std::uint64_t offset = draw_offset(rng, size);
        const auto data = random_bytes(rng, draw_length(rng));
        const auto sums = draw_checksums(rng, offset, data);
        ref.write(key, offset, data, sums);
        store.write(key, offset, data, sums);
        break;
      }
      case 4: {
        const auto want = ref.read(key, at, span);
        const Payload got = store.read(key, at, span);
        ASSERT_EQ(got, want) << "read " << at << "+" << span;
        if (rng.below(4) == 0) taken.emplace_back(got, want);
        break;
      }
      case 5:
        ASSERT_EQ(store.verify(key, at, span), ref.verify(key, at, span))
            << "verify " << at << "+" << span;
        break;
      case 6: {
        const std::uint64_t offset =
            rng.below(2) == 0 ? at / kBlock * kBlock : at;
        const std::uint64_t length =
            rng.below(2) == 0 ? size - std::min(size, offset) : span;
        ASSERT_EQ(stored_crcs(store, key, offset, length),
                  ref.checksums_for(key, offset, length))
            << "checksums_for " << offset << "+" << length;
        break;
      }
      case 7:
      case 8:
        // A byte flip behind the checksums' back, holes included.
        if (size > 0) {
          const std::uint64_t i = rng.below(size);
          const auto mask = static_cast<std::uint8_t>(1u << rng.below(8));
          ref.raw_bytes(key)[i] ^= mask;
          store.raw_bytes(key)[i] ^= mask;
        }
        break;
      case 9:
        if (rng.below(4) == 0) {
          ref.remove(key);
          store.remove(key);
        }
        break;
      case 10:
        if (rng.below(6) == 0) {
          ref.set_integrity(!ref.integrity());
          store.set_integrity(!store.integrity());
        }
        break;
      default:
        ASSERT_EQ(store.read(key, 0, size), ref.read(key, 0, size));
        ASSERT_EQ(store.verify(key, 0, size), ref.verify(key, 0, size));
        break;
    }
    ASSERT_EQ(store.object_size(key), ref.object_size(key));
    ASSERT_EQ(store.exists(key), ref.exists(key));
  }

  EXPECT_EQ(store.keys(), ref.keys());
  EXPECT_EQ(store.bytes_stored(), ref.bytes_stored());
  for (const ObjectKey& key : keys) {
    const std::uint64_t size = ref.object_size(key);
    EXPECT_EQ(store.read(key, 0, size + kBlock),
              ref.read(key, 0, size + kBlock));
    EXPECT_EQ(store.verify(key, 0, size), ref.verify(key, 0, size));
    EXPECT_EQ(stored_crcs(store, key, 0, size),
              ref.checksums_for(key, 0, size));
  }
  for (const auto& [pages, bytes] : taken)
    EXPECT_EQ(pages, bytes) << "a stored page changed under a reader";
}

TEST(ObjectStoreOracle, EveryResultMatchesTheDenseStore) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    differential_run(seed);
    if (HasFatalFailure()) return;
  }
}

// --- page sharing ------------------------------------------------------------

/// Bytes [0, length) of `key` as stored on `osd`.
std::vector<std::uint8_t> stored(Cluster& cluster, int osd,
                                 const ObjectKey& key, std::uint64_t length) {
  return cluster.osd(osd).store().read(key, 0, length).to_vector();
}

TEST(PageSharing, TheReplicasOfAFourKilobyteWriteHoldOnePage) {
  // One 4 kB write on a x2 pool lays its bytes into one page; the client's
  // two messages (DeLiBA-K fan-out) or the primary's sub-write (primary
  // copy), the journal records and both stores share it. A store or a
  // message that copied the payload again would hold a second page.
  for (const bool integrity : {false, true}) {
    for (const WriteStrategy strategy :
         {WriteStrategy::client_fanout, WriteStrategy::primary_copy}) {
      SCOPED_TRACE(std::string(integrity ? "integrity " : "") +
                   (strategy == WriteStrategy::client_fanout ? "fan-out"
                                                             : "primary copy"));
      sim::Simulator sim;
      ClusterConfig cc;
      cc.integrity = integrity;
      Cluster cluster(sim, cc);
      const int pool = cluster.create_replicated_pool(2);
      RadosClient client(cluster);
      client.set_integrity(integrity);
      const ObjectKey key{static_cast<std::uint32_t>(pool), 7, -1};
      const auto data = pattern(4096, 7);

      const std::uint64_t before = live_pages();
      Status status = Status::Error(Errc::timed_out);
      client.write(pool, key.oid, 0, data, strategy,
                   [&](Status s) { status = s; });
      sim.run();
      ASSERT_TRUE(status.ok());
      EXPECT_EQ(live_pages() - before, 1u);
      for (const int osd : cluster.acting_set(pool, key.oid)) {
        EXPECT_EQ(stored(cluster, osd, key, 4096), data) << "osd " << osd;
        EXPECT_TRUE(cluster.osd(osd).store().verify(key, 0, 4096));
      }
    }
  }
}

TEST(PageSharing, MediaCorruptionOfOneReplicaLeavesTheOtherIntact) {
  // The replicas share their pages, so the corruption must copy the block
  // it flips; the integrity read path then repairs the bad copy from the
  // good one.
  sim::Simulator sim;
  ClusterConfig cc;
  cc.integrity = true;
  Cluster cluster(sim, cc);
  const int pool = cluster.create_replicated_pool(2);
  RadosClient client(cluster);
  client.set_integrity(true);
  const ObjectKey key{static_cast<std::uint32_t>(pool), 3, -1};
  const auto data = pattern(8192, 3);
  client.write(pool, key.oid, 0, data, WriteStrategy::client_fanout,
               [](Status) {});
  sim.run();

  const auto acting = cluster.acting_set(pool, key.oid);
  sim::FaultPlan plan;
  plan.media.push_back({key.pool, key.oid, -1, acting[0], sim.now() + us(1),
                        8});
  sim::FaultInjector faults(sim, plan);
  cluster.arm_faults(faults);
  sim.run();
  ASSERT_EQ(faults.stats().media_corruptions, 1u);

  EXPECT_FALSE(cluster.osd(acting[0]).store().verify(key, 0, 8192));
  EXPECT_NE(stored(cluster, acting[0], key, 8192), data);
  EXPECT_TRUE(cluster.osd(acting[1]).store().verify(key, 0, 8192))
      << "corrupting one replica reached the other";
  EXPECT_EQ(stored(cluster, acting[1], key, 8192), data);

  Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
  client.read(pool, key.oid, 0, 8192, ReadStrategy::primary,
              [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
  sim.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data);
  EXPECT_EQ(client.read_repairs(), 1u);
  EXPECT_TRUE(cluster.osd(acting[0]).store().verify(key, 0, 8192))
      << "the read did not repair the corrupt copy";
  EXPECT_EQ(stored(cluster, acting[0], key, 8192), data);
}

TEST(PageSharing, AReadKeepsTheBytesItReadAcrossOverwritesAndCorruption) {
  ObjectStore store;
  store.set_integrity(true);
  const ObjectKey key{1, 1, -1};
  const auto data = pattern(3 * kBlock, 1);
  store.write(key, 0, data);
  const Payload whole = store.read(key, 0, data.size());
  const Payload middle = store.read(key, 100, 5000);

  store.write(key, 0, pattern(kBlock, 2));          // block 0: replaced
  store.write(key, kBlock + 10, pattern(20, 3));    // block 1: merged
  store.raw_bytes(key)[2 * kBlock + 7] ^= 0x80;     // block 2: corrupted

  EXPECT_EQ(whole, data);
  EXPECT_EQ(middle, std::span(data).subspan(100, 5000));
  EXPECT_FALSE(store.verify(key, 2 * kBlock, kBlock));
  EXPECT_TRUE(store.verify(key, 0, 2 * kBlock));
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PagePoisonDeathTest, AViewKeptPastItsPagesLastReferenceFaults) {
  // Under AddressSanitizer a page back in the pool is poisoned: reading it
  // through a view that outlived the payload reports instead of returning
  // whatever the page holds next.
  const auto data = pattern(kBlock, 9);
  EXPECT_DEATH(
      {
        const std::uint8_t* view = nullptr;
        {
          const Payload payload = Payload::copy_of(data, 0);
          view = payload.page(0).data();
        }
        volatile std::uint8_t byte = view[17];
        (void)byte;
      },
      "use-after-poison");
}
#endif

TEST(PageSharing, ARecoveryCopyLandsTheSourcesPagesAndCrcs) {
  // The copy's target adopts the source's pages, so it allocates none, and
  // the source's stored CRCs, so a block that rotted at the source lands
  // failing verify rather than under a fresh checksum.
  sim::Simulator sim;
  ClusterConfig cc;
  cc.integrity = true;
  Cluster cluster(sim, cc);
  const int pool = cluster.create_replicated_pool(2);
  RadosClient client(cluster);
  client.set_integrity(true);
  const ObjectKey key{static_cast<std::uint32_t>(pool), 5, -1};
  const auto data = pattern(2 * kBlock, 5);
  client.write(pool, key.oid, 0, data, WriteStrategy::client_fanout,
               [](Status) {});
  sim.run();

  const auto acting = cluster.acting_set(pool, key.oid);
  int dest = 0;
  while (std::find(acting.begin(), acting.end(), dest) != acting.end()) ++dest;
  cluster.osd(acting[0]).store().raw_bytes(key)[kBlock + 9] ^= 0x04;
  const std::uint64_t before = live_pages();

  RecoveryMove move;
  move.key = key;
  move.from_osd = acting[0];
  move.to_osd = dest;
  move.bytes = 2 * kBlock;
  RecoveryPlan plan;
  plan.pool = pool;
  plan.moves.push_back(move);
  RecoveryManager recovery(cluster);
  recovery.execute(std::move(plan), {}, [] {});
  sim.run();

  const ObjectStore& target = cluster.osd(dest).store();
  ASSERT_EQ(target.object_size(key), 2 * kBlock);
  EXPECT_EQ(live_pages(), before) << "the copy duplicated the source's pages";
  EXPECT_EQ(target.read(key, 0, 2 * kBlock),
            cluster.osd(acting[0]).store().read(key, 0, 2 * kBlock));
  EXPECT_TRUE(target.verify(key, 0, kBlock));
  EXPECT_FALSE(target.verify(key, kBlock, kBlock))
      << "the rotted block landed under a fresh CRC";
}

// --- remembered page CRCs -----------------------------------------------------

/// CRC-32C of a payload's bytes, computed afresh.
std::uint32_t fresh_crc(const Payload& payload) {
  return crc32c(payload.to_vector());
}

TEST(PageCrc, TheZeroPageHoldsTheCrcOfItsZeros) {
  const std::vector<std::uint8_t> zeros(kPageBytes);
  EXPECT_EQ(PageRef().crc(), crc32c(zeros));
  EXPECT_EQ(Payload::zeros(0, kPageBytes).crc32c(), crc32c(zeros));
}

TEST(PageCrc, APageComputesItsCrcOncePerContent) {
  const auto data = pattern(kBlock, 1);
  const Payload payload = Payload::copy_of(data, 0);
  const std::uint64_t before = crc32c_passes();
  const std::uint32_t crc = payload.page(0).crc();
  EXPECT_EQ(payload.page(0).crc(), crc);
  EXPECT_EQ(payload.crc32c(), crc);  // a journal record's
  EXPECT_EQ(payload.block_crc(0), crc);
  EXPECT_EQ(crc32c_passes() - before, 1u);
  EXPECT_EQ(crc, crc32c(data));
}

TEST(PageCrc, AMediaFlipForgetsTheCrcOfASharedOrAPrivatePage) {
  // raw_bytes copies a block two stores share before flipping it, and
  // flips a block one store holds alone in place; either way the flipped
  // page must not answer with the CRC of its old bytes.
  const ObjectKey key{1, 1, -1};
  const auto data = pattern(kBlock, 2);
  for (const bool shared : {true, false}) {
    SCOPED_TRACE(shared ? "shared page" : "private page");
    ObjectStore a;
    ObjectStore b;
    a.set_integrity(true);
    b.set_integrity(true);
    {
      const Payload payload = Payload::copy_of(data, 0);
      a.write(key, 0, payload);
      if (shared) b.write(key, 0, payload);
    }
    ASSERT_TRUE(a.verify(key, 0, kBlock));  // the page now knows its CRC
    a.raw_bytes(key)[100] ^= 0x10;
    EXPECT_FALSE(a.verify(key, 0, kBlock))
        << "the flip hid behind the page's remembered CRC";
    const Payload now = a.read(key, 0, kBlock);
    EXPECT_EQ(now.page(0).crc(), fresh_crc(now));
    if (shared) {
      EXPECT_TRUE(b.verify(key, 0, kBlock));
      EXPECT_EQ(b.read(key, 0, kBlock), data);
    }
  }
}

TEST(PageCrc, AC2hFlipForgetsTheCrc) {
  // The C2H corruption window flips a delivered payload's bytes through
  // writable_byte: in a copy when the stores share the page, in place when
  // the read holds it alone (an assembled EC read). The host re-verify
  // must see the flip either way.
  const auto data = pattern(kBlock, 3);
  Payload shared = Payload::copy_of(data, 0);
  const Payload store = shared;
  std::array<std::uint32_t, 1> cover{};
  block_checksums(shared, cover);
  shared.writable_byte(7) ^= 0x01;
  EXPECT_FALSE(block_checksums_match(shared, cover));
  EXPECT_EQ(shared.page(0).crc(), fresh_crc(shared));
  EXPECT_TRUE(block_checksums_match(store, cover));

  Payload alone = Payload::copy_of(data, 0);
  block_checksums(alone, cover);
  alone.writable_byte(7) ^= 0x01;
  EXPECT_FALSE(block_checksums_match(alone, cover));
  EXPECT_EQ(alone.page(0).crc(), fresh_crc(alone));
}

TEST(PageCrc, AnAppendThatMergesABlockForgetsItsCrc) {
  const auto data = pattern(kBlock, 4);
  Payload head = Payload::copy_of(std::span(data).first(100), 0);
  const std::uint32_t partial = head.page(0).crc();
  head.append(Payload::copy_of(std::span(data).subspan(100), 100));
  EXPECT_NE(head.page(0).crc(), partial);
  EXPECT_EQ(head.page(0).crc(), crc32c(data));
  EXPECT_EQ(head.crc32c(), crc32c(data));
}

TEST(PageCrc, APartialWriteMergedIntoAStoredBlockForgetsItsCrc) {
  // The store holds the block's page alone, so the merge writes in place;
  // the CRC the store then records must be that of the merged bytes.
  ObjectStore store;
  store.set_integrity(true);
  const ObjectKey key{1, 1, -1};
  store.write(key, 0, pattern(kBlock, 5));
  ASSERT_TRUE(store.verify(key, 0, kBlock));
  store.write(key, 10, pattern(20, 6));
  BlockCrcs sums;
  store.checksums_for(key, 0, kBlock, sums);
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0], fresh_crc(store.read(key, 0, kBlock)));
  EXPECT_TRUE(store.verify(key, 0, kBlock));
}

TEST(PageCrc, ARecycledPageForgetsItsCrc) {
  const std::uint8_t* first = nullptr;
  {
    const Payload gone = Payload::copy_of(pattern(kBlock, 7), 0);
    (void)gone.page(0).crc();
    first = gone.page(0).data();
  }
  const auto data = pattern(kBlock, 8);
  const Payload next = Payload::copy_of(data, 0);
  ASSERT_EQ(next.page(0).data(), first) << "the pool handed out another page";
  EXPECT_EQ(next.page(0).crc(), crc32c(data));
}

}  // namespace
}  // namespace dk::rados
