// Allocation budget of the per-I/O path. A closed loop of 4 kB
// Framework::read/write calls on D3 replicated x2 (with `integrity` armed or
// not), or of 128 kB writes on D3 EC 4+2, may make only a fixed number of
// heap allocations per I/O, counted after a warm-up (so the recycled slots,
// pools and free lists have reached their peak) and with write payloads
// built outside the counted region. The journal's live heap is bounded the
// same way: bytes an applied record still holds. The same loops pin the
// CRC-32C passes an armed 4 kB I/O makes (dk::crc32c_passes()), on D3 x2
// and on perfbench's durable stack. This binary replaces the global
// operator new with a thread-local counter and live-byte tally, so it is a
// test program of its own.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/crc32c.hpp"
#include "core/framework.hpp"
#include "rados/blockstore.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;
// Usable bytes of every live operator-new block.
thread_local std::int64_t t_live_bytes = 0;

std::int64_t usable(void* p) {
  return static_cast<std::int64_t>(malloc_usable_size(p));
}

}  // namespace

// The replacement pairs malloc with free by design.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    t_live_bytes += usable(p);
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  t_live_bytes -= usable(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop

namespace dk::core {
namespace {

constexpr std::uint64_t kImageBytes = 16 * MiB;
constexpr unsigned kIodepth = 32;

/// Keeps kIodepth I/Os of one size in flight; each completion issues the
/// next, on a fixed scatter of block offsets.
class ClosedLoop {
 public:
  ClosedLoop(Framework& fw, std::uint64_t block, std::size_t ops, bool writes)
      : fw_(fw), block_(block), ops_(ops), writes_(writes) {
    if (writes_)
      for (std::size_t i = 0; i < ops_; ++i)
        payloads_.emplace_back(block_, static_cast<std::uint8_t>(i));
  }

  /// Runs the loop to completion; returns the heap allocations it made.
  std::uint64_t run() {
    t_allocations = 0;
    const std::uint64_t passes = crc32c_passes();
    t_counting = true;
    for (unsigned d = 0; d < kIodepth; ++d) issue();
    fw_.simulator().run();
    t_counting = false;
    crc_passes_ = crc32c_passes() - passes;
    return t_allocations;
  }

  std::size_t ok() const { return ok_; }
  /// CRC-32C passes the last run() made.
  std::uint64_t crc_passes() const { return crc_passes_; }

 private:
  void issue() {
    if (next_ == ops_) return;
    const std::size_t i = next_++;
    const std::uint64_t offset =
        i * 2654435761u % (kImageBytes / block_) * block_;
    const auto expected = static_cast<std::int32_t>(block_);
    if (writes_) {
      fw_.write(0, offset, std::move(payloads_[i]),
                [this, expected](std::int32_t res) {
                  ok_ += res == expected;
                  issue();
                });
    } else {
      fw_.read(0, offset, block_, [this](Result<Payload> r) {
        ok_ += r.ok() && r->size() == block_;
        issue();
      });
    }
  }

  Framework& fw_;
  std::uint64_t block_;
  std::size_t ops_;
  bool writes_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::size_t next_ = 0;
  std::size_t ok_ = 0;
  std::uint64_t crc_passes_ = 0;
};

/// D3 (DeLiBA-K), x2 replicated or EC 4+2 with client fan-out encode.
FrameworkConfig d3(PoolMode pool, bool integrity = false) {
  FrameworkConfig cfg;
  cfg.variant = VariantKind::delibak;
  cfg.pool_mode = pool;
  cfg.replica_size = 2;
  cfg.ec_profile = {4, 2, ec::GeneratorKind::vandermonde};
  cfg.integrity = integrity;
  return cfg;
}

/// perfbench's durable stack: D2-SW x2 with `integrity` and `blockstore`.
FrameworkConfig durable() {
  FrameworkConfig cfg;
  cfg.variant = VariantKind::sw_ceph_d2;
  cfg.pool_mode = PoolMode::replicated;
  cfg.replica_size = 2;
  cfg.integrity = true;
  cfg.blockstore.enabled = true;
  return cfg;
}

class AllocBudget : public ::testing::Test {
 protected:
  /// A stack of `cfg` whose loops issue `ops` I/Os of `block` bytes.
  /// Warm-up: a write and a read loop grow every object to its final size
  /// and bring every slot, pool and free list to its peak.
  void build(FrameworkConfig cfg, std::uint64_t block, std::size_t ops) {
    cfg.image_size = kImageBytes;
    fw_ = std::make_unique<Framework>(sim_, cfg);
    block_ = block;
    ops_ = ops;
    ClosedLoop(*fw_, block_, ops_, true).run();
    ClosedLoop(*fw_, block_, ops_, false).run();
  }

  /// Heap allocations and CRC-32C passes per I/O of one more loop.
  struct PerIo {
    double allocations = 0;
    double crc_passes = 0;
  };
  PerIo per_io(bool writes) {
    ClosedLoop loop(*fw_, block_, ops_, writes);
    const std::uint64_t allocs = loop.run();
    EXPECT_EQ(loop.ok(), ops_);
    EXPECT_EQ(fw_->validator().verify_quiescent(), 0u);
    const auto ops = static_cast<double>(ops_);
    return {static_cast<double>(allocs) / ops,
            static_cast<double>(loop.crc_passes()) / ops};
  }

  sim::Simulator sim_;
  std::unique_ptr<Framework> fw_;
  std::uint64_t block_ = 0;
  std::size_t ops_ = 0;
};

TEST_F(AllocBudget, FourKilobyteReadStaysAtItsCount) {
  // 0.875 (2.875 while the framework allocated a destination buffer and
  // the client copied the reply's pages into a vector for it; 21.8
  // before): the callback gets the store's pages, so what remains is
  // amortized growth of the FIFO stations' queues.
  build(d3(PoolMode::replicated), 4 * KiB, 4000);
  EXPECT_LE(per_io(/*writes=*/false).allocations, 0.88);
}

TEST_F(AllocBudget, FourKilobyteWriteStaysAtItsCount) {
  // 1.001 (3.0005 while RBD copied the payload into a RADOS vector and an
  // extra replica's message took a wire copy, 4.0005 while every replica
  // did; 25 before the path became allocation-free): the payload is laid
  // into recycled pages that every message and store shares, so what
  // remains is amortized growth of the FIFO stations' queues.
  build(d3(PoolMode::replicated), 4 * KiB, 4000);
  EXPECT_LE(per_io(/*writes=*/true).allocations, 1.01);
}

TEST_F(AllocBudget, IntegrityArmedFourKilobyteReadStaysAtItsCount) {
  // 0.875, the unarmed count (3.875 while the reply's checksums were a
  // vector and the read allocated the unarmed read's two buffers; 8.875
  // while the C2H cover and the host re-verify each built a checksum
  // vector, 6.875 while each I/O allocated its checksum cover, 5.875 while
  // the RADOS read kept its tried replicas in a vector, 4.875 while it
  // copied its acting set into one; the masks, the acting set and the
  // reply's checksums are inline now).
  build(d3(PoolMode::replicated, /*integrity=*/true), 4 * KiB, 4000);
  EXPECT_LE(per_io(/*writes=*/false).allocations, 0.88);
}

TEST_F(AllocBudget, IntegrityArmedFourKilobyteWriteStaysAtItsCount) {
  // 1.288 (4.288 while the client's checksums and each replica's copy of
  // them were vectors; 7.402 while RBD copied the payload into a RADOS
  // vector, an extra replica's message took a wire copy and each replica's
  // journal record a copy of its own; 9.402 while every replica took a
  // copy of the payload and of its checksum vector, 11.402 while the H2C
  // check built a checksum vector to compare, 10.402 while each write's
  // cover was a fresh vector). The checksums ride inline in the messages.
  build(d3(PoolMode::replicated, /*integrity=*/true), 4 * KiB, 4000);
  EXPECT_LE(per_io(/*writes=*/true).allocations, 1.29);
}

TEST_F(AllocBudget, EcClientWriteOf128KilobytesStaysAtItsCount) {
  // 9.5 (10.5 while RBD copied the payload into a RADOS vector before the
  // split; 13.5 with zeroed prototypes in split and encode, and a
  // reallocation to append the parity): the four data and two parity
  // chunks and the two vectors that hold them are 8 of them. Each shard
  // is laid into recycled pages, and the region kernel allocates nothing.
  build(d3(PoolMode::erasure), 128 * KiB, 256);
  EXPECT_LE(per_io(/*writes=*/true).allocations, 9.51);
}

// CRC-32C passes of an armed 4 kB I/O. A page remembers its CRC, so every
// check of a whole page after the first reads it: a read makes none (4
// before: the store's verify, the client's reply check, the C2H cover and
// the host re-verify each made one), and a write makes 3 (5 before, with
// one more for each replica's journal record). The three left are the H2C
// cover and the H2C check over the caller's buffer, and the page's first
// CRC, which the client ships with the write.
class CrcPasses : public AllocBudget {};

TEST_F(CrcPasses, AnIntegrityArmedFourKilobyteReadMakesNone) {
  build(d3(PoolMode::replicated, /*integrity=*/true), 4 * KiB, 4000);
  EXPECT_EQ(per_io(/*writes=*/false).crc_passes, 0.0);
}

TEST_F(CrcPasses, AnIntegrityArmedFourKilobyteWriteMakesThree) {
  build(d3(PoolMode::replicated, /*integrity=*/true), 4 * KiB, 4000);
  EXPECT_EQ(per_io(/*writes=*/true).crc_passes, 3.0);
}

TEST_F(CrcPasses, ADurableFourKilobyteReadMakesNone) {
  build(durable(), 4 * KiB, 4000);
  EXPECT_EQ(per_io(/*writes=*/false).crc_passes, 0.0);
}

TEST_F(CrcPasses, ADurableFourKilobyteWriteMakesThree) {
  build(durable(), 4 * KiB, 4000);
  EXPECT_EQ(per_io(/*writes=*/true).crc_passes, 3.0);
}

TEST(JournalLiveHeap, AnAppliedRecordKeepsOnlyItsHeader) {
  // A bare journal below its trim watermark keeps every record; once a
  // record is applied its payload is in the data area, so the record may
  // hold only its header fields, not its 4 kB page. The object is grown
  // first so the data area does not grow in the counted loop; each write
  // shares one page, and the pages it replaces go back to the page pool.
  constexpr std::size_t kRecords = 300;
  const rados::ObjectKey key{1, 1, -1};
  rados::ObjectStore store;
  store.write(key, 0, std::vector<std::uint8_t>(kRecords * 4 * KiB));
  rados::Blockstore journal(rados::BlockstoreConfig{}, store);
  const Payload payload =
      Payload::copy_of(std::vector<std::uint8_t>(4 * KiB, 0x5a), 0);

  const std::int64_t before = t_live_bytes;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const std::uint64_t offset = i * 4 * KiB;
    const std::uint64_t lsn = journal.append(key, offset, payload);
    journal.commit(lsn, key, offset, payload, {});
  }
  const double per_record = static_cast<double>(t_live_bytes - before) /
                            static_cast<double>(kRecords);
  ASSERT_EQ(journal.trims(), 0u) << "the loop must stay below the watermark";
  ASSERT_EQ(journal.record_count(), kRecords);
  EXPECT_LE(per_record, 128.0);
}

}  // namespace
}  // namespace dk::core
