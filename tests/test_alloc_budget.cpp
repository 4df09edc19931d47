// Allocation budget of the per-I/O path. A closed loop of 4 kB
// Framework::read/write calls on D3 replicated x2 (with `integrity` armed or
// not), or of 128 kB writes on D3 EC 4+2, may make only a fixed number of
// heap allocations per I/O, counted after a warm-up (so the recycled slots,
// pools and free lists have reached their peak) and with write payloads
// built outside the counted region. The journal's live heap is bounded the
// same way: bytes an applied record still holds. This binary replaces the
// global operator new with a thread-local counter and live-byte tally, so it
// is a test program of its own.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

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
    t_counting = true;
    for (unsigned d = 0; d < kIodepth; ++d) issue();
    fw_.simulator().run();
    t_counting = false;
    return t_allocations;
  }

  std::size_t ok() const { return ok_; }

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
      fw_.read(0, offset, block_,
               [this](Result<std::vector<std::uint8_t>> r) {
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
};

class AllocBudget : public ::testing::Test {
 protected:
  /// A D3 stack, x2 replicated or EC 4+2 (client fan-out encode), whose
  /// loops issue `ops` I/Os of `block` bytes, with `integrity` armed or
  /// not. Warm-up: a write and a read loop grow every object to its final
  /// size and bring every slot, pool and free list to its peak.
  void build(PoolMode pool, std::uint64_t block, std::size_t ops,
             bool integrity = false) {
    FrameworkConfig cfg;
    cfg.variant = VariantKind::delibak;
    cfg.pool_mode = pool;
    cfg.replica_size = 2;
    cfg.ec_profile = {4, 2, ec::GeneratorKind::vandermonde};
    cfg.image_size = kImageBytes;
    cfg.integrity = integrity;
    fw_ = std::make_unique<Framework>(sim_, cfg);
    block_ = block;
    ops_ = ops;
    ClosedLoop(*fw_, block_, ops_, true).run();
    ClosedLoop(*fw_, block_, ops_, false).run();
  }

  double allocations_per_io(bool writes) {
    ClosedLoop loop(*fw_, block_, ops_, writes);
    const std::uint64_t allocs = loop.run();
    EXPECT_EQ(loop.ok(), ops_);
    EXPECT_EQ(fw_->validator().verify_quiescent(), 0u);
    return static_cast<double>(allocs) / static_cast<double>(ops_);
  }

  sim::Simulator sim_;
  std::unique_ptr<Framework> fw_;
  std::uint64_t block_ = 0;
  std::size_t ops_ = 0;
};

TEST_F(AllocBudget, FourKilobyteReadCostsAtMostFiveAllocations) {
  // 2.875 (21.8 before): the destination buffer, the OSD reply's payload,
  // and amortized growth of the FIFO stations' queues; everything else is
  // recycled.
  build(PoolMode::replicated, 4 * KiB, 4000);
  EXPECT_LE(allocations_per_io(/*writes=*/false), 5.0);
}

TEST_F(AllocBudget, FourKilobyteWriteStaysAtItsCount) {
  // 3.0005 (4.0005 while every replica took a wire copy; 25 before the
  // path became allocation-free): the RADOS copy of the payload, one wire
  // copy per extra replica (the last takes the payload itself), and
  // amortized growth of the FIFO stations' queues.
  build(PoolMode::replicated, 4 * KiB, 4000);
  EXPECT_LE(allocations_per_io(/*writes=*/true), 3.01);
}

TEST_F(AllocBudget, IntegrityArmedFourKilobyteReadStaysAtItsCount) {
  // 3.875 (8.875 while the C2H cover and the host re-verify each built a
  // checksum vector, 6.875 while each I/O allocated its checksum cover,
  // 5.875 while the RADOS read kept its tried replicas in a vector, 4.875
  // while it copied its acting set into one; the masks and the acting set
  // are inline now).
  build(PoolMode::replicated, 4 * KiB, 4000, /*integrity=*/true);
  EXPECT_LE(allocations_per_io(/*writes=*/false), 3.88);
}

TEST_F(AllocBudget, IntegrityArmedFourKilobyteWriteStaysAtItsCount) {
  // 7.402 (9.402 while every replica took a copy of the payload and of
  // its checksum vector, 11.402 while the H2C check built a checksum
  // vector to compare, 10.402 while each write's cover was a fresh vector;
  // the cover is now filled in place in the slot's recycled one).
  build(PoolMode::replicated, 4 * KiB, 4000, /*integrity=*/true);
  EXPECT_LE(allocations_per_io(/*writes=*/true), 7.41);
}

TEST_F(AllocBudget, EcClientWriteOf128KilobytesStaysAtItsCount) {
  // 10.5 (13.5 with zeroed prototypes in split and encode, and a
  // reallocation to append the parity): the four data and two parity
  // chunks and the two vectors that hold them are 8 of them. The region
  // kernel allocates nothing.
  build(PoolMode::erasure, 128 * KiB, 256);
  EXPECT_LE(allocations_per_io(/*writes=*/true), 10.51);
}

TEST(JournalLiveHeap, AnAppliedRecordKeepsOnlyItsHeader) {
  // A bare journal below its trim watermark keeps every record; once a
  // record is applied its payload is in the data area, so the record may
  // hold only its header fields, not a copy of its 4 kB. The object is
  // grown first so the data area does not reallocate in the counted loop.
  constexpr std::size_t kRecords = 300;
  const rados::ObjectKey key{1, 1, -1};
  rados::ObjectStore store;
  store.write(key, 0, std::vector<std::uint8_t>(kRecords * 4 * KiB));
  rados::Blockstore journal(rados::BlockstoreConfig{}, store);
  const std::vector<std::uint8_t> payload(4 * KiB, 0x5a);

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
