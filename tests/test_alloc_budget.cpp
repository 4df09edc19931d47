// Allocation budget of the per-I/O path. A closed loop of 4 kB
// Framework::read/write calls on D3 replicated x2 may make only a fixed
// number of heap allocations per I/O, counted after a warm-up (so the
// recycled slots, pools and free lists have reached their peak) and with
// write payloads built outside the counted region. This binary replaces the
// global operator new with a thread-local counter, so it is a test program
// of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/framework.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

}  // namespace

// The replacement pairs malloc with free by design.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dk::core {
namespace {

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kImageBlocks = 4096;  // 16 MiB image
constexpr unsigned kIodepth = 32;
constexpr std::size_t kOps = 4000;

/// Keeps kIodepth I/Os in flight; each completion issues the next, on a
/// fixed scatter of block offsets.
class ClosedLoop {
 public:
  ClosedLoop(Framework& fw, bool writes) : fw_(fw), writes_(writes) {
    if (writes_)
      for (std::size_t i = 0; i < kOps; ++i)
        payloads_.emplace_back(kBlock, static_cast<std::uint8_t>(i));
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
    if (next_ == kOps) return;
    const std::size_t i = next_++;
    const std::uint64_t offset = i * 2654435761u % kImageBlocks * kBlock;
    if (writes_) {
      fw_.write(0, offset, std::move(payloads_[i]), [this](std::int32_t res) {
        ok_ += res == static_cast<std::int32_t>(kBlock);
        issue();
      });
    } else {
      fw_.read(0, offset, kBlock,
               [this](Result<std::vector<std::uint8_t>> r) {
                 ok_ += r.ok() && r->size() == kBlock;
                 issue();
               });
    }
  }

  Framework& fw_;
  bool writes_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::size_t next_ = 0;
  std::size_t ok_ = 0;
};

class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    FrameworkConfig cfg;
    cfg.variant = VariantKind::delibak;
    cfg.pool_mode = PoolMode::replicated;
    cfg.replica_size = 2;
    cfg.image_size = kImageBlocks * kBlock;
    fw_ = std::make_unique<Framework>(sim_, cfg);
    // Warm-up: a write and a read loop grow every object to its final size
    // and bring every slot, pool and free list to its peak.
    ClosedLoop(*fw_, true).run();
    ClosedLoop(*fw_, false).run();
  }

  double allocations_per_io(bool writes) {
    ClosedLoop loop(*fw_, writes);
    const std::uint64_t allocs = loop.run();
    EXPECT_EQ(loop.ok(), kOps);
    EXPECT_EQ(fw_->validator().verify_quiescent(), 0u);
    return static_cast<double>(allocs) / static_cast<double>(kOps);
  }

  sim::Simulator sim_;
  std::unique_ptr<Framework> fw_;
};

TEST_F(AllocBudget, FourKilobyteReadCostsAtMostFiveAllocations) {
  // 2.875 (21.8 before): the destination buffer, the OSD reply's payload,
  // and amortized growth of the FIFO stations' queues; everything else is
  // recycled.
  EXPECT_LE(allocations_per_io(/*writes=*/false), 5.0);
}

TEST_F(AllocBudget, FourKilobyteWriteStaysAtItsCount) {
  // 4.0005 when the path became allocation-free (25 before): the RADOS
  // copy of the payload, one wire copy per replica, and amortized growth
  // of the FIFO stations' queues.
  EXPECT_LE(allocations_per_io(/*writes=*/true), 4.01);
}

}  // namespace
}  // namespace dk::core
