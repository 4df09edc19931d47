// SqPollThread: the basic drive and idle-nap behaviour, then stop/wake and
// idle-backoff races. These tests run real threads against the lock-free
// SQ/CQ rings and are the primary workload of the ThreadSanitizer CI job: the
// poll thread drains SQs while application threads prep and reap
// concurrently, nap/wake/stop transitions race with submissions, and the
// PipelineValidator observes from both sides.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "common/pipeline_validator.hpp"
#include "uring/io_uring.hpp"
#include "uring/poller.hpp"
#include "uring/ramdisk.hpp"

namespace dk::uring {
namespace {

using namespace std::chrono_literals;

/// Spin (yielding) until `pred` holds or `deadline` elapses.
bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds deadline) {
  const auto end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < end) {
    if (pred()) return true;
    std::this_thread::yield();
  }
  return pred();
}

/// Reap every ready CQE once; returns the count.
unsigned reap_all(IoUring& ring) {
  Cqe out[64];
  unsigned total = 0;
  unsigned n;
  while ((n = ring.peek_cqes(out)) != 0) total += n;
  return total;
}

IoUring make_polled_ring(Backend& backend, unsigned sq_entries = 64) {
  UringParams params;
  params.sq_entries = sq_entries;
  params.mode = RingMode::kernel_polled;
  return IoUring(params, backend);
}

TEST(SqPollThread, DrivesRingWithoutEnterCalls) {
  RamDisk disk(1 * MiB);
  IoUring ring({.sq_entries = 64, .mode = RingMode::kernel_polled}, disk);
  SqPollThread poller({&ring});

  std::array<std::uint8_t, 512> buf{};
  constexpr int kOps = 200;
  int reaped = 0;
  std::array<Cqe, 16> cqes;
  for (int i = 0; i < kOps; ++i) {
    while (!ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                            buf.size(), (i % 128) * 512ull, i)
                .ok()) {
      reaped += ring.peek_cqes(cqes);  // SQ full: reap to make room
    }
    reaped += ring.peek_cqes(cqes);
  }
  // Wait for the poller to drain the tail.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reaped < kOps && std::chrono::steady_clock::now() < deadline)
    reaped += ring.peek_cqes(cqes);
  poller.stop();

  EXPECT_EQ(reaped, kOps);
  EXPECT_EQ(ring.stats().enter_calls, 0u);
  EXPECT_GT(ring.stats().sq_poll_wakeups, 0u);
  EXPECT_GT(poller.polls(), 0u);
}

TEST(SqPollThread, NapsWhenIdle) {
  RamDisk disk(4096);
  IoUring ring({.sq_entries = 8, .mode = RingMode::kernel_polled}, disk);
  SqPollThread poller({&ring}, {.idle_spins = 8, .nap = 100us});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (poller.naps() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_GT(poller.naps(), 0u) << "idle poller must back off";
  poller.stop();
}

TEST(SqPollRaces, StopInterruptsLongNap) {
  RamDisk disk(1 * MiB);
  IoUring ring = make_polled_ring(disk);
  SqPollParams params;
  params.idle_spins = 1;
  params.nap = 10s;  // stop() must not wait this out
  SqPollThread poller({&ring}, params);

  ASSERT_TRUE(wait_until([&] { return poller.napping(); }, 2000ms));
  const auto t0 = std::chrono::steady_clock::now();
  poller.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 1s) << "stop() slept out the nap instead of "
                            "interrupting it";
}

TEST(SqPollRaces, WakeCutsNapShortAndSubmissionProceeds) {
  RamDisk disk(1 * MiB);
  IoUring ring = make_polled_ring(disk);
  SqPollParams params;
  params.idle_spins = 1;
  params.nap = 10s;
  SqPollThread poller({&ring}, params);

  ASSERT_TRUE(wait_until([&] { return poller.napping(); }, 2000ms));

  // IORING_SQ_NEED_WAKEUP protocol: queue the SQE, then wake the poller.
  std::vector<std::uint8_t> buf(4096, 0x42);
  ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                              4096, 0, 1)
                  .ok());
  poller.wake();

  unsigned reaped = 0;
  ASSERT_TRUE(wait_until([&] { return (reaped += reap_all(ring)) == 1; },
                         2000ms))
      << "submission never completed: the wake was lost";
  EXPECT_GE(poller.wakeups(), 1u);
  EXPECT_EQ(ring.stats().enter_calls, 0u);  // no syscalls in SQPOLL mode
}

TEST(SqPollRaces, RapidConstructStopCycles) {
  RamDisk disk(1 * MiB);
  IoUring ring = make_polled_ring(disk);
  SqPollParams params;
  params.idle_spins = 0;  // nap immediately: stop races the first nap
  params.nap = 100ms;
  for (int i = 0; i < 100; ++i) {
    SqPollThread poller({&ring}, params);
    if (i % 2 == 0) poller.stop();  // odd iterations stop via the destructor
  }
  SUCCEED();
}

TEST(SqPollRaces, ConcurrentSubmitAndReapDrainsEverything) {
  constexpr unsigned kOps = 2000;
  RamDisk disk(4 * MiB);
  IoUring ring = make_polled_ring(disk);
  SqPollParams params;
  params.idle_spins = 64;
  params.nap = 100us;
  SqPollThread poller({&ring}, params);

  // This thread is the ring's single application thread: it preps (SQ
  // producer) and reaps (CQ consumer) while the poll thread moves SQEs,
  // keeping in-flight ops within sq_entries so the CQ cannot overflow.
  std::vector<std::uint8_t> buf(512, 0x7E);
  unsigned reaped = 0;
  for (unsigned i = 0; i < kOps; ++i) {
    while (i - reaped >= ring.sq_capacity() ||
           !ring
                .prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                            512, 0, i)
                .ok()) {
      if (poller.napping()) poller.wake();  // SQ full while poller naps
      reaped += reap_all(ring);
      std::this_thread::yield();
    }
  }
  ASSERT_TRUE(wait_until(
      [&] {
        if (poller.napping() && !ring.idle()) poller.wake();
        reaped += reap_all(ring);
        return reaped == kOps;
      },
      5000ms))
      << "reaped only " << reaped;
  poller.stop();

  const UringStats stats = ring.stats();
  EXPECT_EQ(stats.sqes_submitted, kOps);
  EXPECT_EQ(stats.cqes_reaped, kOps);
  EXPECT_TRUE(ring.idle());
}

TEST(SqPollRaces, StopMidstreamThenManualDrainBalances) {
  constexpr unsigned kOps = 500;
  RamDisk disk(4 * MiB);
  IoUring ring = make_polled_ring(disk);
  SqPollParams params;
  params.idle_spins = 8;
  params.nap = 50us;
  SqPollThread poller({&ring}, params);

  std::vector<std::uint8_t> buf(512, 0x33);
  std::atomic<unsigned> prepped{0};
  std::atomic<unsigned> reaped{0};
  std::atomic<bool> poller_stopped{false};
  // Application thread: preps all ops and reaps, racing the poller's
  // mid-stream shutdown below. Once the poller is gone this thread takes
  // over SQ draining itself (the join in stop() hands over consumership).
  // It keeps in-flight ops (prepped, not yet reaped) within sq_entries —
  // the ring's documented bound, under which the 2x-sized CQ cannot
  // overflow and drop completions.
  std::thread app([&] {
    for (unsigned i = 0; i < kOps; ++i) {
      while (i - reaped.load(std::memory_order_relaxed) >=
                 ring.sq_capacity() ||
             !ring
                  .prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                              512, 0, i)
                  .ok()) {
        if (poller_stopped.load(std::memory_order_acquire)) ring.kernel_poll();
        reaped.fetch_add(reap_all(ring), std::memory_order_relaxed);
        std::this_thread::yield();
      }
      prepped.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Stop the poller while the producer is (very likely) still submitting.
  wait_until([&] { return prepped.load(std::memory_order_relaxed) >= kOps / 4; },
             2000ms);
  poller.stop();
  poller_stopped.store(true, std::memory_order_release);
  app.join();

  // The poller is gone; this thread now owns both ring ends and drains the
  // SQEs it left behind.
  unsigned total = reaped.load(std::memory_order_relaxed);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (total < kOps && std::chrono::steady_clock::now() < deadline) {
    ring.kernel_poll();
    total += reap_all(ring);
  }
  EXPECT_EQ(total, kOps);
  EXPECT_TRUE(ring.idle());
  EXPECT_EQ(ring.stats().sqes_submitted, kOps);
}

TEST(SqPollRaces, MultiRingConcurrentProducersStayConsistent) {
  constexpr unsigned kOps = 1000;
  RamDisk disk_a(4 * MiB);
  RamDisk disk_b(4 * MiB);
  IoUring ring_a = make_polled_ring(disk_a);
  IoUring ring_b = make_polled_ring(disk_b);

  PipelineValidator validator;
  ring_a.attach_validator(validator, 0);
  ring_b.attach_validator(validator, 1);

  SqPollParams params;
  params.idle_spins = 64;
  params.nap = 100us;
  SqPollThread poller({&ring_a, &ring_b}, params);

  // One application thread per ring (the rings are SPSC); the single poll
  // thread drains both, so validator hooks fire from three threads. Each
  // producer keeps in-flight ops within sq_entries, so its CQ cannot
  // overflow.
  auto drive = [&](IoUring& ring) {
    std::vector<std::uint8_t> buf(512, 0x44);
    unsigned reaped = 0;
    for (unsigned i = 0; i < kOps; ++i) {
      while (i - reaped >= ring.sq_capacity() ||
             !ring
                  .prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                              512, 0, i)
                  .ok()) {
        if (poller.napping()) poller.wake();
        Cqe out[64];
        reaped += ring.peek_cqes(out);
        std::this_thread::yield();
      }
    }
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (reaped < kOps && std::chrono::steady_clock::now() < deadline) {
      if (poller.napping()) poller.wake();
      Cqe out[64];
      reaped += ring.peek_cqes(out);
      std::this_thread::yield();
    }
    EXPECT_EQ(reaped, kOps);
  };
  std::thread ta([&] { drive(ring_a); });
  std::thread tb([&] { drive(ring_b); });
  ta.join();
  tb.join();
  poller.stop();

  EXPECT_EQ(ring_a.stats().cqes_reaped, kOps);
  EXPECT_EQ(ring_b.stats().cqes_reaped, kOps);
  EXPECT_EQ(validator.violations(), 0u);
  EXPECT_EQ(validator.verify_quiescent(), 0u);
}

TEST(SqPollRaces, IdleBackoffNapsAndMetricsFlowFromPollThread) {
  MetricsRegistry registry;
  RamDisk disk(1 * MiB);
  IoUring ring = make_polled_ring(disk);
  SqPollParams params;
  params.idle_spins = 4;
  params.nap = 200us;
  params.metrics = &registry;
  params.metrics_prefix = "sqpoll";
  SqPollThread poller({&ring}, params);

  // Alternate bursts of work with idle gaps long enough to trigger naps.
  std::vector<std::uint8_t> buf(512, 0x55);
  unsigned reaped = 0;
  for (int burst = 0; burst < 5; ++burst) {
    ASSERT_TRUE(wait_until([&] { return poller.napping(); }, 2000ms));
    for (std::uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()), 512,
                          0, burst * 8 + i)
              .ok());
    }
    poller.wake();
    ASSERT_TRUE(wait_until(
        [&] { return (reaped += reap_all(ring)) >= (burst + 1) * 8u; },
        2000ms));
  }
  poller.stop();

  EXPECT_GE(poller.naps(), 5u);
  EXPECT_GE(poller.polls(), poller.naps());
  ASSERT_NE(registry.find_counter("sqpoll.naps"), nullptr);
  EXPECT_EQ(registry.find_counter("sqpoll.naps")->value(), poller.naps());
  EXPECT_EQ(registry.find_counter("sqpoll.polls")->value(), poller.polls());
  EXPECT_EQ(registry.find_counter("sqpoll.sqes_moved")->value(), 40u);
}

}  // namespace
}  // namespace dk::uring
