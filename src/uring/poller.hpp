// Live kernel SQ-poll thread.
//
// In the DES, kernel-polled mode is driven by explicit kernel_poll() calls;
// in live mode (against the RAM disk; only tests run it) this class
// provides the real thing: a dedicated std::jthread that continuously
// drains the SQ of one or more rings — the sqpoll kthread io_uring spawns
// with IORING_SETUP_SQPOLL. Includes the idle-backoff behaviour: after
// `idle_spins` empty polls the thread naps briefly, and wake() — the
// io_uring_enter(IORING_ENTER_SQ_WAKEUP) a submitter issues when it sees
// IORING_SQ_NEED_WAKEUP — cuts the nap short. stop() also interrupts the
// nap, so shutdown latency is bounded by in-progress work, not nap length.
// conventions: allow(reached-header) — the only code driving a ring from a
// second thread; SqPollRaces and CI's TSAN job check ring ordering with it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "uring/io_uring.hpp"

namespace dk::uring {

struct SqPollParams {
  unsigned idle_spins = 1024;  // empty polls before napping
  std::chrono::microseconds nap{50};
  // Optional sink for live poll/nap/moved counters, published under
  // "<metrics_prefix>.". The registry must outlive the thread; counter
  // handles are atomic, so the poll thread updates them without locking.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "sqpoll";
};

class SqPollThread {
 public:
  using Params = SqPollParams;

  explicit SqPollThread(std::vector<IoUring*> rings,
                        SqPollParams params = SqPollParams())
      : rings_(std::move(rings)), params_(params) {
    if (params_.metrics) {
      const std::string& p = params_.metrics_prefix;
      m_polls_ = &params_.metrics->counter(p + ".polls");
      m_naps_ = &params_.metrics->counter(p + ".naps");
      m_moved_ = &params_.metrics->counter(p + ".sqes_moved");
    }
    thread_ = std::jthread([this](std::stop_token st) { run(st); });
  }

  ~SqPollThread() { stop(); }

  SqPollThread(const SqPollThread&) = delete;
  SqPollThread& operator=(const SqPollThread&) = delete;

  /// Request shutdown and join.
  void stop() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
  }

  /// Interrupt an in-progress nap (IORING_ENTER_SQ_WAKEUP). Safe from any
  /// thread; a no-op when the poller is spinning.
  void wake() {
    {
      MutexLock lk(nap_mu_);
      wake_pending_ = true;
    }
    nap_cv_.notify_all();
  }

  std::uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  std::uint64_t naps() const { return naps_.load(std::memory_order_relaxed); }
  std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }
  bool napping() const { return napping_.load(std::memory_order_acquire); }

 private:
  void run(std::stop_token st) {
    unsigned idle = 0;
    while (!st.stop_requested()) {
      unsigned moved = 0;
      for (IoUring* ring : rings_) moved += ring->kernel_poll();
      polls_.fetch_add(1, std::memory_order_relaxed);
      if (m_polls_) m_polls_->inc();
      if (moved) {
        if (m_moved_) m_moved_->inc(moved);
        idle = 0;
        continue;
      }
      if (++idle >= params_.idle_spins) {
        napping_.store(true, std::memory_order_release);
        naps_.fetch_add(1, std::memory_order_relaxed);
        if (m_naps_) m_naps_->inc();
        nap(st);
        napping_.store(false, std::memory_order_release);
        idle = 0;
      }
    }
  }

  // Nap until the timeout, a wake(), or a stop request — whichever first.
  // Exempt from thread-safety analysis: condition_variable_any::wait_for
  // releases and reacquires nap_mu_ invisibly to Clang's lock tracking, so
  // the guarded wake_pending_ accesses here (all made while the lock is in
  // fact held) cannot be proven by the analysis.
  void nap(std::stop_token st) DK_NO_THREAD_SAFETY_ANALYSIS {
    MutexLock lk(nap_mu_);
    const bool woken = nap_cv_.wait_for(nap_mu_, st, params_.nap,
                                        [this] { return wake_pending_; });
    if (wake_pending_) {
      wake_pending_ = false;
      if (woken) wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // dklint: allow(DK-T001) — set in the constructor, read-only afterwards
  std::vector<IoUring*> rings_;
  // dklint: allow(DK-T001) — set in the constructor, read-only afterwards
  Params params_;
  // dklint: allow(DK-T001) — ctor-resolved handles to external atomics
  Counter* m_polls_ = nullptr;
  // dklint: allow(DK-T001) — ctor-resolved handles to external atomics
  Counter* m_naps_ = nullptr;
  // dklint: allow(DK-T001) — ctor-resolved handles to external atomics
  Counter* m_moved_ = nullptr;
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> naps_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<bool> napping_{false};
  Mutex nap_mu_;
  std::condition_variable_any nap_cv_;
  bool wake_pending_ DK_GUARDED_BY(nap_mu_) = false;
  // dklint: allow(DK-T001) — joined only via stop(); jthread is self-synced
  std::jthread thread_;
};

}  // namespace dk::uring
