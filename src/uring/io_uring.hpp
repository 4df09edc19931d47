// A from-scratch io_uring-style asynchronous I/O instance.
//
// Two rings — the Submission Queue (application-produced) and the
// Completion Queue (backend-produced) — plus a pluggable backend that plays
// the role of the kernel block layer / UIFD driver underneath.
//
// Faithful to the semantics DeLiBA-K relies on:
//   * zero-copy communication: SQEs/CQEs move through shared rings; the
//     data buffer is referenced by address, never copied by the ring;
//   * batching: any number of queued SQEs are handed to the backend with
//     ONE enter() call (one "system call");
//   * kernel-polled mode: the SQ-poll process drains the SQ without
//     enter() calls (kernel_poll(), which the DES drives);
//   * multi-instance with per-CPU binding (see UringRegistry).
//
// Accounting (syscall count, batch histogram, completion counts) is exposed
// so benchmarks can attribute speedups to specific mechanisms.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/ring_buffer.hpp"
#include "common/status.hpp"
#include "sim/event_pool.hpp"
#include "uring/sqe.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::uring {

/// Completion of one backend I/O: bytes transferred or a negative Errc.
using CompleteFn = sim::UniqueFn<void(std::int32_t)>;

/// The "kernel" side: consumes SQEs, performs I/O, posts completions via
/// the callback. Implementations: simulated block stacks (DES), the RAM
/// disk (tests and CPU-time microbenchmarks), or the DeLiBA-K DMQ/UIFD
/// pipeline.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Start the I/O described by `sqe`; invoke `complete(res)` when done.
  /// `res` is bytes transferred on success or a negative Errc value. The
  /// completion a ring builds captures only (ring, user_data, flags), so it
  /// fits UniqueFn's inline buffer.
  virtual void submit_io(const Sqe& sqe, CompleteFn complete) = 0;
};

struct UringParams {
  unsigned sq_entries = 256;  // rounded up to a power of two; the CQ holds
                              // twice as many, like the kernel default
  RingMode mode = RingMode::kernel_polled;
  int bound_cpu = -1;         // CPU this instance's SQ handling is pinned to
};

/// Ring accounting, cumulative over the instance's lifetime.
struct UringStats {
  std::uint64_t sqes_submitted = 0;
  std::uint64_t cqes_reaped = 0;
  std::uint64_t enter_calls = 0;     // simulated io_uring_enter syscalls
  std::uint64_t sq_poll_wakeups = 0; // kernel-polled drains
  std::uint64_t sq_full_rejects = 0;

  /// Mean SQEs moved per enter()/poll — the batching factor.
  double batch_factor() const {
    const std::uint64_t drains = enter_calls + sq_poll_wakeups;
    return drains ? static_cast<double>(sqes_submitted) / static_cast<double>(drains) : 0.0;
  }
};

class IoUring {
 public:
  IoUring(UringParams params, Backend& backend);

  IoUring(const IoUring&) = delete;
  IoUring& operator=(const IoUring&) = delete;

  const UringParams& params() const { return params_; }
  const UringStats& stats() const { return stats_; }
  unsigned sq_capacity() const { return static_cast<unsigned>(sq_.capacity()); }
  std::size_t sq_pending() const { return sq_.size(); }
  std::size_t cq_ready() const { return cq_.size(); }
  std::uint64_t inflight() const {
    return stats_.sqes_submitted - stats_.cqes_reaped - cq_.size();
  }

  /// Queue an SQE (application side). Fails with `again` when the SQ is
  /// full — the caller must enter()/poll to drain first.
  Status prep(const Sqe& sqe);

  Status prep_read(std::int32_t fd, std::uint64_t buf_addr, std::uint32_t len,
                   std::uint64_t off, std::uint64_t user_data);
  Status prep_write(std::int32_t fd, std::uint64_t buf_addr, std::uint32_t len,
                    std::uint64_t off, std::uint64_t user_data);

  /// Register fixed buffers (io_uring_register(IORING_REGISTER_BUFFERS)):
  /// read_fixed/write_fixed SQEs reference them by index, avoiding per-op
  /// pin/map work. Replaces any previous registration.
  Status register_buffers(std::vector<std::pair<std::uint64_t, std::uint32_t>>
                              buffers);
  std::size_t registered_buffer_count() const { return buffers_.size(); }

  /// Prep a fixed-buffer I/O: `buf_index` selects a registered buffer.
  Status prep_read_fixed(std::int32_t fd, unsigned buf_index, std::uint32_t len,
                         std::uint64_t off, std::uint64_t user_data);
  Status prep_write_fixed(std::int32_t fd, unsigned buf_index,
                          std::uint32_t len, std::uint64_t off,
                          std::uint64_t user_data);

  /// Register fixed files (IORING_REGISTER_FILES): SQEs with kSqeFixedFile
  /// use `fd` as an index into this table.
  Status register_files(std::vector<std::int32_t> fds);
  std::size_t registered_file_count() const { return files_.size(); }

  /// io_uring_enter(): hand every queued SQE to the backend in ONE call.
  /// Returns the number of SQEs consumed. In kernel_polled mode this is a
  /// no-op returning 0 (the poller owns the SQ; see kernel_poll()).
  unsigned enter();

  /// One iteration of the kernel's SQ-poll thread, a process the DES
  /// drives: drain queued SQEs without a syscall. Only valid in
  /// kernel_polled mode.
  unsigned kernel_poll();

  /// Reap up to out.size() completions into `out`; returns the count.
  unsigned peek_cqes(std::span<Cqe> out);

  /// True once every submitted SQE has completed and been reaped.
  bool idle() const { return inflight() == 0 && cq_.size() == 0; }

  /// Publish ring activity into `registry` under "<prefix>." names
  /// (sqes_submitted, cqes_reaped, enter_calls, sq_poll_wakeups,
  /// sq_full_rejects counters and an unreaped-completions gauge). Handles
  /// are resolved once here, so hot-path updates do no name lookup.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Report ring lifecycle events (SQE queued/issued, CQE posted/reaped,
  /// CQ overflow) to `validator` as ring `ring_id`. Same pattern as
  /// attach_metrics(): a null-checked pointer on the hot path.
  void attach_validator(PipelineValidator& validator, unsigned ring_id);

 private:
  unsigned drain_sq();
  // Post a CQE, reporting posts and overflow drops to the validator.
  void post_cqe(const Cqe& cqe);
  // Resolve fixed buffers/files into a plain SQE; nullopt -> invalid, and a
  // CQE with -invalid_argument is posted directly.
  bool resolve(Sqe& sqe);
  void issue(const Sqe& sqe);
  void issue_chain(std::shared_ptr<std::vector<Sqe>> chain, std::size_t at);

  UringParams params_;
  Backend& backend_;
  RingBuffer<Sqe> sq_;
  RingBuffer<Cqe> cq_;
  UringStats stats_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> buffers_;
  std::vector<std::int32_t> files_;

  // Optional live metric handles (null until attach_metrics()).
  struct MetricHandles {
    Counter* sqes = nullptr;
    Counter* cqes = nullptr;
    Counter* enters = nullptr;
    Counter* poll_wakeups = nullptr;
    Counter* sq_full = nullptr;
    Gauge* outstanding = nullptr;  // submitted - reaped (in flight + CQ)
  };
  MetricHandles metrics_;

  PipelineValidator* validator_ = nullptr;
  unsigned ring_id_ = 0;
};

}  // namespace dk::uring
