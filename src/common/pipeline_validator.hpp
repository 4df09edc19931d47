// Machine-checked invariants for the SQ/CQ -> DMQ -> UIFD -> QDMA pipeline.
//
// DeLiBA-K pushes I/O logic deep into the kernel path, trading debuggability
// for speed (cf. BPF-for-storage, HotOS'21); this validator buys the
// debuggability back. Each layer reports its lifecycle events through cheap
// hooks — the same attach pattern as attach_metrics() — and the validator
// cross-checks them against the pipeline's state machines:
//
//   * SQ/CQ rings: head/tail monotonicity (queued >= issued, posted >=
//     reaped as cumulative indices), SQE/CQE accounting balance, and
//     per-user_data completion tracking that catches double completions and
//     dropped CQEs.
//   * blk-mq tags: every acquired tag is released exactly once, in-flight
//     never exceeds the tag-set depth, and teardown finds zero leaks.
//   * QDMA descriptors: each descriptor is posted -> fetched -> completed
//     exactly once, in that order.
//   * StageTrace: every completed trace is audited for hop ordering
//     (monotonic timestamps in pipeline order, both endpoints marked).
//
// Violations are counted per class under "check.violations.<kind>" in the
// attached MetricsRegistry and routed through the DK_CHECK failure handler:
// fatal in debug builds, counted-and-continue in release. A Framework owns
// one validator per instance (Framework::validator()) wired to every layer
// it assembles.
//
// Thread safety: all hooks take an internal lock, so rings driven by a live
// SqPollThread can report from the poll thread while the application thread
// reports reaps. The per-I/O map nodes (ring in-flight, descriptor, I/O
// token) recycle through node pools under the same lock, so a steady I/O
// stream costs the validator no heap allocation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/node_pool.hpp"
#include "common/trace.hpp"

namespace dk {

class PipelineValidator {
 public:
  enum class Violation : std::uint8_t {
    ring_accounting,    // cumulative SQ/CQ indices regressed or crossed
    double_completion,  // CQE posted for a user_data not in flight
    cqe_dropped,        // completion lost to CQ overflow
    tag_double_acquire, // tag handed out while still held
    tag_bad_release,    // tag released while not held
    tag_overflow,       // in-flight tags exceed the tag-set depth
    tag_leak,           // tags still held at quiescence
    descriptor_lifetime,// descriptor fetched/completed out of order or twice
    descriptor_leak,    // descriptors still outstanding at quiescence
    trace_order,        // StageTrace hops non-monotonic or endpoint missing
    quiescence,         // rings not drained / balanced at teardown
    io_leak,            // an I/O neither completed nor errored (fault lost)
    corruption_leak,    // a detected corruption neither repaired nor errored
    journal_leak,       // a journaled intent neither applied nor trimmed
    background_leak,    // a scheduled scrub chunk / recovery move neither
                        // completed nor cancelled
  };
  static constexpr std::size_t kViolationKinds = 15;

  static std::string_view violation_name(Violation kind);

  /// `registry` (optional) receives "check.violations.<kind>" counters.
  explicit PipelineValidator(MetricsRegistry* registry = nullptr);

  PipelineValidator(const PipelineValidator&) = delete;
  PipelineValidator& operator=(const PipelineValidator&) = delete;

  // --- SQ/CQ ring state machine (one `ring` id per IoUring instance) ----
  void on_sqe_queued(unsigned ring);
  void on_sqe_issued(unsigned ring, std::uint64_t user_data);
  void on_cqe_posted(unsigned ring, std::uint64_t user_data);
  void on_cqe_dropped(unsigned ring, std::uint64_t user_data);
  void on_cqes_reaped(unsigned ring, unsigned n);

  // --- blk-mq tag lifecycle ---------------------------------------------
  void set_tag_depth(unsigned hw_queue, unsigned depth);
  void on_tag_acquired(unsigned hw_queue, unsigned tag);
  void on_tag_released(unsigned hw_queue, unsigned tag);

  // --- QDMA descriptor lifecycle (`descriptor` = engine sequence id) ----
  void on_descriptor_posted(std::uint64_t descriptor);
  void on_descriptor_fetched(std::uint64_t descriptor);
  void on_descriptor_completed(std::uint64_t descriptor);

  // --- StageTrace hop-ordering audit ------------------------------------
  void on_trace_complete(const StageTrace& trace);

  // --- I/O resolution under fault injection -----------------------------
  // Every application I/O entering the framework reports on_io_started with
  // a unique token and MUST later report on_io_resolved — whether it
  // completed, was retried to success, was served degraded, or surfaced an
  // error CQE. Combined with on_fault_injected (called by the
  // sim::FaultInjector for every injected fault), verify_quiescent() proves
  // no injected fault silently swallowed an I/O.
  void on_io_started(std::uint64_t token);
  void on_io_resolved(std::uint64_t token);
  void on_fault_injected();

  // --- corruption resolution (integrity mode) ---------------------------
  // Every checksum mismatch an integrity-armed layer detects reports
  // on_corruption_detected() once per affected operation, and MUST later
  // report on_corruption_resolved() when that operation either delivers
  // repaired data or surfaces Errc::corrupted to its caller.
  // verify_quiescent() flags any imbalance as corruption_leak: a detected
  // corruption that neither repaired nor errored.
  void on_corruption_detected();
  void on_corruption_resolved();

  // --- journaled-blockstore intent resolution ---------------------------
  // Every record a journaled blockstore appends reports on_journal_intent()
  // once, and MUST later report on_journal_intent_resolved() exactly once —
  // when its payload is applied to the data area, or when crash replay
  // discards it as torn/CRC-rejected. verify_quiescent() flags any
  // imbalance as journal_leak: a journaled intent neither applied nor
  // trimmed.
  void on_journal_intent();
  void on_journal_intent_resolved();

  // --- background-work resolution (scrub / paced recovery) --------------
  // Every scrub chunk the background scheduler schedules and every
  // RecoveryMove a paced execution launches reports on_background_scheduled()
  // once, and MUST later report on_background_resolved() exactly once —
  // when the chunk/move completed, or when it was cancelled (target crashed,
  // scheduler stopped). verify_quiescent() flags any imbalance as
  // background_leak: background work neither completed nor cancelled.
  void on_background_scheduled();
  void on_background_resolved();

  /// Teardown accounting: every ring drained and balanced, zero tags held,
  /// zero descriptors outstanding. Returns the number of violations found
  /// by this call (0 when the pipeline wound down cleanly).
  std::uint64_t verify_quiescent();

  // --- introspection ----------------------------------------------------
  std::uint64_t violations() const;
  std::uint64_t violations(Violation kind) const;
  /// Most recent violation descriptions (bounded; oldest dropped first).
  std::vector<std::string> violation_log() const;

  std::uint64_t ring_inflight(unsigned ring) const;
  unsigned tags_in_use(unsigned hw_queue) const;
  std::uint64_t descriptors_outstanding() const;
  std::uint64_t traces_audited() const {
    RecursiveMutexLock lock(mu_);
    return traces_audited_;
  }
  std::uint64_t corruptions_detected() const;
  std::uint64_t corruptions_resolved() const;
  std::uint64_t journal_intents() const;
  std::uint64_t journal_intents_resolved() const;

 private:
  // key -> outstanding count.
  using CountMap = std::unordered_map<std::uint64_t, std::uint32_t>;
  enum class DescriptorState : std::uint8_t { posted, fetched };
  using DescriptorMap = std::unordered_map<std::uint64_t, DescriptorState>;

  struct RingState {
    std::uint64_t queued = 0;  // SQ tail: SQEs accepted into the ring
    std::uint64_t issued = 0;  // SQ head: SQEs drained to the backend
    std::uint64_t posted = 0;  // CQ tail: CQEs produced
    std::uint64_t reaped = 0;  // CQ head: CQEs consumed
    // user_data -> outstanding completions owed (>1 only if an application
    // reuses user_data across concurrent SQEs, which the rings permit).
    CountMap inflight;
  };
  struct TagState {
    unsigned depth = 0;
    unsigned in_use = 0;
    std::vector<char> held;
  };
  RingState& ring_state(unsigned ring) DK_REQUIRES(mu_);
  TagState& tag_state(unsigned hw_queue) DK_REQUIRES(mu_);
  void violation(Violation kind, int line, const std::string& message)
      DK_REQUIRES(mu_);

  // Recursive so a failure handler may query this validator re-entrantly.
  mutable RecursiveMutex mu_;
  MetricsRegistry* registry_ DK_GUARDED_BY(mu_);
  std::unordered_map<unsigned, RingState> rings_ DK_GUARDED_BY(mu_);
  std::unordered_map<unsigned, TagState> tags_ DK_GUARDED_BY(mu_);
  DescriptorMap descriptors_ DK_GUARDED_BY(mu_);
  CountMap ios_inflight_ DK_GUARDED_BY(mu_);
  NodePool<CountMap> count_nodes_ DK_GUARDED_BY(mu_);
  NodePool<DescriptorMap> descriptor_nodes_ DK_GUARDED_BY(mu_);
  std::uint64_t descriptors_completed_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t ios_resolved_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t faults_injected_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t corruptions_detected_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t corruptions_resolved_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t journal_intents_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t journal_resolved_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t background_scheduled_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t background_resolved_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t traces_audited_ DK_GUARDED_BY(mu_) = 0;
  std::uint64_t counts_[kViolationKinds] DK_GUARDED_BY(mu_) = {};
  std::uint64_t total_ DK_GUARDED_BY(mu_) = 0;
  std::vector<std::string> log_ DK_GUARDED_BY(mu_);
};

}  // namespace dk
