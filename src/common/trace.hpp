// Per-request stage tracing for the client I/O path.
//
// A StageTrace timestamps each hop of one block I/O as it moves through the
// stack — SQE submission, SQ drain (enter()/SQ-poll), DMQ entry, driver
// dispatch (UIFD + payload DMA), RADOS fan-out, last OSD reply, CQE
// completion. Timestamps are plain Nanos, so the same trace type serves the
// discrete-event simulation (pass sim.now()) and the live RAM-disk path
// (pass trace_wall_now()).
//
// Completed traces are fed to a TraceCollector, which turns adjacent-stage
// deltas into named latency histograms in a MetricsRegistry — the
// "stage.<from>_to_<to>" breakdowns the bench binaries export as JSON.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/metrics.hpp"
#include "common/units.hpp"

namespace dk {

/// The hops of one I/O, in pipeline order (see docs/ARCHITECTURE.md).
enum class Stage : std::uint8_t {
  submit = 0,       // application queues the SQE / enters the legacy syscall
  sq_dispatch,      // SQ drained (enter() or SQ-poll thread); backend owns it
  blk_enter,        // host submission work charged; bio enters the DMQ layer
  driver_dispatch,  // blk-mq handed the request to UIFD (incl. payload DMA)
  rados_issue,      // FPGA stages done; RADOS op(s) put on the wire
  remote_complete,  // last OSD reply (and read payload DMA) back at the host
  complete,         // CQE posted and host completion work finished
};

inline constexpr std::size_t kStageCount = 7;

std::string_view stage_name(Stage s);

/// Timestamp for live (non-DES) tracing: the wall clock
/// (common/wall_clock.hpp, the one dklint-allowed wall-clock read). DES code
/// never uses this — it marks stages with sim.now().
Nanos trace_wall_now();

class StageTrace {
 public:
  StageTrace() { reset(); }

  /// Record `t` for stage `s`. First mark wins: when the block layer splits
  /// a bio, every fragment passes the same stages and the trace keeps the
  /// earliest hop time, which keeps the sequence monotonic.
  void mark(Stage s, Nanos t);

  bool has(Stage s) const { return at(s) >= 0; }
  /// Timestamp of `s`, or -1 when the stage was never reached.
  Nanos at(Stage s) const { return t_[static_cast<std::size_t>(s)]; }

  /// Number of stages with a timestamp.
  unsigned marked() const;

  /// True when the marked stages are non-decreasing in pipeline order.
  bool monotonic() const;

  /// complete - submit, or 0 if either end is missing.
  Nanos total() const;

  void reset() { t_.fill(-1); }

 private:
  std::array<Nanos, kStageCount> t_;
};

/// Aggregates completed StageTraces into a MetricsRegistry: one histogram
/// per adjacent marked-stage transition ("<prefix>.<from>_to_<to>") plus
/// "<prefix>.end_to_end". Handles are resolved once and cached.
class TraceCollector {
 public:
  explicit TraceCollector(MetricsRegistry& registry,
                          std::string prefix = "stage");

  void collect(const StageTrace& trace);

  std::uint64_t collected() const { return collected_; }

 private:
  HistogramMetric& transition(std::size_t from, std::size_t to);

  MetricsRegistry& registry_;
  std::string prefix_;
  std::uint64_t collected_ = 0;
  // [from][to] handle cache; transitions are sparse (usually from -> from+1).
  std::array<std::array<HistogramMetric*, kStageCount>, kStageCount> cache_{};
  HistogramMetric* end_to_end_ = nullptr;
};

}  // namespace dk
