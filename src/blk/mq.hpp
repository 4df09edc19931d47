// Linux multi-queue block layer model — the "DMQ" layer of DeLiBA-K.
//
// Structure mirrors blk-mq (Bjørling et al., SYSTOR'13, and Linux >= 3.13):
//   * per-CPU software queues (blk_mq_ctx) absorb submissions;
//   * hardware queues (blk_mq_hctx) own bounded tag sets and dispatch to the
//     driver (queue_rq);
//   * CPUs map onto hardware queues (cpu % nr_hw_queues), aligning each
//     io_uring instance's core with one hardware queue, as §III-B describes;
//   * an optional single-queue elevator with front/back merging models the
//     stock MQ scheduler, and `bypass_scheduler` models the DeLiBA-K DMQ
//     modification: requests go straight from submission to dispatch,
//     because per-core pinning already guarantees locality and ordering.
//
// Oversized requests are split to the device limit; adjacent requests merge
// (scheduler mode only); tags exhaust and re-pump on completion. Like a Linux
// bio, a request carries a view of its payload: a split fragment views its
// slice of the parent's buffer, and a merge happens only where the buffers
// continue each other, so the driver always sees one contiguous view. A read
// may instead name the payload its fetched pages land in; each fragment gets
// its own, and two such reads never merge.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/page.hpp"
#include "common/status.hpp"
#include "sim/event_pool.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::blk {

enum class ReqOp : std::uint8_t { read, write, flush };

/// Request completion: bytes done (>= 0) or a negative errno-style code.
using CompleteFn = sim::UniqueFn<void(std::int32_t)>;

struct Request {
  ReqOp op = ReqOp::read;
  std::uint64_t offset = 0;   // bytes
  std::uint32_t len = 0;      // bytes
  // Payload: exactly `len` bytes of the submitter's buffer, or empty for
  // timing-only submitters. Must outlive the completion.
  std::span<std::uint8_t> data;
  // Reads: where the driver leaves the pages it fetched, which the C2H DMA
  // then moves; null for timing-only submitters. A read the layer splits
  // hands fragment i `pages + i`, so its submitter provides one payload per
  // max_io_bytes of the read. Must outlive the completion.
  Payload* pages = nullptr;
  std::uint64_t user_data = 0;
  unsigned tag = ~0u;         // assigned at dispatch
  unsigned hw_queue = 0;      // assigned at submission
  // Completion. For merged requests the block layer fans completion back
  // out to every merged bio. At dispatch the block layer parks the
  // submitter's completion under (hw_queue, tag) and hands the driver one
  // that ends the request there.
  CompleteFn complete;
};

/// The device driver under the block layer (UIFD in DeLiBA-K).
class Driver {
 public:
  virtual ~Driver() = default;
  /// Owns the request until it calls request.complete(res) (possibly
  /// asynchronously), which releases the tag in the block layer.
  virtual void queue_rq(Request request) = 0;
};

struct MqConfig {
  unsigned nr_hw_queues = 3;
  unsigned queue_depth = 256;      // tags per hardware queue
  std::uint32_t max_io_bytes = 512 * 1024;  // device transfer limit
  bool bypass_scheduler = true;    // DeLiBA-K DMQ mode; else the elevator
};

struct MqStats {
  std::uint64_t submitted = 0;     // bios entering the layer
  std::uint64_t dispatched = 0;    // requests handed to the driver
  std::uint64_t completed = 0;
  std::uint64_t merges = 0;        // bios absorbed into existing requests
  std::uint64_t splits = 0;        // extra requests created by splitting
  std::uint64_t sched_bypass = 0;  // requests skipping the elevator
  std::uint64_t tag_waits = 0;     // dispatch stalls on tag exhaustion
};

class MqBlockLayer {
 public:
  MqBlockLayer(MqConfig config, Driver& driver);

  const MqConfig& config() const { return config_; }
  const MqStats& stats() const { return stats_; }

  /// Hardware queue a CPU's submissions ride (cpu % nr_hw_queues).
  unsigned hw_queue_of_cpu(unsigned cpu) const {
    return cpu % config_.nr_hw_queues;
  }

  /// Submit a bio from the given CPU. Splitting/merging/queueing happen
  /// here; dispatch to the driver happens immediately for available tags.
  Status submit(unsigned cpu, Request request);

  /// Kick dispatch on every hardware queue (kblockd work). Needed after
  /// completions release tags while the elevator holds queued requests.
  void run_queues();

  /// Tags currently held by in-flight requests on a hardware queue.
  unsigned tags_in_use(unsigned hw_queue) const {
    return config_.queue_depth -
           static_cast<unsigned>(free_tags_[hw_queue].size());
  }
  std::size_t queued(unsigned hw_queue) const {
    return pending_[hw_queue].size();
  }

  /// Publish layer activity under "<prefix>." (submitted/dispatched/
  /// completed/merges/splits/sched_bypass/tag_waits counters, plus gauges
  /// for tags in use and elevator occupancy across all hardware queues).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Report tag acquire/release to `validator` (one tag set per hardware
  /// queue, depth = queue_depth). Same pattern as attach_metrics().
  void attach_validator(PipelineValidator& validator);

 private:
  void dispatch(unsigned hw_queue);
  /// Split a bio over the device transfer limit into fragments that share
  /// one completion.
  Status split(unsigned cpu, Request request);
  bool try_merge(unsigned hw_queue, Request& request);
  /// The driver finished the request holding (hw_queue, tag): release the
  /// tag, run the parked completion, and re-pump the queue.
  void end_request(unsigned hw_queue, unsigned tag, std::int32_t res);

  MqConfig config_;
  Driver& driver_;
  // Per-hardware-queue elevator queues and free-tag stacks. A tag set is a
  // free-list (like sbitmap in blk-mq): pop on dispatch, push on complete,
  // so concurrently in-flight requests always hold distinct tags.
  std::vector<std::deque<Request>> pending_;
  std::vector<std::vector<unsigned>> free_tags_;
  // The submitter's completion of each dispatched request, by [hwq][tag].
  std::vector<std::vector<CompleteFn>> parked_;
  MqStats stats_;
  PipelineValidator* validator_ = nullptr;

  struct MetricHandles {
    Counter* submitted = nullptr;
    Counter* dispatched = nullptr;
    Counter* completed = nullptr;
    Counter* merges = nullptr;
    Counter* splits = nullptr;
    Counter* sched_bypass = nullptr;
    Counter* tag_waits = nullptr;
    Gauge* tags_in_use = nullptr;
    Gauge* queued = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::blk
