// UIFD — the DeLiBA-K Unified I/O FPGA Driver (§III-B).
//
// Sits under the DMQ block layer as its blk::Driver: for each dispatched
// request it allocates work on the QDMA engine (H2C DMA for write payloads,
// C2H DMA for read payloads), then hands the storage-side execution to a
// pluggable remote-I/O functor (the FPGA's CRUSH/EC accelerators + TCP/IP
// offload + cluster, wired up by the framework in src/core). The DMA moves
// the request's own payload (a write's buffer view, the pages a read
// fetched), so an armed DmaCorruptionWindow flips real bytes in flight; a
// request without one keeps the QDMA timing-only.
//
// The driver keeps each request under its block-layer (hw queue, tag) until
// it completes, so its DMA and remote completions carry only those indices
// and the per-I/O path allocates nothing.
//
// One QDMA queue set is allocated per hardware queue, classed replication
// or erasure-coding; each io_uring instance's CPU maps to one hardware
// queue maps to one queue set, giving the per-core end-to-end alignment the
// paper describes. SR-IOV: a UIFD instance can be bound to a QDMA virtual
// function, giving tenants isolated queue sets (thin-hypervisor model).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "blk/mq.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "fpga/device.hpp"

namespace dk::host {

struct UifdConfig {
  unsigned nr_hw_queues = 3;
  fpga::QueueClass queue_class = fpga::QueueClass::replication;
  unsigned virtual_function = 0;  // SR-IOV VF (0 == physical function)
};

struct UifdStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t h2c_bytes = 0;
  std::uint64_t c2h_bytes = 0;
  std::uint64_t errors = 0;
  std::uint64_t dma_retries = 0;  // QDMA ops re-issued after an async error
};

/// Storage-side executor: performs the remote part of the request (card ->
/// network -> OSDs -> card) and reports bytes-done or negative error.
using RemoteIoFn = sim::UniqueFn<void(const blk::Request&, blk::CompleteFn)>;

class UifdDriver final : public blk::Driver {
 public:
  UifdDriver(fpga::FpgaDevice& device, UifdConfig config, RemoteIoFn remote);

  const UifdConfig& config() const { return config_; }
  const UifdStats& stats() const { return stats_; }
  const std::vector<unsigned>& queue_sets() const { return queue_sets_; }

  /// blk::Driver: writes DMA host->card first, then run remotely; reads run
  /// remotely first, then DMA card->host. The request must carry its
  /// block-layer tag, and its hw queue must be one of this driver's.
  void queue_rq(blk::Request request) override;

  /// Publish driver activity under "<prefix>." (writes/reads/h2c_bytes/
  /// c2h_bytes/errors counters plus an in-flight gauge).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  /// A request in flight, with the remote result a read carries across its
  /// C2H DMA.
  struct Slot {
    blk::Request request;
    std::int32_t res = 0;
  };
  Slot& slot(unsigned hwq, unsigned tag) { return slots_[hwq][tag]; }

  /// Issue the request's payload DMA (H2C for writes, C2H for reads),
  /// transparently re-driving the doorbell on async errors (injected
  /// descriptor-fetch / completion faults) up to a small attempt cap.
  /// Synchronous rejects (ring full) are NOT retried here — that would spin
  /// at the same sim instant; backpressure belongs to the submitter.
  void dma(unsigned hwq, unsigned tag, unsigned attempt);
  void on_dma(unsigned hwq, unsigned tag, unsigned attempt, Status s);
  void run_remote(unsigned hwq, unsigned tag);
  /// Complete the request: error accounting, then its completion, moved
  /// out first because it may dispatch a new request onto this tag.
  void finish(unsigned hwq, unsigned tag, std::int32_t res);

  fpga::FpgaDevice& device_;
  UifdConfig config_;
  RemoteIoFn remote_;
  std::vector<unsigned> queue_sets_;
  // [hw_queue][tag]; a deque grows by tag without moving a slot, so the
  // request a remote executor was handed stays put until it completes.
  std::vector<std::deque<Slot>> slots_;
  UifdStats stats_;

  struct MetricHandles {
    Counter* writes = nullptr;
    Counter* reads = nullptr;
    Counter* h2c_bytes = nullptr;
    Counter* c2h_bytes = nullptr;
    Counter* errors = nullptr;
    Gauge* inflight = nullptr;
    Counter* dma_retries = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::host
