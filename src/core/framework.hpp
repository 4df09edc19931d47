// The DeLiBA framework: one object that assembles a complete client stack —
// io_uring (or legacy NBD path) -> DMQ block layer -> UIFD -> FPGA (QDMA,
// CRUSH/EC kernels, TCP offload) -> simulated 10 GbE -> 32-OSD cluster —
// according to a VariantKind, and exposes an asynchronous block-device API.
//
// Functional and timed: every write really lands bytes in OSD object
// stores (reads verify them); every stage charges simulated time from
// calibration.hpp. Host-side work serializes on per-uring-instance worker
// stations, which is what produces the throughput differences between
// variants (legacy stacks occupy their single NBD event loop far longer
// per I/O than the DeLiBA-K kernel path occupies a core).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "blk/mq.hpp"
#include "common/metrics.hpp"
#include "common/pipeline_validator.hpp"
#include "common/trace.hpp"
#include "core/calibration.hpp"
#include "core/variant.hpp"
#include "crush/builder.hpp"
#include "ec/reed_solomon.hpp"
#include "fpga/device.hpp"
#include "host/rbd.hpp"
#include "host/uifd.hpp"
#include "rados/background.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/resources.hpp"
#include "uring/io_uring.hpp"
#include "uring/registry.hpp"

namespace dk::core {

enum class PoolMode { replicated, erasure };

struct FrameworkConfig {
  VariantKind variant = VariantKind::delibak;
  PoolMode pool_mode = PoolMode::replicated;
  unsigned replica_size = 2;           // one replica per host in the testbed
  ec::Profile ec_profile{4, 2, ec::GeneratorKind::vandermonde};

  unsigned uring_instances = 3;        // paper: 3 instances, core-pinned
  uring::RingMode ring_mode = uring::RingMode::kernel_polled;
  std::optional<bool> dmq_bypass_override;  // ablation hook
  std::optional<rados::WriteStrategy> write_strategy_override;  // ablation

  crush::BucketAlg placement_alg = crush::BucketAlg::straw2;

  std::uint64_t image_size = 256 * MiB;
  std::uint64_t object_size = 4 * MiB;

  /// Deterministic fault schedule (frame loss/delay, OSD crash/restart,
  /// QDMA descriptor errors). Default-empty == disabled: no injector is
  /// built, no timers armed, and every bench output is byte-identical to a
  /// faultless build. Enabling it also arms the RADOS client's per-op
  /// deadlines and retries (RadosClient::arm_retries), so injected faults
  /// are survivable.
  sim::FaultPlan fault_plan;

  /// End-to-end data integrity: per-4kB CRC32C checksums at client write
  /// submission, stored per-object on the OSDs, verified at OSD read and
  /// again on client receive; payload checksum cover across the QDMA hop;
  /// checksum mismatches trigger read-repair. Integrity also arms the
  /// blockstore WAL under every OSD, uncharged unless blockstore.enabled:
  /// a torn write is discarded on restart replay (it was never
  /// acknowledged). Default off: no checksums are computed, no integrity.*
  /// metrics registered, and every faults-off bench output stays
  /// byte-identical to builds without this subsystem.
  bool integrity = false;

  /// Journaled blockstore under every OSD (vitastor-style WAL + modeled
  /// data area): writes land as CRC-32C journal records with append/fsync/
  /// compaction costs charged through the OSD service stations; sub-4 kB
  /// writes coalesce; the journal is a capped ring with a trim watermark;
  /// crashes tear the tail record and restart replays exactly the
  /// acknowledged prefix. Default off (enabled = false): no Blockstore is
  /// constructed, no blockstore.* metrics registered, and bench output
  /// stays byte-identical to builds without this subsystem.
  rados::BlockstoreConfig blockstore;

  /// Time-charged background I/O: per-OSD deep scrub on staggered sim
  /// timers with an IO-impact budget (token-bucket pacing at scrub_bps),
  /// and paced recovery — a mark-out triggers backfill throttled at
  /// recovery_max_bps, routed through the OSDs' two-class service stations
  /// so it queues with (and yields to) client I/O. Default off
  /// (enabled = false): no scheduler is constructed, no timers armed, no
  /// background.* metrics registered, and bench output stays byte-identical
  /// to builds without this subsystem.
  rados::BackgroundConfig background;
};

struct FrameworkStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t sw_placement_fallbacks = 0;  // RM absent -> host CRUSH
  std::uint64_t fpga_placements = 0;
};

using WriteDoneFn = sim::UniqueFn<void(std::int32_t)>;
/// A read's bytes: the pages the cluster delivered, laid out for the image
/// offset (common/page.hpp).
using ReadDoneFn = rados::ReadCallback;
/// The same bytes copied into one vector.
using VectorReadDoneFn = rados::VectorReadCallback;

class Framework {
 public:
  Framework(sim::Simulator& sim, FrameworkConfig config = {});
  ~Framework();

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  const FrameworkConfig& config() const { return config_; }
  VariantTraits traits() const { return variant_traits(config_.variant); }
  const FrameworkStats& stats() const { return stats_; }

  /// Per-instance observability sink. Every layer of this stack (rings,
  /// DMQ, UIFD, QDMA, RBD, RADOS client, OSDs) publishes counters/gauges
  /// here, and completed I/Os contribute per-stage latency histograms
  /// ("stage.*"). Export with metrics().to_json().
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Stage trace of the most recently completed I/O (diagnostics/tests).
  const StageTrace& last_trace() const { return last_trace_; }

  /// Per-instance pipeline invariant checker, wired to every layer of this
  /// stack next to attach_metrics(): SQ/CQ accounting, blk-mq tag
  /// lifecycle, QDMA descriptor lifecycle, and StageTrace hop ordering.
  /// Violations count under "check.violations.*" in metrics(); call
  /// validator().verify_quiescent() after draining for leak checks.
  PipelineValidator& validator() { return validator_; }
  const PipelineValidator& validator() const { return validator_; }

  /// Fault injector for this stack, or nullptr when fault_plan is empty.
  sim::FaultInjector* faults() { return faults_.get(); }

  /// Background scheduler (scrub + paced recovery), or nullptr when
  /// config.background.enabled is false.
  rados::BackgroundScheduler* background() { return background_.get(); }

  sim::Simulator& simulator() { return sim_; }
  rados::Cluster& cluster() { return *cluster_; }
  rados::RadosClient& rados_client() { return *client_; }
  fpga::FpgaDevice* fpga() { return fpga_.get(); }
  uring::UringRegistry* urings() { return urings_.get(); }
  blk::MqBlockLayer& mq() { return *mq_; }
  host::RbdDevice& image() { return *image_; }

  /// Asynchronous block write from job (fio thread) `job`.
  void write(unsigned job, std::uint64_t offset,
             std::vector<std::uint8_t> data, WriteDoneFn cb);

  /// Asynchronous block read: `cb` gets the pages the cluster delivered
  /// (a replicated read's are the store's own), which no layer of this
  /// stack copies on the way.
  void read(unsigned job, std::uint64_t offset, std::uint64_t length,
            ReadDoneFn cb);
  /// The same read, copied into a vector for `cb`.
  void read(unsigned job, std::uint64_t offset, std::uint64_t length,
            VectorReadDoneFn cb);

  /// Effective strategies (variant defaults or ablation overrides).
  rados::WriteStrategy write_strategy() const;
  rados::ReadStrategy read_strategy() const;

  /// Host-side submission-path cost for an I/O of `bytes` (exposed for the
  /// microbench that decomposes API overheads).
  Nanos host_submit_cost(bool is_write, std::uint64_t bytes) const;
  Nanos host_complete_cost(bool is_write, std::uint64_t bytes) const;
  Nanos host_occupancy_extra(std::uint64_t bytes) const;

 private:
  // One I/O's state, built and finished in place in a recycled slot.
  struct IoCtx {
    std::uint32_t slot = 0;  // index in slots_; kept across reuse
    // The validator's and the SQE's handle: a sequence number above the
    // slot index (low 32 bits), so tokens stay unique as slots recycle.
    // 0 while the slot is free.
    std::uint64_t token = 0;
    bool is_read = false;
    unsigned job = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    // The write's bytes. The block request views them; split fragments
    // view slices of them.
    std::vector<std::uint8_t> data;
    // The read's bytes as the cluster delivered them (the stores' pages, by
    // reference): one payload per block-layer fragment, each a request's
    // `pages`, joined in offset order when the read completes. Keeps its
    // capacity for the slot's next I/O.
    std::vector<Payload> pages;
    // Integrity mode: per-4 kB checksum cover for the payload's QDMA hop,
    // one entry per block of the I/O. Writes checksum at submit and each
    // fragment verifies its slice after H2C; each read fragment fills its
    // slice at RADOS delivery and the whole is verified after C2H.
    std::vector<std::uint32_t> dma_checksums;
    bool corruption_detected = false;  // counted once per I/O
    WriteDoneFn wcb;
    ReadDoneFn rcb;
    Status read_error;
    uring::CompleteFn ring_complete;  // posts the CQE
    StageTrace trace;                 // per-stage timestamps
  };

  class PipelineDriver;  // blk::Driver adapter continuing into FPGA/cluster

  IoCtx& acquire();
  void submit(IoCtx& io);
  /// The in-flight I/O holding `token` (the SQE and the driver dispatch
  /// look it up; every other hop holds the slot's address).
  IoCtx& slot_of(std::uint64_t token);
  void start_io(IoCtx& io);
  void enter_block_layer(IoCtx& io);
  void wire_metrics();
  void wire_validator();
  void run_remote(const blk::Request& request, blk::CompleteFn done);
  void note_corruption(IoCtx& ctx);
  /// The I/O is resolved: validator and in-flight gauge.
  void retire(IoCtx& io);
  void finish_io(IoCtx& io, std::int32_t res);
  /// Move the callback and the result out of the slot, free the slot
  /// (which the callback may reuse for the next I/O), then call back.
  void deliver(IoCtx& io, std::int32_t res);
  Nanos fpga_stage_latency(bool is_write, std::uint64_t bytes);
  Nanos sw_crush_time() const;

  sim::Simulator& sim_;
  FrameworkConfig config_;
  VariantTraits traits_;
  FrameworkStats stats_;

  // Observability: registry first so members initialized later may attach.
  MetricsRegistry metrics_;
  TraceCollector trace_collector_{metrics_};
  PipelineValidator validator_{&metrics_};
  StageTrace last_trace_;
  Counter* m_writes_ = nullptr;
  Counter* m_reads_ = nullptr;
  Counter* m_bytes_written_ = nullptr;
  Counter* m_bytes_read_ = nullptr;
  Counter* m_completions_ = nullptr;
  Counter* m_errors_ = nullptr;
  Gauge* m_inflight_ = nullptr;
  Counter* m_checksum_failures_ = nullptr;  // integrity mode only

  std::unique_ptr<rados::Cluster> cluster_;
  std::unique_ptr<rados::RadosClient> client_;
  std::unique_ptr<fpga::FpgaDevice> fpga_;
  std::unique_ptr<host::RbdDevice> image_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<rados::BackgroundScheduler> background_;

  // Host CPU stations: one per io_uring instance (or the single NBD loop).
  // Submissions (and the per-I/O deferred-bookkeeping occupancy) serialize
  // on workers_; completion processing runs on its own station per
  // instance (softirq / reply-thread context), so deferred submission-side
  // work does not delay completions at low queue depth.
  std::vector<std::unique_ptr<sim::FifoServer>> workers_;
  std::vector<std::unique_ptr<sim::FifoServer>> completion_workers_;

  // Ring front-end (uring variants only): backend feeds enter_block_layer.
  class RingBackend;
  std::unique_ptr<RingBackend> ring_backend_;
  std::unique_ptr<uring::UringRegistry> urings_;

  std::unique_ptr<PipelineDriver> driver_;
  std::unique_ptr<host::UifdDriver> uifd_;
  std::unique_ptr<blk::MqBlockLayer> mq_;

  int pool_ = -1;
  std::uint64_t next_token_ = 1;
  // IoCtx slots (a deque: a slot never moves while callbacks point at it)
  // and the indices of the free ones.
  std::deque<IoCtx> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace dk::core
