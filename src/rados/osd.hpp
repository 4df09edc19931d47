// Simulated OSD (Object Storage Daemon).
//
// Each OSD owns an object store, a small pool of op threads (FIFO queueing),
// and a media model (fixed access time + bandwidth term). It speaks the
// OpBody protocol: serving client reads/writes, acting as replication
// primary (fan-out to replica OSDs), serving EC shard reads/writes, and
// charging recovery pushes in the background service class. A recovery
// move persists through apply_durable(), the same WAL choke point.
//
// Crash consistency has one path: when integrity or the blockstore is armed
// every store mutation goes through the Blockstore WAL (append, then
// commit), a crash mid-append tears the tail record, and restart replays
// the journal, discarding the torn record. Only blockstore.enabled charges
// the WAL's simulated time; an integrity-only arming runs it uncharged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/node_pool.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "ec/reed_solomon.hpp"
#include "net/network.hpp"
#include "rados/blockstore.hpp"
#include "rados/messages.hpp"
#include "rados/object_store.hpp"
#include "sim/resources.hpp"

namespace dk::sim {
class FaultInjector;
}  // namespace dk::sim

namespace dk::rados {

// The OSD service model, one value each for the paper's testbed.
constexpr unsigned kOpThreads = 2;  // parallel op worker shards
constexpr Nanos kOpFixed = us(10);  // per-op CPU + BlueStore metadata cost
constexpr Nanos kMediaReadFixed = us(20);  // cold read access (cache miss)
constexpr Nanos kMediaWriteFixed = us(5);  // WAL commit (writes are deferred)
constexpr double kMediaBps = 2.0e9;  // media streaming bandwidth, bytes/s
// exponential jitter, fraction of base time
constexpr double kJitterFrac = 0.10;
// software jerasure encode/decode bandwidth
constexpr double kEcEncodeBps = 1.2e9;

/// Callback the OSD uses to send protocol messages (bound to its node's NIC
/// by the cluster).
using SendFn =
    sim::UniqueFn<void(int dst_osd_or_client, std::shared_ptr<OpBody>)>;

class Osd {
 public:
  Osd(sim::Simulator& sim, int id, std::uint64_t seed);

  int id() const { return id_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  std::uint64_t ops_served() const { return ops_served_; }

  /// Wire up the messenger. `send(dst, body)` with dst == -1 targets the
  /// client node, otherwise the given OSD id.
  void set_sender(SendFn send) { send_ = std::move(send); }

  /// Handle a delivered protocol message addressed to this OSD.
  void handle(std::shared_ptr<OpBody> body);

  /// Crash / restart the OSD process. Crashing loses all in-flight op state
  /// (pending acks, shard gathers, cache-locality history) — the durable
  /// object store survives, like a real OSD restarting on intact media.
  /// While crashed the cluster drops every message addressed to this OSD.
  void set_crashed(bool crashed);
  bool crashed() const { return crashed_; }

  /// Integrity mode: stored blocks carry checksums and every read verifies
  /// them before replying (mismatch -> Errc::corrupted reply). The cluster
  /// also arms the WAL (arm_blockstore) so torn writes stay recoverable.
  void set_integrity(bool on) { store_.set_integrity(on); }
  bool integrity() const { return store_.integrity(); }

  /// Fault-injection hooks (torn-write prefixes draw from the injector's
  /// corruption stream; injections are counted there).
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Arm the journaled blockstore under this OSD's store: every durable
  /// mutation lands as a WAL record before touching the data area, and
  /// crash recovery replays the acknowledged journal prefix. Append/fsync/
  /// compaction costs are charged through the op-thread stations only when
  /// `config.enabled` is set. Call once at construction, before traffic.
  void arm_blockstore(const BlockstoreConfig& config);
  Blockstore* blockstore() { return blockstore_.get(); }
  const Blockstore* blockstore() const { return blockstore_.get(); }

  /// Journal-intent accounting for the blockstore (journal_leak rule).
  void set_validator(PipelineValidator* validator);

  /// Arm a torn write: the next store apply on this (crashed) OSD tears
  /// the tail WAL record at a byte boundary, so the data area never sees
  /// it and replay discards it. Honoured only when a WAL is armed (see
  /// OsdCrashEvent::torn_write).
  void arm_torn_write() { torn_armed_ = true; }

  /// Crash recovery: replay the WAL (apply intact records, discard the
  /// torn tail). Returns the number of records resolved; 0 without a WAL.
  std::size_t replay_journal();

  /// Public durable-apply entry (recovery's persist step): routes a write
  /// through the same WAL choke point as client ops, so it is
  /// crash-consistent too.
  void apply_durable(const ObjectKey& key, std::uint64_t offset,
                     const Payload& data,
                     std::span<const std::uint32_t> checksums) {
    apply_write(key, offset, data, checksums);
  }

  /// Enqueue background-class work (scrub chunk read, recovery read or
  /// persist) on this OSD's op-thread station: it queues behind client ops
  /// and is admitted by the station's starvation guard, so background
  /// traffic costs simulated time and contends for the same service
  /// capacity as foreground I/O.
  void submit_background(Nanos service, sim::EventFn done) {
    workers_.submit_background(service, std::move(done));
  }

  /// The op-thread station (background-class accounting: bg_busy_time(),
  /// preemptions()).
  const sim::FifoServer& workers() const { return workers_; }

  /// Sampled service time for an op of `bytes` at (key, offset); queueing
  /// not included. Models two cache effects of the real backend:
  ///   * readahead — a read contiguous with the previous read of the same
  ///     object skips the media access (prefetched);
  ///   * WAL write combining — a write contiguous with the previous write
  ///     commits into the open journal batch, skipping the media fixed cost.
  Nanos service_time(std::uint64_t bytes, bool is_write, const ObjectKey& key,
                     std::uint64_t offset);

  /// Publish OSD-side activity under "<prefix>." (ops counter plus read/
  /// write service-time histograms). Many OSDs typically share one registry
  /// and prefix, yielding cluster-aggregate OSD service distributions.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  /// Single choke point for every durable store mutation: with a WAL armed
  /// the record is appended, then committed — or, on an armed torn write,
  /// torn and left for replay to discard; without one the store applies
  /// the write directly.
  void apply_write(const ObjectKey& key, std::uint64_t offset,
                   const Payload& data,
                   std::span<const std::uint32_t> checksums);

  void do_client_write(std::shared_ptr<OpBody> body);
  /// Persist one replica or shard, then ack the requester.
  void do_sub_write(std::shared_ptr<OpBody> body);
  void do_write_ack(std::shared_ptr<OpBody> body);
  /// Verify and read a replica or shard, then reply to the requester.
  void do_read(std::shared_ptr<OpBody> body);
  void do_read_reply(std::shared_ptr<OpBody> body);
  void do_ec_primary_write(std::shared_ptr<OpBody> body);
  void do_ec_primary_read(std::shared_ptr<OpBody> body);

  // Pending primary-copy / EC writes awaiting acks: op_id -> remaining.
  struct PendingWrite {
    unsigned awaiting = 0;
    std::shared_ptr<OpBody> reply;
  };
  // Pending EC primary reads gathering shard data.
  struct PendingRead {
    unsigned awaiting = 0;
    const ec::ReedSolomon* codec = nullptr;
    std::uint64_t offset = 0;  // original (unsharded) read extent
    std::uint64_t length = 0;
    std::vector<Payload> shards;  // the k data shards, by shard index
    std::shared_ptr<OpBody> reply;
  };

  sim::Simulator& sim_;
  int id_;
  Rng rng_;
  ObjectStore store_;
  sim::FifoServer workers_;
  SendFn send_;
  // Readahead / write-combining state: last access end per object.
  std::map<ObjectKey, std::uint64_t> last_read_end_;
  std::map<ObjectKey, std::uint64_t> last_write_end_;
  std::map<std::uint64_t, PendingWrite> pending_;
  std::map<std::uint64_t, PendingRead> pending_reads_;
  NodePool<std::map<std::uint64_t, PendingWrite>> pending_nodes_;
  NodePool<std::map<std::uint64_t, PendingRead>> read_nodes_;
  std::uint64_t ops_served_ = 0;
  bool crashed_ = false;
  bool torn_armed_ = false;
  sim::FaultInjector* faults_ = nullptr;
  std::unique_ptr<Blockstore> blockstore_;
  PipelineValidator* validator_ = nullptr;

  struct MetricHandles {
    Counter* ops = nullptr;
    HistogramMetric* read_service = nullptr;
    HistogramMetric* write_service = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::rados
