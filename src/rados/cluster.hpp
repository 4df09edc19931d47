// Simulated Ceph-like cluster: a client node plus server nodes hosting OSDs,
// wired over the simulated 10 GbE fabric, with CRUSH-driven placement. It
// also owns OSD crash/restart (restart replays the OSD's WAL) and the wire
// leg of recovery, push(): a background-class read at the holder, a
// backfill_push, and a background-class write service at the target.
// RecoveryManager sends every move's legs through it and persists the move
// itself.
//
// Mirrors the paper's industrial testbed: 1 client, 2 servers x 16 OSDs
// (32 OSDs total), replicated and erasure-coded pools.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/node_pool.hpp"
#include "crush/builder.hpp"
#include "ec/reed_solomon.hpp"
#include "net/network.hpp"
#include "rados/messages.hpp"
#include "rados/osd.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace dk::rados {

class BackgroundScheduler;

/// Placement groups per pool (Ceph's pg_num), the same for every pool.
constexpr unsigned kPgNum = 128;

struct PoolConfig {
  enum class Mode { replicated, erasure };

  Mode mode = Mode::replicated;
  unsigned size = 2;          // replica count (replicated pools)
  ec::Profile ec_profile;     // erasure pools
  // Erasure pools: the pool's one codec, built from ec_profile by
  // create_ec_pool. The client, the primary OSDs and shard rebuilds all
  // encode and decode with it.
  std::unique_ptr<const ec::ReedSolomon> codec;
  int crush_rule = -1;

  unsigned fanout() const {
    return mode == Mode::replicated ? size : ec_profile.total();
  }
};

struct ClusterConfig {
  crush::ClusterSpec crush;  // default: 2 hosts x 16 OSDs
  std::uint64_t seed = 1;
  // Arm OSD-side integrity: per-block checksums in every object store,
  // checksum verification before read replies, and an uncharged WAL under
  // every OSD so torn writes stay recoverable.
  bool integrity = false;
  // Arm the journaled blockstore under every OSD: WAL records + modeled
  // data area with append/fsync/compaction costs charged (enabled = false
  // keeps the zero-cost write model; with integrity set the WAL still runs,
  // uncharged).
  BlockstoreConfig blockstore;
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterConfig config = {});

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return net_; }
  net::NodeId client_node() const { return client_node_; }
  /// Read-only: after construction only set_osd_out() changes placement,
  /// so no change can get round epoch().
  const crush::ClusterLayout& layout() const { return layout_; }

  std::size_t osd_count() const { return osds_.size(); }
  Osd& osd(int id) { return *osds_[static_cast<std::size_t>(id)]; }
  net::NodeId node_of_osd(int id) const {
    return osd_nodes_[static_cast<std::size_t>(id)];
  }

  int create_replicated_pool(unsigned size);
  int create_ec_pool(ec::Profile profile);
  const PoolConfig& pool(int id) const {
    return pools_[static_cast<std::size_t>(id)];
  }
  std::size_t pool_count() const { return pools_.size(); }

  /// Placement group for an object (every pool has kPgNum), and the CRUSH
  /// input x for that PG.
  std::uint32_t pg_of(std::uint64_t oid) const;

  /// Ordered acting set (OSD ids) for an object, computed once per (pool,
  /// PG) per epoch like Ceph's OSDMapMapping. `work` accumulates one CRUSH
  /// run's work on every call, cached or not — the quantity the FPGA
  /// kernels offload. The reference is current until the next epoch bump;
  /// a caller that keeps the set across a simulator event copies it.
  const std::vector<int>& acting_set(
      int pool, std::uint64_t oid, crush::PlacementWork* work = nullptr) const;

  /// Cluster-map epoch: starts at 1 and rises by one each time any OSD's
  /// down or out flag actually changes (set_osd_down, set_osd_out,
  /// crash_osd, restart_osd).
  std::uint64_t epoch() const { return epoch_; }

  /// Mark an OSD down: placement is unchanged but clients route reads
  /// around it (degraded operation, triggering EC decode).
  void set_osd_down(int id, bool down);
  bool osd_down(int id) const {
    return down_[static_cast<std::size_t>(id)];
  }

  /// Mark an OSD out: CRUSH stops selecting it and placement remaps —
  /// the cluster-resize event that drives DFX reconfiguration in the paper.
  void set_osd_out(int id, bool out);

  /// Arm fault injection: frame loss/delay on the fabric, plus the plan's
  /// OSD crash/restart schedule (crash -> drop all messages -> monitor
  /// mark-out after the grace period -> optional restart). Call once, after
  /// construction; the plan's events are scheduled relative to sim-now.
  void arm_faults(sim::FaultInjector& faults);

  /// Immediate OSD process crash (down + in-flight state lost); messages to
  /// and from the OSD are dropped until restart_osd(). Also usable directly
  /// by tests without a FaultPlan.
  void crash_osd(int id);
  /// Bring a crashed OSD back: down/out cleared, placement restored. With a
  /// WAL armed the OSD first replays it: intact records apply, and a record
  /// a crash tore mid-append is discarded (that write was never
  /// acknowledged).
  void restart_osd(int id);

  bool integrity() const { return config_.integrity; }
  /// WAL records resolved (applied or discarded) by restart replays.
  std::uint64_t torn_writes_replayed() const { return torn_writes_replayed_; }

  /// Forward the pipeline validator to every OSD (WAL journal-intent
  /// accounting feeds the journal_leak quiescence rule).
  void set_validator(PipelineValidator* validator);

  /// Publish cluster-level integrity counters under "<prefix>."
  /// (torn_writes_replayed). Only called when integrity is armed.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Register the client-side handler for reply messages.
  void set_client_handler(sim::UniqueFn<void(std::shared_ptr<OpBody>)> fn) {
    client_handler_ = std::move(fn);
  }

  /// Send a protocol message from the client to an OSD.
  void send_from_client(int dst_osd, std::shared_ptr<OpBody> body);

  /// Aggregate ops served across all OSDs.
  std::uint64_t total_ops_served() const;

  /// One leg of a recovery move: charge a background-class read of `bytes`
  /// of `key` at `holder`, send them to `to_osd` as a backfill_push, charge
  /// their write service there in the background class, then call
  /// `arrived(true)` — or `arrived(false)` when a crashed endpoint or frame
  /// loss lost the push. Both ends queue with, and yield to, client I/O.
  /// Nothing is persisted: the move re-derives and writes its bytes after
  /// its last leg (RecoveryManager::execute).
  void push(int holder, int to_osd, const ObjectKey& key, std::uint64_t bytes,
            sim::UniqueFn<void(bool arrived)> arrived);

  /// Attach the background scheduler (scrub + paced recovery). The cluster
  /// notifies it when an OSD is marked out, so a CRUSH reweight triggers
  /// paced backfill automatically.
  void set_background(BackgroundScheduler* background) {
    background_ = background;
  }

  /// Recovery bookkeeping: while a planned backfill/reconstruction for
  /// (osd, key) has not landed, that OSD's copy is missing or stale and
  /// reads must route around it — the model's stand-in for a Ceph primary
  /// recovering a degraded object before serving it. Marked when a recovery
  /// plan starts executing, cleared as each copy persists; a cancelled move
  /// (endpoint crashed) stays marked until a later round lands it.
  void mark_object_degraded(int osd_id, const ObjectKey& key) {
    degraded_.insert({osd_id, key});
  }
  void clear_object_degraded(int osd_id, const ObjectKey& key) {
    degraded_.erase({osd_id, key});
  }
  bool object_degraded(int osd_id, const ObjectKey& key) const {
    return degraded_.count({osd_id, key}) != 0;
  }
  std::size_t degraded_objects() const { return degraded_.size(); }

  /// Client-write vs recovery serialization (Ceph's recovery_blocked): a
  /// recovery move launches only when no client write to its object is in
  /// flight, and client writes to an object whose move is mid-flight defer
  /// until it settles. Without this barrier a backfill copy races the
  /// replica fan-out and can persist a snapshot missing a write that one
  /// member already applied. Keyed by (pool, oid) — shard-agnostic, since
  /// a client write touches every shard.
  void note_client_write_begin(std::uint32_t pool, std::uint64_t oid) {
    ++write_nodes_.emplace(writes_inflight_, {pool, oid}, 0).first->second;
  }
  void note_client_write_end(std::uint32_t pool, std::uint64_t oid) {
    auto it = writes_inflight_.find({pool, oid});
    if (it == writes_inflight_.end()) return;
    if (--it->second == 0) write_nodes_.erase(writes_inflight_, it);
  }
  bool client_write_inflight(const ObjectKey& key) const {
    return writes_inflight_.count({key.pool, key.oid}) != 0;
  }
  void note_recovery_begin(const ObjectKey& key) {
    ++recovering_[{key.pool, key.oid}];
  }
  void note_recovery_end(const ObjectKey& key) {
    auto it = recovering_.find({key.pool, key.oid});
    if (it == recovering_.end()) return;
    if (--it->second == 0) recovering_.erase(it);
  }
  bool object_recovering(std::uint32_t pool, std::uint64_t oid) const {
    return recovering_.count({pool, oid}) != 0;
  }

 private:
  /// One PG's placement at `epoch` (0: never computed), and its CRUSH work.
  struct PlacementSlot {
    std::uint64_t epoch = 0;
    std::vector<int> acting;
    crush::PlacementWork work;
  };
  /// The cache miss: run do_rule for (pool, pg) and record it in `slot`.
  void place_pg(int pool, std::uint32_t pg, PlacementSlot& slot) const;

  void send_from_osd(int src_osd, int dst, std::shared_ptr<OpBody> body);
  /// A message a crashed process never consumes (or never sends).
  void drop_message(const OpBody& body);

  sim::Simulator& sim_;
  ClusterConfig config_;
  net::Network net_;
  crush::ClusterLayout layout_;
  net::NodeId client_node_ = 0;
  std::vector<net::NodeId> server_nodes_;
  std::vector<std::unique_ptr<Osd>> osds_;
  std::vector<net::NodeId> osd_nodes_;  // osd id -> hosting server node
  std::vector<bool> down_;
  std::vector<PoolConfig> pools_;
  std::uint64_t epoch_ = 1;
  // kPgNum slots per pool, filled lazily by the const acting_set().
  mutable std::vector<std::vector<PlacementSlot>> placement_;
  sim::UniqueFn<void(std::shared_ptr<OpBody>)> client_handler_;
  sim::FaultInjector* faults_ = nullptr;
  BackgroundScheduler* background_ = nullptr;
  std::set<std::pair<int, ObjectKey>> degraded_;
  using ObjectCounts =
      std::map<std::pair<std::uint32_t, std::uint64_t>, unsigned>;
  ObjectCounts writes_inflight_;
  NodePool<ObjectCounts> write_nodes_;
  ObjectCounts recovering_;
  std::uint64_t torn_writes_replayed_ = 0;
  Counter* torn_replayed_metric_ = nullptr;
};

}  // namespace dk::rados
