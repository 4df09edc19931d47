// Recovery, backfill, scrub, and repair for the simulated cluster.
//
// When CRUSH placement changes (an OSD marked out, weights adjusted, disks
// added — the cluster-resize events that drive DFX reconfiguration in
// §IV.C), objects must move so the stored locations again match the acting
// sets. RecoveryManager computes that delta (the backfill plan) and offers a
// scrub pass that verifies replica/shard consistency — the background
// machinery a Ceph cluster runs continuously.
//
// Every move runs through one executor, execute(), and one data path. A
// move has legs — its one source for a copy, its k verified siblings for
// an EC rebuild — and each leg goes out through Cluster::push. After the
// last leg one persist step re-derives the bytes and writes them with
// Osd::apply_durable: a copy re-reads its source's current bytes and
// stored CRCs, a rebuild runs its decode-and-write job and then decodes.
// Around that path: bounded parallelism, an optional token-bucket
// throttle, the OSDs' background service class, and the object write lock
// (Ceph's recovery_blocked). A scrub repair is an ordinary move onto the
// convicted holder — the whole object from a verified replica, or rebuilt
// from k verified EC siblings, as Ceph repairs — planned by the same
// helper as backfill.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rados/cluster.hpp"

namespace dk::rados {

struct RecoveryMove {
  ObjectKey key;
  int from_osd = -1;  // copy source (-1 for reconstruction)
  int to_osd = -1;
  std::uint64_t bytes = 0;
  // EC reconstruction: no usable holder of this shard exists, so it must be
  // rebuilt from k sibling shards (decode at the target).
  bool reconstruct = false;
  std::vector<std::pair<int, ObjectKey>> sources;  // holder, sibling key
  // Scrub repair of a checksum-convicted copy: counted in scrub_repairs()
  // rather than as a recovered object.
  bool repair = false;
};

struct RecoveryPlan {
  int pool = 0;
  std::vector<RecoveryMove> moves;
  std::vector<ObjectKey> degraded;  // objects with no surviving source

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& m : moves) sum += m.bytes;
    return sum;
  }
};

struct ScrubReport {
  std::uint64_t objects_checked = 0;
  std::uint64_t placements_ok = 0;
  std::uint64_t misplaced = 0;      // copy exists but not on an acting OSD
  std::uint64_t missing = 0;        // acting OSD lacks its copy/shard
  std::uint64_t inconsistent = 0;   // objects with an identified bad copy
                                    // (integrity off: replica byte diff)
  std::uint64_t checksum_failures = 0;  // copies/shards failing verification
  std::uint64_t repaired = 0;  // repair moves queued by repair()
};

class RecoveryManager {
 public:
  explicit RecoveryManager(Cluster& cluster) : cluster_(cluster) {}

  /// Compute the backfill plan for a pool: for every stored object, compare
  /// where its copies/shards are against the current acting set, and plan a
  /// move from a live, verifying source for each missing placement.
  RecoveryPlan plan(int pool) const;

  /// Plan one repair move per convicted (holder, key) copy: the whole
  /// object from another live holder that verifies, or — EC — a rebuild
  /// from k live siblings that verify. A copy with no verified source gets
  /// no move.
  RecoveryPlan plan_repairs(
      int pool, const std::vector<std::pair<int, ObjectKey>>& convicted) const;

  /// Throttle knobs for execute().
  struct ExecuteOptions {
    // Recovery token bucket: move launches are granted at this byte rate
    // across the whole plan (0 = unpaced).
    double max_bps = 0;
    unsigned max_parallel = 4;
    // Starvation guard: no move waits longer than this for its grant, so
    // backfill keeps moving even under an over-subscribed budget (0 = no
    // cap).
    Nanos pace_cap = ms(5);
  };

  /// Background-work accounting: each move is scheduled/resolved on the
  /// validator (the background_leak quiescence rule).
  void set_validator(PipelineValidator* validator) { validator_ = validator; }

  /// Execute a plan; `done` fires when the last move settled. At most
  /// `max_parallel` moves run at once, launches are granted by a token
  /// bucket at `max_bps`, and every leg rides the OSDs' background service
  /// class, so it queues with — and yields to — client I/O. A move is
  /// cancelled (counted in moves_cancelled()), not retried, when a source
  /// or its target crashed by grant time, when a crash or frame loss lost
  /// one of its legs, or — a rebuild — when its target had crashed as a
  /// leg was served; a later re-plan picks it up. A copy whose target
  /// crashed after its push was served still persists, as a queued client
  /// sub-write does, but does not count as landed.
  void execute(RecoveryPlan plan, const ExecuteOptions& options,
               sim::UniqueFn<void()> done);

  std::uint64_t throttle_waits() const { return throttle_waits_; }
  std::uint64_t moves_cancelled() const { return moves_cancelled_; }
  /// Move launches deferred behind an in-flight client write on the same
  /// object (the other half of the recovery_blocked barrier).
  std::uint64_t write_blocked_defers() const { return write_blocked_defers_; }

  /// Deep scrub: verify every stored object of the pool against its acting
  /// set. With cluster integrity armed the deep check is checksum-based —
  /// every copy and EC shard is verified against its stored block CRCs, so
  /// `inconsistent` identifies the bad copy even with only two replicas.
  /// Without integrity only byte-diffing replicas is possible (a diff says
  /// the copies disagree, not which one is bad).
  ScrubReport scrub(int pool) const;

  /// Checksum scrub + repair (integrity mode only; otherwise identical to
  /// scrub): every copy/shard failing verification gets a repair move
  /// (plan_repairs), run through execute() unpaced. The moves land in
  /// simulated time — drain the simulator before reading the store back;
  /// `repaired` counts the moves queued, scrub_repairs() the landed ones.
  ScrubReport repair(int pool);

  std::uint64_t objects_recovered() const { return recovered_; }
  std::uint64_t bytes_recovered() const { return bytes_; }
  std::uint64_t scrub_repairs() const { return scrub_repairs_; }

 private:
  /// One execute() call: its plan, progress and per-move leg gathers.
  struct Run;
  using RunPtr = std::shared_ptr<Run>;

  /// Grant move run->next its tokens and schedule its launch.
  void pump(const RunPtr& run);
  /// Launch move `i`: wait out an in-flight client write on its object,
  /// cancel it if an endpoint crashed, else send its legs out.
  void launch(const RunPtr& run, std::size_t i);
  /// One leg of move `i` was served at the target (or lost on the way);
  /// after the last one, the persist step re-derives the move's bytes and
  /// writes them.
  void arrive(const RunPtr& run, std::size_t i, bool arrived);
  /// Account move `i` as landed or cancelled, then pump the next one or
  /// finish the run.
  void settle(const RunPtr& run, std::size_t i, bool landed);

  Cluster& cluster_;
  PipelineValidator* validator_ = nullptr;
  std::uint64_t recovered_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t scrub_repairs_ = 0;
  // Token bucket: earliest next grant, and its accounting.
  Nanos next_grant_ = 0;
  std::uint64_t throttle_waits_ = 0;
  std::uint64_t moves_cancelled_ = 0;
  std::uint64_t write_blocked_defers_ = 0;
};

}  // namespace dk::rados
