// Time-charged background I/O for the simulated cluster: periodic deep
// scrub with an IO-impact budget, and paced (throttled) recovery.
//
// Real clusters run scrub and backfill continuously, and rebuild storms —
// an OSD dies, CRUSH reweights, every surviving OSD both serves clients and
// re-replicates — are what dominate tail latency in production. The
// BackgroundScheduler makes that traffic first-class in the simulation:
//
//   * Deep scrub: a per-OSD sim timer fires every scrub_interval (staggered
//     per OSD so the fleet never scrubs in lockstep). Each pass enumerates
//     the OSD's stored objects and reads them chunk by chunk through the
//     OSD's op-thread station in the background service class, with
//     vitastor-style inter-chunk pacing: a token bucket refilled at
//     scrub_bps delays the next chunk until the budget allows it, bounding
//     scrub's impact on client I/O. Chunks verify block checksums when
//     integrity is armed; a convicted copy is repaired by an ordinary
//     recovery move onto its holder (RecoveryManager::plan_repairs): the
//     whole object from a verified replica, or an EC shard rebuilt from k
//     verified siblings.
//   * Paced recovery: when the cluster marks an OSD out (CRUSH reweight),
//     the scheduler plans backfill across every pool and executes it.
//
// Repairs and backfill share the one executor, RecoveryManager::execute —
// bounded parallelism, a recovery_max_bps token bucket, the object write
// lock, and the two-class station scheme so every copy queues with (and
// yields to) client ops. The time from the placement change to the last
// landed backfill copy is the cluster's time-to-full-redundancy.
//
// Default off (BackgroundConfig::enabled = false): no scheduler is
// constructed, no timers armed, no background.* metrics registered, and
// every disarmed bench output stays byte-identical to builds without this
// subsystem. Timers re-arm only up to `horizon` sim-time so Simulator::run()
// still drains.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rados/recovery.hpp"

namespace dk::rados {

struct BackgroundConfig {
  bool enabled = false;

  // --- deep scrub ---------------------------------------------------------
  // Pass cadence per OSD (0 disables scrub, leaving recovery-only arming).
  Nanos scrub_interval = ms(50);
  // Per-OSD initial offset: OSD i first ticks at (i + 1) * scrub_stagger.
  Nanos scrub_stagger = us(500);
  std::uint64_t scrub_chunk_bytes = 128 * KiB;
  // IO-impact budget: scrub reads per OSD are paced to this byte rate.
  double scrub_bps = 100.0e6;
  // No scrub timer re-arms at/after this sim time; without it a periodic
  // timer would keep Simulator::run() from ever draining.
  Nanos horizon = ms(200);

  // --- paced recovery -----------------------------------------------------
  // Backfill throttle: moves are granted at this byte rate (0 = unpaced).
  double recovery_max_bps = 200.0e6;
  unsigned recovery_parallel = 4;
  // Starvation guard on pacing: no single move waits longer than this for
  // its token grant, so backfill always makes forward progress even under
  // an over-subscribed budget.
  Nanos pace_cap = ms(5);
  // Station starvation guard: consecutive client dispatches tolerated while
  // background work waits before one background job is admitted.
  unsigned starve_limit = 8;
};

/// One scheduled scrub chunk (the determinism test compares two runs'
/// timelines element-wise).
struct ScrubChunkRecord {
  Nanos at = 0;  // paced submission time
  int osd = -1;
  ObjectKey key;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;

  auto operator<=>(const ScrubChunkRecord&) const = default;
};

class BackgroundScheduler {
 public:
  BackgroundScheduler(Cluster& cluster, BackgroundConfig config);

  BackgroundScheduler(const BackgroundScheduler&) = delete;
  BackgroundScheduler& operator=(const BackgroundScheduler&) = delete;

  const BackgroundConfig& config() const { return config_; }

  /// Background-work accounting (scheduled chunks/moves must resolve
  /// completed-or-cancelled: the validator's background_leak rule).
  void set_validator(PipelineValidator* validator);

  /// Publish background activity under "<prefix>." (scrub_bytes,
  /// backfill_bytes, budget_throttle_waits, client_preemptions, plus the
  /// time_to_full_redundancy_ms gauge). Only called when armed.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Arm the per-OSD scrub timers (staggered) and the station starvation
  /// guards. Call once, after pools are created and before traffic.
  void start();

  /// Cluster hook: placement changed (an OSD was marked out). Plans and
  /// executes a paced backfill across every pool; a change arriving while
  /// recovery is active queues one re-plan after the current round.
  void on_placement_change();

  // --- introspection ------------------------------------------------------
  const std::vector<ScrubChunkRecord>& scrub_timeline() const {
    return timeline_;
  }
  std::uint64_t scrub_bytes() const { return scrub_bytes_; }
  std::uint64_t scrub_passes() const { return scrub_passes_; }
  std::uint64_t scrub_errors() const { return scrub_errors_; }
  /// Repair moves landed (a convicted copy rewritten).
  std::uint64_t scrub_repairs() const { return recovery_.scrub_repairs(); }
  std::uint64_t chunks_cancelled() const { return chunks_cancelled_; }
  std::uint64_t throttle_waits() const {
    return scrub_throttle_waits_ + recovery_.throttle_waits();
  }
  std::uint64_t moves_completed() const { return recovery_.objects_recovered(); }
  std::uint64_t backfill_bytes() const { return recovery_.bytes_recovered(); }
  bool recovery_active() const { return recovery_active_; }
  /// Sim time from the placement change that opened the most recent
  /// recovery episode to its completion (0 before any episode completed).
  Nanos time_to_full_redundancy() const { return ttfr_; }

 private:
  struct Chunk {
    ObjectKey key;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };
  struct OsdScrub {
    bool pass_active = false;
    Nanos pass_started = 0;
    Nanos next_allowed = 0;  // scrub token bucket: earliest next chunk
    std::vector<Chunk> chunks;
    std::size_t cursor = 0;
  };

  void arm_tick(int osd_id, Nanos at);
  void scrub_tick(int osd_id);
  void next_chunk(int osd_id);
  void finish_chunk(int osd_id, const Chunk& chunk);
  void repair(int osd_id, const ObjectKey& key);
  RecoveryManager::ExecuteOptions recovery_options() const;
  void start_recovery_round();
  void execute_plans(std::shared_ptr<std::vector<RecoveryPlan>> plans,
                     std::size_t index);
  void finish_recovery();
  void sync_station_metrics();

  Cluster& cluster_;
  BackgroundConfig config_;
  RecoveryManager recovery_;
  PipelineValidator* validator_ = nullptr;

  std::vector<OsdScrub> scrub_;
  std::vector<ScrubChunkRecord> timeline_;
  std::uint64_t scrub_bytes_ = 0;
  std::uint64_t scrub_passes_ = 0;
  std::uint64_t scrub_errors_ = 0;
  // Convicted (osd, key) copies whose repair move has not settled: later
  // chunks of the same copy fail verify too, and one move covers them.
  std::set<std::pair<int, ObjectKey>> repairing_;
  std::uint64_t chunks_cancelled_ = 0;
  std::uint64_t scrub_throttle_waits_ = 0;

  bool recovery_active_ = false;
  bool replan_pending_ = false;
  bool episode_open_ = false;
  Nanos recovery_started_ = 0;
  Nanos ttfr_ = 0;

  Counter* m_scrub_bytes_ = nullptr;
  Counter* m_backfill_bytes_ = nullptr;
  Counter* m_throttle_waits_ = nullptr;
  Counter* m_preemptions_ = nullptr;
  Gauge* m_ttfr_ = nullptr;
  std::uint64_t reported_backfill_bytes_ = 0;
  std::uint64_t reported_waits_ = 0;
  std::uint64_t reported_preemptions_ = 0;
};

}  // namespace dk::rados
