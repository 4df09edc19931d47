#include "rados/background.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/pipeline_validator.hpp"

namespace dk::rados {

BackgroundScheduler::BackgroundScheduler(Cluster& cluster,
                                         BackgroundConfig config)
    : cluster_(cluster), config_(config), recovery_(cluster) {}

void BackgroundScheduler::set_validator(PipelineValidator* validator) {
  validator_ = validator;
  recovery_.set_validator(validator);
}

void BackgroundScheduler::attach_metrics(MetricsRegistry& registry,
                                         const std::string& prefix) {
  m_scrub_bytes_ = &registry.counter(prefix + ".scrub_bytes");
  m_backfill_bytes_ = &registry.counter(prefix + ".backfill_bytes");
  m_throttle_waits_ = &registry.counter(prefix + ".budget_throttle_waits");
  m_preemptions_ = &registry.counter(prefix + ".client_preemptions");
  m_ttfr_ = &registry.gauge(prefix + ".time_to_full_redundancy_ms");
}

void BackgroundScheduler::start() {
  scrub_.assign(cluster_.osd_count(), OsdScrub{});
  for (std::size_t i = 0; i < cluster_.osd_count(); ++i)
    cluster_.osd(static_cast<int>(i))
        .set_background_starve_limit(config_.starve_limit);
  if (config_.scrub_interval <= 0) return;  // recovery-only arming
  for (std::size_t i = 0; i < cluster_.osd_count(); ++i)
    arm_tick(static_cast<int>(i),
             config_.scrub_stagger * static_cast<Nanos>(i + 1));
}

// --- deep scrub --------------------------------------------------------------

void BackgroundScheduler::arm_tick(int osd_id, Nanos at) {
  // The horizon bounds timer re-arming; without it the periodic scrub would
  // keep Simulator::run() from ever draining.
  if (config_.horizon > 0 && at > config_.horizon) return;
  cluster_.simulator().schedule_at(at, [this, osd_id] { scrub_tick(osd_id); });
}

void BackgroundScheduler::scrub_tick(int osd_id) {
  OsdScrub& st = scrub_[static_cast<std::size_t>(osd_id)];
  st.pass_started = cluster_.simulator().now();
  Osd& osd = cluster_.osd(osd_id);
  if (osd.crashed()) {
    // The process is down; skip this pass and try again next interval.
    arm_tick(osd_id, st.pass_started + config_.scrub_interval);
    return;
  }
  st.chunks.clear();
  st.cursor = 0;
  for (const ObjectKey& key : osd.store().keys()) {
    const std::uint64_t size = osd.store().object_size(key);
    for (std::uint64_t off = 0; off < size;
         off += config_.scrub_chunk_bytes) {
      st.chunks.push_back(Chunk{
          key, off, std::min<std::uint64_t>(config_.scrub_chunk_bytes,
                                            size - off)});
    }
  }
  if (st.chunks.empty()) {
    arm_tick(osd_id, st.pass_started + config_.scrub_interval);
    return;
  }
  st.pass_active = true;
  st.next_allowed = std::max(st.next_allowed, st.pass_started);
  next_chunk(osd_id);
}

void BackgroundScheduler::next_chunk(int osd_id) {
  OsdScrub& st = scrub_[static_cast<std::size_t>(osd_id)];
  if (st.cursor >= st.chunks.size()) {
    st.pass_active = false;
    ++scrub_passes_;
    sync_station_metrics();
    arm_tick(osd_id, st.pass_started + config_.scrub_interval);
    return;
  }
  const Chunk chunk = st.chunks[st.cursor++];
  // Inter-chunk pacing (vitastor osd_scrub style): the budget accrues at
  // scrub_bps; each chunk consumes its byte count and the next one waits
  // until the bucket allows it.
  const Nanos now = cluster_.simulator().now();
  const Nanos earliest = std::max(now, st.next_allowed);
  if (earliest > now) ++scrub_throttle_waits_;
  st.next_allowed =
      earliest + (config_.scrub_bps > 0
                      ? transfer_time(chunk.bytes, config_.scrub_bps)
                      : 0);
  if (validator_ != nullptr) validator_->on_background_scheduled();
  timeline_.push_back(
      ScrubChunkRecord{earliest, osd_id, chunk.key, chunk.offset, chunk.bytes});
  cluster_.simulator().schedule_at(earliest, [this, osd_id, chunk] {
    Osd& osd = cluster_.osd(osd_id);
    if (osd.crashed()) {
      // The OSD died under the pass: this chunk is cancelled; the remaining
      // chunks drain the same way at their paced times.
      ++chunks_cancelled_;
      if (validator_ != nullptr) validator_->on_background_resolved();
      next_chunk(osd_id);
      return;
    }
    // The chunk read occupies the op-thread station in the background
    // class: scrub costs simulated time and yields to client I/O.
    const Nanos svc = osd.service_time(chunk.bytes, /*is_write=*/false,
                                       chunk.key, chunk.offset);
    osd.submit_background(svc,
                          [this, osd_id, chunk] { finish_chunk(osd_id, chunk); });
  });
}

void BackgroundScheduler::finish_chunk(int osd_id, const Chunk& chunk) {
  scrub_bytes_ += chunk.bytes;
  if (m_scrub_bytes_ != nullptr) m_scrub_bytes_->inc(chunk.bytes);
  if (!cluster_.osd(osd_id).store().verify(chunk.key, chunk.offset,
                                           chunk.bytes)) {
    ++scrub_errors_;
    repair(osd_id, chunk.key);
  }
  if (validator_ != nullptr) validator_->on_background_resolved();
  next_chunk(osd_id);
}

void BackgroundScheduler::repair(int osd_id, const ObjectKey& key) {
  // Deep scrub convicted this copy (integrity mode: its bytes no longer
  // match the stored block CRCs). Rewrite the whole object as an ordinary
  // recovery move onto this holder; with no verified source the plan is
  // empty and the error stays counted.
  if (!repairing_.insert({osd_id, key}).second) return;
  recovery_.execute(
      recovery_.plan_repairs(static_cast<int>(key.pool), {{osd_id, key}}),
      recovery_options(),
      [this, osd_id, key] { repairing_.erase({osd_id, key}); });
}

RecoveryManager::ExecuteOptions BackgroundScheduler::recovery_options()
    const {
  return {config_.recovery_max_bps, config_.recovery_parallel,
          config_.pace_cap};
}

// --- paced recovery ----------------------------------------------------------

void BackgroundScheduler::on_placement_change() {
  if (!episode_open_) {
    episode_open_ = true;
    recovery_started_ = cluster_.simulator().now();
  }
  if (recovery_active_) {
    replan_pending_ = true;
    return;
  }
  start_recovery_round();
}

void BackgroundScheduler::start_recovery_round() {
  recovery_active_ = true;
  replan_pending_ = false;
  auto plans = std::make_shared<std::vector<RecoveryPlan>>();
  for (std::size_t p = 0; p < cluster_.pool_count(); ++p) {
    RecoveryPlan plan = recovery_.plan(static_cast<int>(p));
    if (!plan.moves.empty()) plans->push_back(std::move(plan));
  }
  execute_plans(std::move(plans), 0);
}

void BackgroundScheduler::execute_plans(
    std::shared_ptr<std::vector<RecoveryPlan>> plans, std::size_t index) {
  if (index >= plans->size()) {
    finish_recovery();
    return;
  }
  recovery_.execute(std::move((*plans)[index]), recovery_options(),
                    [this, plans, index] { execute_plans(plans, index + 1); });
}

void BackgroundScheduler::finish_recovery() {
  recovery_active_ = false;
  if (replan_pending_) {
    // Placement changed again mid-round: one more plan/execute pass picks
    // up whatever the earlier plan missed.
    start_recovery_round();
    return;
  }
  episode_open_ = false;
  ttfr_ = cluster_.simulator().now() - recovery_started_;
  if (m_ttfr_ != nullptr)
    m_ttfr_->set(static_cast<std::int64_t>(ttfr_ / 1'000'000));
  sync_station_metrics();
}

// --- metrics -----------------------------------------------------------------

void BackgroundScheduler::sync_station_metrics() {
  if (m_backfill_bytes_ == nullptr) return;
  const std::uint64_t backfill = recovery_.bytes_recovered();
  m_backfill_bytes_->inc(backfill - reported_backfill_bytes_);
  reported_backfill_bytes_ = backfill;
  const std::uint64_t waits = throttle_waits();
  m_throttle_waits_->inc(waits - reported_waits_);
  reported_waits_ = waits;
  std::uint64_t preemptions = 0;
  for (std::size_t i = 0; i < cluster_.osd_count(); ++i)
    preemptions += cluster_.osd(static_cast<int>(i)).workers().preemptions();
  m_preemptions_->inc(preemptions - reported_preemptions_);
  reported_preemptions_ = preemptions;
}

}  // namespace dk::rados
