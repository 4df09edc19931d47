// Queueing resources for the discrete-event simulator.
//
//  FifoServer       — c parallel servers with a FIFO wait queue; models CPU
//                     cores, OSD op threads, and FPGA accelerator engines.
//  BandwidthChannel — serializes byte transfers at a fixed rate with a fixed
//                     propagation latency; models network links, PCIe DMA,
//                     and memory-copy bandwidth.
//
// Both are deliberately work-conserving and deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace dk::sim {

/// c-server FIFO queueing station with two service classes.
///
/// The default (client) class is strict FIFO. The background class
/// (submit_background) models scrub/backfill traffic: its jobs are only
/// dispatched when no client job is waiting — except that a starvation
/// guard admits one background job after `starve_limit` consecutive client
/// dispatches bypassed waiting background work, so background I/O always
/// makes forward progress under sustained client load. With the background
/// queue unused the station behaves exactly like a plain FIFO server.
class FifoServer {
 public:
  FifoServer(Simulator& sim, unsigned servers, const char* name = "server")
      : sim_(sim), free_(servers ? servers : 1), name_(name) {
    // One slot per server holds the completion of the job it serves, so the
    // scheduled end-of-service event captures only the slot index.
    in_service_.resize(free_);
    for (unsigned s = free_; s-- > 0;) idle_slots_.push_back(s);
  }

  const char* name() const { return name_; }
  unsigned free_servers() const { return free_; }
  std::size_t queue_depth() const { return waiting_.size(); }
  std::size_t background_queue_depth() const { return bg_waiting_.size(); }
  std::uint64_t completed() const { return completed_; }
  Nanos busy_time() const { return busy_time_; }
  /// Portion of busy_time() spent serving background-class jobs.
  Nanos bg_busy_time() const { return bg_busy_time_; }
  /// Client dispatches that bypassed waiting background work.
  std::uint64_t preemptions() const { return preemptions_; }

  /// Consecutive client dispatches tolerated while background work waits
  /// before the starvation guard admits one background job (0 = background
  /// is served only on an idle client queue).
  void set_starve_limit(unsigned limit) { starve_limit_ = limit; }

  /// Enqueue a job with the given service time; `done` fires at completion.
  void submit(Nanos service_time, EventFn done) {
    waiting_.push_back(Job{service_time, std::move(done)});
    pump();
  }

  /// Enqueue a background-class job (scrub chunk, backfill persist, repair
  /// rewrite): it yields to queued client jobs up to the starvation guard.
  void submit_background(Nanos service_time, EventFn done) {
    bg_waiting_.push_back(Job{service_time, std::move(done)});
    pump();
  }

  /// Fraction of elapsed time servers were busy, per-server averaged.
  double utilization(Nanos elapsed, unsigned servers) const {
    if (elapsed <= 0 || servers == 0) return 0.0;
    return static_cast<double>(busy_time_) /
           (static_cast<double>(elapsed) * servers);
  }

 private:
  struct Job {
    Nanos service;
    EventFn done;
  };

  void pump() {
    while (free_ > 0 && (!waiting_.empty() || !bg_waiting_.empty())) {
      const bool serve_bg =
          !bg_waiting_.empty() &&
          (waiting_.empty() ||
           (starve_limit_ > 0 && starved_ >= starve_limit_));
      std::deque<Job>& queue = serve_bg ? bg_waiting_ : waiting_;
      if (serve_bg) {
        starved_ = 0;
      } else if (!bg_waiting_.empty()) {
        ++starved_;
        ++preemptions_;
      }
      Job job = std::move(queue.front());
      queue.pop_front();
      --free_;
      busy_time_ += job.service;
      if (serve_bg) bg_busy_time_ += job.service;
      const unsigned slot = idle_slots_.back();
      idle_slots_.pop_back();
      in_service_[slot] = std::move(job.done);
      sim_.schedule_after(job.service, [this, slot] { finish(slot); });
    }
  }

  void finish(unsigned slot) {
    ++free_;
    ++completed_;
    // Out of its slot first: the completion may submit the next job.
    const EventFn done = std::move(in_service_[slot]);
    idle_slots_.push_back(slot);
    if (done) done();
    pump();
  }

  Simulator& sim_;
  unsigned free_;
  const char* name_;
  std::deque<Job> waiting_;
  std::deque<Job> bg_waiting_;
  std::vector<EventFn> in_service_;  // by slot
  std::vector<unsigned> idle_slots_;
  std::uint64_t completed_ = 0;
  Nanos busy_time_ = 0;
  Nanos bg_busy_time_ = 0;
  std::uint64_t preemptions_ = 0;
  unsigned starve_limit_ = 8;
  unsigned starved_ = 0;
};

/// Serializing bandwidth pipe: transfers occupy the channel back-to-back.
/// Completion time = serialization (bytes / rate) queued behind earlier
/// transfers, plus a fixed propagation latency that does NOT occupy the pipe
/// (store-and-forward semantics).
class BandwidthChannel {
 public:
  BandwidthChannel(Simulator& sim, double bytes_per_sec, Nanos latency,
                   const char* name = "link")
      : sim_(sim),
        bytes_per_sec_(bytes_per_sec),
        latency_(latency),
        name_(name) {}

  const char* name() const { return name_; }
  double bytes_per_sec() const { return bytes_per_sec_; }
  Nanos propagation_latency() const { return latency_; }
  std::uint64_t bytes_transferred() const { return bytes_; }

  /// Start a transfer of `bytes`; `done` fires when the last byte arrives.
  void transfer(std::uint64_t bytes, EventFn done) {
    const Nanos start = busy_until_ > sim_.now() ? busy_until_ : sim_.now();
    const Nanos ser = transfer_time(bytes, bytes_per_sec_);
    busy_until_ = start + ser;
    bytes_ += bytes;
    sim_.schedule_at(busy_until_ + latency_, std::move(done));
  }

  /// Time the channel frees up (for backpressure-aware callers).
  Nanos busy_until() const { return busy_until_; }

  /// Achieved goodput over an interval.
  double achieved_mbps(Nanos elapsed) const {
    return mb_per_sec(bytes_, elapsed);
  }

 private:
  Simulator& sim_;
  double bytes_per_sec_;
  Nanos latency_;
  const char* name_;
  Nanos busy_until_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dk::sim
