// Process-wide metrics registry: named counters, gauges and latency
// histograms with cheap thread-safe handles.
//
// Components on the I/O path (rings, DMQ, UIFD, QDMA, RADOS client, OSDs)
// attach to a registry once at wiring time and then update raw atomic
// handles on the hot path — no map lookups, no locks for counters/gauges.
// Histograms take a short mutex (they are recorded at completion rate, not
// per event-loop iteration).
//
// A registry exports as one line of JSON (`to_json()`), which is how
// the bench binaries emit per-stage p50/p95/p99 breakdowns alongside their
// table output. Registries are usually owned per Framework instance so that
// back-to-back runs in one process don't bleed into each other; a shared
// `MetricsRegistry::global()` exists for live tools that want one sink.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/histogram.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"

namespace dk {

/// Monotonic counter. All operations are lock-free and safe from any thread.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value (queue depths, in-flight counts).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Thread-safe wrapper around LatencyHistogram.
class HistogramMetric {
 public:
  explicit HistogramMetric(unsigned sub_buckets_per_octave = 32)
      : hist_(sub_buckets_per_octave) {}

  void record(Nanos value) {
    MutexLock lock(mu_);
    hist_.record(value);
  }
  void record_n(Nanos value, std::uint64_t n) {
    MutexLock lock(mu_);
    hist_.record_n(value, n);
  }
  void merge(const LatencyHistogram& other) {
    MutexLock lock(mu_);
    hist_.merge(other);
  }
  /// Consistent copy for reporting.
  LatencyHistogram snapshot() const {
    MutexLock lock(mu_);
    return hist_;
  }
  std::uint64_t count() const {
    MutexLock lock(mu_);
    return hist_.count();
  }
  void reset() {
    MutexLock lock(mu_);
    hist_.reset();
  }

 private:
  mutable Mutex mu_;
  LatencyHistogram hist_ DK_GUARDED_BY(mu_);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference stays valid for the lifetime of
  /// the registry (entries are never removed), so callers cache it once and
  /// update it lock-free afterwards.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name,
                             unsigned sub_buckets_per_octave = 32);

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const HistogramMetric* find_histogram(const std::string& name) const;

  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// Zero every metric, keeping registrations (and cached handles) alive.
  void reset();

  /// Compact single-line JSON:
  ///   {"counters":{...},"gauges":{...},"histograms":{"name":{"count":N,
  ///    "min_ns":..,"max_ns":..,"mean_ns":..,"p50_ns":..,"p95_ns":..,
  ///    "p99_ns":..},...}}
  std::string to_json() const;

  /// Shared process-wide registry for tools that want a single sink.
  static MetricsRegistry& global();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ DK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DK_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
      DK_GUARDED_BY(mu_);
};

}  // namespace dk
