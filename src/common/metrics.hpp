// Metrics registry: named counters, gauges and latency histograms with
// cheap handles.
//
// Components on the I/O path (rings, DMQ, UIFD, QDMA, RADOS client, OSDs)
// attach to a registry once at wiring time and then update the handles on
// the hot path with no map lookups. Every metric is plain single-threaded
// state, like the simulator that updates it.
//
// A registry exports as one line of JSON (`to_json()`), which is how
// the bench binaries emit per-stage p50/p95/p99 breakdowns alongside their
// table output. Registries are usually owned per Framework instance so that
// back-to-back runs in one process don't bleed into each other; the shared
// `MetricsRegistry::global()` is where the default DK_CHECK handler counts
// release-mode violations unless a registry is installed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/units.hpp"

namespace dk {

/// Monotonic counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time signed value (queue depths, in-flight counts).
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t n = 1) { v_ += n; }
  void sub(std::int64_t n = 1) { v_ -= n; }
  std::int64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::int64_t v_ = 0;
};

/// A registered LatencyHistogram (32 sub-buckets per octave).
class HistogramMetric {
 public:
  void record(Nanos value) { hist_.record(value); }
  void record_n(Nanos value, std::uint64_t n) { hist_.record_n(value, n); }
  void merge(const LatencyHistogram& other) { hist_.merge(other); }
  /// The histogram itself, for reporting.
  const LatencyHistogram& snapshot() const { return hist_; }
  std::uint64_t count() const { return hist_.count(); }
  void reset() { hist_.reset(); }

 private:
  LatencyHistogram hist_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference stays valid for the lifetime of
  /// the registry (entries are never removed), so callers cache it once and
  /// update it without a lookup afterwards.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name);

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

  /// Shared process-wide registry (the default check-violation sink).
  static MetricsRegistry& global();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace dk
