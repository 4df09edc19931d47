// Log-bucketed latency histogram (HdrHistogram-style).
//
// Values are recorded in nanoseconds into buckets with bounded relative
// error, which keeps memory constant regardless of the observed range and
// still produces accurate percentiles for reporting (p50/p95/p99/p99.9).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace dk {

class LatencyHistogram {
 public:
  /// `sub_buckets_per_octave` controls relative precision: 32 gives roughly
  /// 3% worst-case relative error, plenty for latency reporting.
  explicit LatencyHistogram(unsigned sub_buckets_per_octave = 32);

  void record(Nanos value);
  void record_n(Nanos value, std::uint64_t count);

  /// Merge another histogram into this one (same geometry required).
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  Nanos min() const { return count_ ? min_ : 0; }
  Nanos max() const { return max_; }
  double mean() const;

  /// Percentile in [0,100]. Returns an upper bound of the containing bucket.
  Nanos percentile(double p) const;

  Nanos p50() const { return percentile(50.0); }
  Nanos p95() const { return percentile(95.0); }
  Nanos p99() const { return percentile(99.0); }

  void reset();

 private:
  std::size_t bucket_index(Nanos value) const;

  unsigned sub_per_octave_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  Nanos min_ = 0;
  Nanos max_ = 0;
};

}  // namespace dk
