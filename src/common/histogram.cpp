#include "common/histogram.hpp"

#include <algorithm>
#include <bit>

namespace dk {

namespace {
// 64 octaves x sub_per_octave is the max geometry; in practice latencies
// stay under 2^40 ns (~18 minutes) so the vector stays small.
constexpr unsigned kMaxOctaves = 48;
}  // namespace

LatencyHistogram::LatencyHistogram(unsigned sub_buckets_per_octave)
    : sub_per_octave_(sub_buckets_per_octave == 0 ? 1 : sub_buckets_per_octave),
      buckets_(kMaxOctaves * sub_per_octave_, 0) {}

std::size_t LatencyHistogram::bucket_index(Nanos value) const {
  if (value < 0) value = 0;
  auto v = static_cast<std::uint64_t>(value);
  if (v < sub_per_octave_) return static_cast<std::size_t>(v);
  unsigned octave = 63 - static_cast<unsigned>(std::countl_zero(v));
  // Index of the sub-bucket within the octave: top bits after the leader.
  unsigned base_shift = octave > std::bit_width(sub_per_octave_ - 1u)
                            ? octave - std::bit_width(sub_per_octave_ - 1u)
                            : 0;
  std::uint64_t sub = (v >> base_shift) & (sub_per_octave_ - 1);
  std::size_t idx = static_cast<std::size_t>(octave) * sub_per_octave_ +
                    static_cast<std::size_t>(sub);
  return std::min(idx, buckets_.size() - 1);
}

void LatencyHistogram::record(Nanos value) { record_n(value, 1); }

void LatencyHistogram::record_n(Nanos value, std::uint64_t n) {
  if (n == 0) return;
  buckets_[bucket_index(value)] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (other.sub_per_octave_ == sub_per_octave_) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
  } else {
    // Geometry mismatch: re-record bucket midpoints (lossy but bounded).
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      if (other.buckets_[i]) {
        record_n(static_cast<Nanos>(i), other.buckets_[i]);
      }
    }
  }
}

double LatencyHistogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

Nanos LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  auto target = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count_) + 0.5);
  if (target == 0) target = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Upper bound of bucket i.
      std::size_t octave = i / sub_per_octave_;
      std::size_t sub = i % sub_per_octave_;
      if (octave == 0 || (1ULL << octave) < sub_per_octave_)
        return static_cast<Nanos>(std::min<std::uint64_t>(
            i, static_cast<std::uint64_t>(max_)));
      unsigned width = std::bit_width(sub_per_octave_ - 1u);
      unsigned base_shift = octave > width ? static_cast<unsigned>(octave) - width : 0;
      std::uint64_t lo = (1ULL << octave) | (sub << base_shift);
      std::uint64_t hi = lo + (1ULL << base_shift) - 1;
      return static_cast<Nanos>(
          std::min<std::uint64_t>(hi, static_cast<std::uint64_t>(max_)));
    }
  }
  return max_;
}

void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

}  // namespace dk
