#include "sim/faults.hpp"

#include "common/check.hpp"
#include "common/pipeline_validator.hpp"
#include "sim/simulator.hpp"

namespace dk::sim {

namespace {

// Per-domain stream separation constants (arbitrary odd salts fed through
// splitmix64 inside Rng::reseed).
constexpr std::uint64_t kNetSalt = 0x6e65742d66617571ULL;
constexpr std::uint64_t kQdmaSalt = 0x71646d612d666c74ULL;
constexpr std::uint64_t kCorruptSalt = 0x636f7272757074ULL;

}  // namespace

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim),
      plan_(std::move(plan)),
      net_rng_(plan_.seed * 0x9e3779b97f4a7c15ULL + kNetSalt),
      qdma_rng_(plan_.seed * 0x9e3779b97f4a7c15ULL + kQdmaSalt),
      corrupt_rng_(plan_.seed * 0x9e3779b97f4a7c15ULL + kCorruptSalt) {
  for (const auto& w : plan_.links) DK_CHECK(w.end >= w.start);
  for (const auto& w : plan_.qdma) DK_CHECK(w.end >= w.start);
  for (const auto& w : plan_.dma_corruption) DK_CHECK(w.end >= w.start);
}

bool FaultInjector::should_drop_frame(std::uint32_t src, std::uint32_t dst) {
  const Nanos now = sim_.now();
  for (const auto& w : plan_.links) {
    if (now < w.start || now >= w.end || w.drop_prob <= 0.0) continue;
    if (w.node >= 0 && static_cast<std::uint32_t>(w.node) != src &&
        static_cast<std::uint32_t>(w.node) != dst)
      continue;
    // The rng is consumed only while a matching window is active, so plans
    // that differ only in window placement replay the same drop sequence
    // relative to in-window traffic.
    if (net_rng_.chance(w.drop_prob)) {
      injected(metrics_.frames_dropped, stats_.frames_dropped);
      return true;
    }
  }
  return false;
}

Nanos FaultInjector::link_extra_delay(std::uint32_t src, std::uint32_t dst) {
  const Nanos now = sim_.now();
  Nanos extra = 0;
  for (const auto& w : plan_.links) {
    if (now < w.start || now >= w.end || w.extra_delay <= 0) continue;
    if (w.node >= 0 && static_cast<std::uint32_t>(w.node) != src &&
        static_cast<std::uint32_t>(w.node) != dst)
      continue;
    extra += w.extra_delay;
  }
  if (extra > 0) injected(metrics_.frames_delayed, stats_.frames_delayed);
  return extra;
}

bool FaultInjector::should_fail_descriptor_fetch() {
  const Nanos now = sim_.now();
  for (const auto& w : plan_.qdma) {
    if (now < w.start || now >= w.end || w.fetch_error_prob <= 0.0) continue;
    if (qdma_rng_.chance(w.fetch_error_prob)) {
      injected(metrics_.qdma_fetch_errors, stats_.qdma_fetch_errors);
      return true;
    }
  }
  return false;
}

bool FaultInjector::should_fail_completion() {
  const Nanos now = sim_.now();
  for (const auto& w : plan_.qdma) {
    if (now < w.start || now >= w.end || w.completion_error_prob <= 0.0)
      continue;
    if (qdma_rng_.chance(w.completion_error_prob)) {
      injected(metrics_.qdma_completion_errors, stats_.qdma_completion_errors);
      return true;
    }
  }
  return false;
}

template <typename Bytes>
bool FaultInjector::corrupt_dma(Bytes&& bytes) {
  if (bytes.size() == 0) return false;
  const Nanos now = sim_.now();
  for (const auto& w : plan_.dma_corruption) {
    if (now < w.start || now >= w.end || w.corrupt_prob <= 0.0) continue;
    // Like the other domains, the corruption stream is consumed only while
    // a matching window is active: plans without corruption windows leave
    // every other domain's replay untouched.
    if (corrupt_rng_.chance(w.corrupt_prob)) {
      corrupt_bytes(bytes, w.bit_flips);
      injected(metrics_.dma_corruptions, stats_.dma_corruptions);
      return true;
    }
  }
  return false;
}

bool FaultInjector::maybe_corrupt_dma(std::span<std::uint8_t> payload) {
  return corrupt_dma(payload);
}

bool FaultInjector::maybe_corrupt_dma(Payload& payload) {
  struct Writable {
    Payload& payload;
    std::uint64_t size() const { return payload.size(); }
    std::uint8_t& operator[](std::uint64_t i) {
      return payload.writable_byte(i);
    }
  };
  return corrupt_dma(Writable{payload});
}

void FaultInjector::count_media_corruption() {
  injected(metrics_.media_corruptions, stats_.media_corruptions);
}

void FaultInjector::count_torn_write() {
  injected(metrics_.torn_writes, stats_.torn_writes);
}

std::uint64_t FaultInjector::torn_prefix(std::uint64_t size) {
  DK_CHECK(size >= 2) << "a torn write needs at least 2 bytes to tear";
  return 1 + corrupt_rng_.below(size - 1);
}

void FaultInjector::count_osd_crash() {
  injected(metrics_.osd_crashes, stats_.osd_crashes);
}

void FaultInjector::count_osd_restart() {
  injected(metrics_.osd_restarts, stats_.osd_restarts);
}

void FaultInjector::count_crash_dropped_message() {
  injected(metrics_.crash_dropped_msgs, stats_.crash_dropped_msgs);
}

void FaultInjector::attach_metrics(MetricsRegistry& registry,
                                   const std::string& prefix) {
  metrics_.frames_dropped = &registry.counter(prefix + ".frames_dropped");
  metrics_.frames_delayed = &registry.counter(prefix + ".frames_delayed");
  metrics_.osd_crashes = &registry.counter(prefix + ".osd_crashes");
  metrics_.osd_restarts = &registry.counter(prefix + ".osd_restarts");
  metrics_.crash_dropped_msgs =
      &registry.counter(prefix + ".crash_dropped_msgs");
  metrics_.qdma_fetch_errors =
      &registry.counter(prefix + ".qdma_fetch_errors");
  metrics_.qdma_completion_errors =
      &registry.counter(prefix + ".qdma_completion_errors");
  metrics_.media_corruptions =
      &registry.counter(prefix + ".media_corruptions");
  metrics_.dma_corruptions = &registry.counter(prefix + ".dma_corruptions");
  metrics_.torn_writes = &registry.counter(prefix + ".torn_writes");
}

void FaultInjector::injected(Counter* metric, std::uint64_t& stat) {
  ++stat;
  if (metric != nullptr) metric->inc();
  if (validator_ != nullptr) validator_->on_fault_injected();
}

}  // namespace dk::sim
