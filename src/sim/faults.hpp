// Deterministic, seed-driven fault injection for the whole I/O path.
//
// A FaultPlan is a declarative schedule of adverse events — per-link frame
// loss / delay windows on the simulated fabric, OSD crash/restart events,
// and QDMA descriptor-fetch / completion-error windows. A FaultInjector
// consumes the plan and answers cheap per-event queries from the layers
// that own each failure domain (net::Network, rados::Cluster, and
// fpga::QdmaEngine); all probabilistic decisions are drawn from dedicated
// rng.hpp streams seeded by the plan, so a (seed, plan) pair replays
// bit-exactly — the property the chaos suite (tests/test_faults.cpp) leans
// on to shrink failures.
//
// The injector only decides *that* a fault happens; the surviving behaviour
// (retry with backoff, degraded EC reads, error CQEs) lives with the layers.
// Every injection is also reported to the PipelineValidator, whose
// quiescence check proves no injected fault silently swallowed an I/O.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/page.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::sim {

class Simulator;

/// Frame loss / extra delay on fabric links inside [start, end). `node`
/// restricts the window to messages whose source or destination is that
/// network node id (-1 = every link). A "dropped frame" loses the whole
/// message: the model collapses TCP-segment loss + the absent retransmit
/// into one event that the client-side retry policy must absorb.
struct LinkFaultWindow {
  Nanos start = 0;
  Nanos end = 0;
  double drop_prob = 0.0;
  Nanos extra_delay = 0;
  int node = -1;
};

/// OSD process crash at `crash_at`. While crashed the OSD drops every
/// message addressed to it and loses all in-flight op state (its object
/// store — the durable media — survives). After `mark_out_after` the
/// monitor marks it out, CRUSH remaps placement, and client write retries
/// land on the new primary; < 0 disables the reweight. `restart_at` > 0
/// brings the OSD back (down + out cleared, like a rejoining Ceph OSD).
struct OsdCrashEvent {
  int osd = 0;
  Nanos crash_at = 0;
  Nanos restart_at = 0;
  Nanos mark_out_after = ms(2);
  /// Crash lands mid-write: the first store write applied after the crash
  /// tears its tail WAL record at a byte boundary — the record's CRC
  /// fails, the data area never sees the bytes, and restart replay
  /// discards it (the write was never acknowledged). Only honoured when a
  /// WAL is armed, by FrameworkConfig::integrity or
  /// FrameworkConfig::blockstore; without one the model keeps its atomic
  /// write semantics.
  bool torn_write = false;
};

/// Silent media corruption: at time `at`, flip `bit_flips` random bits in
/// the stored bytes of object (pool, oid[, shard]) on `osd` (-1 = the first
/// live OSD holding the object). Checksum metadata is left stale, exactly
/// like latent sector corruption under a real FS — only a checksum verify
/// can catch it. No-op (and no rng draw) if no copy exists at `at`.
struct MediaCorruptionEvent {
  std::uint32_t pool = 0;
  std::uint64_t oid = 0;
  std::int32_t shard = -1;
  int osd = -1;
  Nanos at = 0;
  unsigned bit_flips = 8;
};

/// Silent DMA corruption: inside [start, end) each H2C/C2H transfer is
/// corrupted with `corrupt_prob` — `bit_flips` random bits flip in the
/// payload while the Completion Engine still reports success (the QDMA
/// model has no end-to-end data CRC; ROADMAP tracks adding one).
struct DmaCorruptionWindow {
  Nanos start = 0;
  Nanos end = 0;
  double corrupt_prob = 0.0;
  unsigned bit_flips = 4;
};

/// QDMA error window: with `fetch_error_prob` the Descriptor Engine aborts
/// the op at descriptor-fetch time; with `completion_error_prob` the DMA
/// runs full-length but the Completion Engine writes back an error status.
struct QdmaFaultWindow {
  Nanos start = 0;
  Nanos end = 0;
  double fetch_error_prob = 0.0;
  double completion_error_prob = 0.0;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<LinkFaultWindow> links;
  std::vector<OsdCrashEvent> osd_crashes;
  std::vector<QdmaFaultWindow> qdma;
  std::vector<MediaCorruptionEvent> media;
  std::vector<DmaCorruptionWindow> dma_corruption;

  bool enabled() const {
    return !links.empty() || !osd_crashes.empty() || !qdma.empty() ||
           !media.empty() || !dma_corruption.empty();
  }
};

struct FaultStats {
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_delayed = 0;
  std::uint64_t osd_crashes = 0;
  std::uint64_t osd_restarts = 0;
  std::uint64_t crash_dropped_msgs = 0;
  std::uint64_t qdma_fetch_errors = 0;
  std::uint64_t qdma_completion_errors = 0;
  std::uint64_t media_corruptions = 0;
  std::uint64_t dma_corruptions = 0;
  std::uint64_t torn_writes = 0;

  std::uint64_t total() const {
    return frames_dropped + frames_delayed + osd_crashes + osd_restarts +
           crash_dropped_msgs + qdma_fetch_errors + qdma_completion_errors +
           media_corruptions + dma_corruptions + torn_writes;
  }
};

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Report each injection to `validator` (fault accounting feeds the
  /// quiescence rule: injected faults may never leak an I/O).
  void set_validator(PipelineValidator* validator) { validator_ = validator; }

  // --- fabric hooks (net::Network) --------------------------------------
  /// True when the message src -> dst is lost on the wire right now. Draws
  /// from the net stream only while a matching window is active.
  bool should_drop_frame(std::uint32_t src, std::uint32_t dst);
  /// Extra forwarding delay (sum of matching active windows) for src -> dst.
  Nanos link_extra_delay(std::uint32_t src, std::uint32_t dst);

  // --- QDMA hooks (fpga::QdmaEngine) ------------------------------------
  bool should_fail_descriptor_fetch();
  bool should_fail_completion();
  /// Flip bits in a DMA payload if a DmaCorruptionWindow is active (silent:
  /// the Completion Engine still reports success). Draws from the corruption
  /// stream only while a window is active and the payload is non-empty.
  /// Returns true when the payload was corrupted.
  bool maybe_corrupt_dma(std::span<std::uint8_t> payload);
  /// The same for a payload in pages: each flip lands in a private copy of
  /// its page (Payload::writable_byte), with the same draws as a buffer of
  /// payload.size() bytes.
  bool maybe_corrupt_dma(Payload& payload);

  // --- OSD crash accounting (rados::Cluster drives the schedule) --------
  void count_osd_crash();
  void count_osd_restart();
  void count_crash_dropped_message();

  // --- corruption hooks (rados::Cluster / rados::Osd drive these) --------
  /// Flip `bit_flips` random bits of `bytes` in place (no counting — the
  /// caller resolves which OSD/object is hit and counts the event kind).
  /// `bytes` is a host buffer's span or an object store's raw view; each
  /// flip draws a byte below bytes.size(), then a bit.
  template <typename Bytes>
  void corrupt_bytes(Bytes&& bytes, unsigned bit_flips) {
    DK_CHECK(bytes.size() != 0);
    for (unsigned i = 0; i < bit_flips; ++i) {
      const std::uint64_t byte = corrupt_rng_.below(bytes.size());
      const auto bit = static_cast<std::uint8_t>(corrupt_rng_.below(8));
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  void count_media_corruption();
  void count_torn_write();
  /// How many bytes of a torn write land (uniform in [1, size - 1]).
  std::uint64_t torn_prefix(std::uint64_t size);

  /// Publish injection counters under "<prefix>." (frames_dropped,
  /// frames_delayed, osd_crashes, osd_restarts, crash_dropped_msgs,
  /// qdma_fetch_errors, qdma_completion_errors, media_corruptions,
  /// dma_corruptions, torn_writes).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  void injected(Counter* metric, std::uint64_t& stat);
  /// maybe_corrupt_dma() over any indexable byte view.
  template <typename Bytes>
  bool corrupt_dma(Bytes&& bytes);

  Simulator& sim_;
  FaultPlan plan_;
  // Independent streams per failure domain: decisions in one layer never
  // perturb another layer's sequence, keeping single-domain plans
  // replayable even when another domain's traffic pattern shifts.
  Rng net_rng_;
  Rng qdma_rng_;
  Rng corrupt_rng_;
  FaultStats stats_;
  PipelineValidator* validator_ = nullptr;

  struct MetricHandles {
    Counter* frames_dropped = nullptr;
    Counter* frames_delayed = nullptr;
    Counter* osd_crashes = nullptr;
    Counter* osd_restarts = nullptr;
    Counter* crash_dropped_msgs = nullptr;
    Counter* qdma_fetch_errors = nullptr;
    Counter* qdma_completion_errors = nullptr;
    Counter* media_corruptions = nullptr;
    Counter* dma_corruptions = nullptr;
    Counter* torn_writes = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::sim
