// Chaos suite for the deterministic fault-injection subsystem: seed-swept
// runs of the full delibak stack under frame loss, OSD crash/restart, and
// QDMA descriptor errors. Every run must end with all submitted I/Os
// completed-or-errored, read-back matching a shadow model, and a quiescent
// pipeline (no I/O silently swallowed by an injected fault). Armed legs
// add integrity, the blockstore, background recovery, and all of them at
// once. Also: the EC degraded-read property (every subset of <= m shards
// down decodes to the original; > m down returns an error Status, never
// garbage), write re-issue to the new primary after a CRUSH reweight,
// bit-exact replay of a (seed, plan) pair, and one digest pinning the
// outcomes of every armed leg.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/framework.hpp"
#include "fpga/qdma.hpp"
#include "rados/client.hpp"
#include "rados/cluster.hpp"
#include "workload/fio.hpp"

namespace dk {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

/// CI override: the chaos job exports DK_CHAOS_SEED (date-derived) so every
/// nightly run explores a fresh slice of the seed space; local runs default
/// to a fixed base so failures reproduce out of the box.
std::uint64_t base_seed() {
  if (const char* env = std::getenv("DK_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 1;
}

enum class FaultKind { frame_loss, osd_crash, qdma_error };

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::frame_loss: return "frame-loss";
    case FaultKind::osd_crash: return "osd-crash";
    case FaultKind::qdma_error: return "qdma-error";
  }
  return "?";
}

/// One adverse schedule per fault kind, scaled to the ~2-10 ms sim-time of
/// a 300-op qd-8 run. Crash plans keep the OSD *in* (mark_out_after < 0) so
/// placement is stable across the restart; the reweight path has its own
/// focused test below.
sim::FaultPlan plan_for(FaultKind kind, std::uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  switch (kind) {
    case FaultKind::frame_loss: {
      sim::LinkFaultWindow w;
      w.start = us(100);
      w.end = ms(10);
      w.drop_prob = 0.015;
      w.extra_delay = us(3);
      plan.links.push_back(w);
      break;
    }
    case FaultKind::osd_crash: {
      sim::OsdCrashEvent ev;
      ev.osd = static_cast<int>(seed % 32);
      ev.crash_at = us(300);
      ev.restart_at = ms(6);
      ev.mark_out_after = -1;
      plan.osd_crashes.push_back(ev);
      break;
    }
    case FaultKind::qdma_error: {
      sim::QdmaFaultWindow w;
      w.start = 0;
      w.end = ms(10);
      w.fetch_error_prob = 0.02;
      w.completion_error_prob = 0.02;
      plan.qdma.push_back(w);
      break;
    }
  }
  return plan;
}

struct ChaosOutcome {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t errored = 0;
  std::uint64_t verify_mismatches = 0;
  std::uint64_t leaks = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t qdma_retries = 0;
  std::uint64_t checksum_failures = 0;  // integrity runs: detections
  std::uint64_t read_repairs = 0;
  std::uint64_t torn_replayed = 0;
  std::uint64_t journal_trims = 0;      // blockstore runs: trim policy ran
  std::uint64_t journal_occupancy = 0;  // cluster-wide, at drain
  std::uint64_t scrub_bytes = 0;        // background runs: paced deep scrub
  std::uint64_t backfill_bytes = 0;     // background runs: paced recovery
  std::uint64_t throttle_waits = 0;
  std::uint64_t scrub_repairs = 0;      // background runs: repair moves
  Nanos ttfr = 0;                       // time-to-full-redundancy
  sim::FaultStats faults;
  Nanos sim_end = 0;                    // simulated time at the last drain
  std::uint64_t sim_events = 0;         // events the simulator executed
};

/// Closed-loop chaos driver over the full delibak stack: random 4 kB reads
/// and writes against a shadow model (offset -> expected fill, with writes
/// whose outcome errored marked uncertain), then — after every fault window
/// has closed — a full read-back verification of all certain offsets.
ChaosOutcome chaos_run_with(const core::FrameworkConfig& cfg,
                            std::uint64_t seed) {
  sim::Simulator sim;
  core::Framework fw(sim, cfg);

  constexpr std::uint64_t kBlock = 4096;
  constexpr unsigned kOps = 300;
  constexpr unsigned kDepth = 8;
  const std::uint64_t blocks = cfg.image_size / kBlock;

  struct Shadow {
    std::uint64_t fill = 0;
    bool certain = false;  // last write known applied everywhere
  };
  std::map<std::uint64_t, Shadow> shadow;
  std::set<std::uint64_t> busy;  // offsets with an op in flight
  Rng rng(seed ^ 0xdecafULL);
  ChaosOutcome out;
  unsigned inflight = 0;
  std::uint64_t next_fill = seed * 1000 + 1;

  // A read target must already exist in the shadow and not be racing
  // another op on the same offset (conflicting concurrent writes would make
  // the expected content ambiguous).
  auto pick_read_offset = [&]() -> std::optional<std::uint64_t> {
    if (shadow.empty()) return std::nullopt;
    auto it = shadow.lower_bound(rng.below(blocks) * kBlock);
    for (std::size_t i = 0; i < shadow.size(); ++i, ++it) {
      if (it == shadow.end()) it = shadow.begin();
      if (busy.count(it->first) == 0) return it->first;
    }
    return std::nullopt;
  };

  std::function<void()> pump = [&] {
    while (inflight < kDepth && out.submitted < kOps) {
      const bool want_read = !shadow.empty() && rng.chance(0.4);
      std::optional<std::uint64_t> roff;
      if (want_read) roff = pick_read_offset();
      if (roff) {
        const std::uint64_t off = *roff;
        busy.insert(off);
        ++inflight;
        ++out.submitted;
        fw.read(static_cast<unsigned>(out.submitted % 3), off, kBlock,
                [&, off](Result<std::vector<std::uint8_t>> r) {
                  if (r.ok()) {
                    ++out.completed_ok;
                    const Shadow& sh = shadow[off];
                    if (sh.certain && *r != pattern(kBlock, sh.fill))
                      ++out.verify_mismatches;
                  } else {
                    ++out.errored;
                  }
                  busy.erase(off);
                  --inflight;
                  pump();
                });
        continue;
      }
      std::uint64_t off = 0;
      bool found = false;
      for (int attempt = 0; attempt < 16 && !found; ++attempt) {
        off = rng.below(blocks) * kBlock;
        found = busy.count(off) == 0;
      }
      if (!found) return;  // re-pumped by the next completion
      const std::uint64_t fill = next_fill++;
      shadow[off] = Shadow{fill, false};
      busy.insert(off);
      ++inflight;
      ++out.submitted;
      fw.write(static_cast<unsigned>(out.submitted % 3), off,
               pattern(kBlock, fill), [&, off](std::int32_t res) {
                 if (res >= 0) {
                   shadow[off].certain = true;
                   ++out.completed_ok;
                 } else {
                   ++out.errored;
                 }
                 busy.erase(off);
                 --inflight;
                 pump();
               });
    }
  };

  pump();
  sim.run();
  // Past every fault window (links/qdma end at 10 ms, restart at 6 ms), so
  // verification runs against a healthy stack.
  if (sim.now() < ms(15)) sim.run_until(ms(15));

  for (const auto& [off, sh] : shadow) {
    if (!sh.certain) continue;  // errored write: content is undefined
    bool done = false;
    fw.read(0, off, kBlock, [&](Result<std::vector<std::uint8_t>> r) {
      done = true;
      if (!r.ok() || *r != pattern(kBlock, sh.fill)) ++out.verify_mismatches;
    });
    sim.run();
    EXPECT_TRUE(done) << "verification read never completed @" << off;
  }

  out.leaks = fw.validator().verify_quiescent();
  out.retries = fw.rados_client().retries();
  out.timeouts = fw.rados_client().timeouts();
  out.degraded_reads = fw.rados_client().degraded_reads();
  if (const Counter* c = fw.metrics().find_counter("io.retries.qdma"))
    out.qdma_retries = c->value();
  // Client OSD-side detections + framework DMA detections share one counter.
  if (const Counter* c = fw.metrics().find_counter("integrity.checksum_failures"))
    out.checksum_failures = c->value();
  out.read_repairs = fw.rados_client().read_repairs();
  out.torn_replayed = fw.cluster().torn_writes_replayed();
  if (const Counter* c = fw.metrics().find_counter("blockstore.journal.trims"))
    out.journal_trims = c->value();
  if (const Gauge* g = fw.metrics().find_gauge("blockstore.journal.occupancy"))
    out.journal_occupancy = static_cast<std::uint64_t>(g->value());
  if (rados::BackgroundScheduler* bg = fw.background()) {
    out.scrub_bytes = bg->scrub_bytes();
    out.backfill_bytes = bg->backfill_bytes();
    out.throttle_waits = bg->throttle_waits();
    out.scrub_repairs = bg->scrub_repairs();
    out.ttfr = bg->time_to_full_redundancy();
  }
  out.faults = fw.faults()->stats();
  out.sim_end = sim.now();
  out.sim_events = sim.executed_events();
  return out;
}

core::FrameworkConfig chaos_config(FaultKind kind, std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.pool_mode = seed % 2 == 0 ? core::PoolMode::replicated
                                : core::PoolMode::erasure;
  cfg.image_size = 32 * MiB;
  cfg.fault_plan = plan_for(kind, seed);
  return cfg;
}

ChaosOutcome chaos_run(FaultKind kind, std::uint64_t seed) {
  return chaos_run_with(chaos_config(kind, seed), seed);
}

constexpr std::uint64_t kSeeds = 32;

ChaosOutcome sweep(FaultKind kind) {
  ChaosOutcome agg;
  const std::uint64_t base = base_seed();
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE(std::string(kind_name(kind)) + " seed=" +
                 std::to_string(seed));
    const ChaosOutcome out = chaos_run(kind, seed);
    EXPECT_EQ(out.submitted, out.completed_ok + out.errored)
        << "lost I/Os: neither completed nor errored";
    EXPECT_EQ(out.leaks, 0u) << "pipeline not quiescent after drain";
    EXPECT_EQ(out.verify_mismatches, 0u);
    agg.submitted += out.submitted;
    agg.completed_ok += out.completed_ok;
    agg.errored += out.errored;
    agg.retries += out.retries;
    agg.timeouts += out.timeouts;
    agg.degraded_reads += out.degraded_reads;
    agg.qdma_retries += out.qdma_retries;
    agg.faults.frames_dropped += out.faults.frames_dropped;
    agg.faults.frames_delayed += out.faults.frames_delayed;
    agg.faults.osd_crashes += out.faults.osd_crashes;
    agg.faults.osd_restarts += out.faults.osd_restarts;
    agg.faults.crash_dropped_msgs += out.faults.crash_dropped_msgs;
    agg.faults.qdma_fetch_errors += out.faults.qdma_fetch_errors;
    agg.faults.qdma_completion_errors += out.faults.qdma_completion_errors;
  }
  return agg;
}

// --- Chaos seed sweeps (32 seeds x 3 fault kinds) ---------------------------

TEST(ChaosSweep, FrameLossSurvivedByRetries) {
  const ChaosOutcome agg = sweep(FaultKind::frame_loss);
  EXPECT_GT(agg.faults.frames_dropped, 0u) << "plan injected nothing";
  EXPECT_GT(agg.faults.frames_delayed, 0u);
  EXPECT_GT(agg.timeouts, 0u) << "dropped frames must surface as deadlines";
  EXPECT_GT(agg.retries, 0u);
  EXPECT_GT(agg.completed_ok, agg.errored)
      << "retry policy should absorb most loss";
}

TEST(ChaosSweep, OsdCrashSurvivedByRetriesAndDegradedReads) {
  const ChaosOutcome agg = sweep(FaultKind::osd_crash);
  EXPECT_EQ(agg.faults.osd_crashes, kSeeds);
  EXPECT_EQ(agg.faults.osd_restarts, kSeeds);
  EXPECT_GT(agg.faults.crash_dropped_msgs, 0u);
  EXPECT_GT(agg.degraded_reads, 0u)
      << "reads must route around the crashed OSD";
  EXPECT_GT(agg.retries, 0u);
}

TEST(ChaosSweep, QdmaErrorsSurvivedByDmaRedrive) {
  const ChaosOutcome agg = sweep(FaultKind::qdma_error);
  EXPECT_GT(agg.faults.qdma_fetch_errors + agg.faults.qdma_completion_errors,
            0u);
  EXPECT_GT(agg.qdma_retries, 0u) << "UIFD must re-drive failed DMAs";
  EXPECT_GT(agg.completed_ok, agg.errored);
}

// --- Integrity chaos: all three corruption kinds armed at once --------------

/// Media bit-flips in stored objects, a silent-DMA-corruption window, and a
/// torn-write OSD crash — against an integrity-armed stack. Each media event
/// hits a distinct object so single-copy redundancy survives and read-repair
/// (not scrub) is what must heal the damage.
core::FrameworkConfig integrity_chaos_config(std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.pool_mode = seed % 2 == 0 ? core::PoolMode::replicated
                                : core::PoolMode::erasure;
  cfg.image_size = 32 * MiB;
  cfg.integrity = true;

  // Pool id and object ids are deterministic per config: a fault-free probe
  // stack reveals the media-event targets (same trick as FaultAcceptance).
  std::uint32_t pool = 0;
  std::vector<std::uint64_t> oids;
  {
    sim::Simulator probe_sim;
    core::Framework probe(probe_sim, cfg);
    pool = static_cast<std::uint32_t>(probe.image().spec().pool);
    for (std::uint64_t off = 0; off < cfg.image_size; off += cfg.object_size)
      oids.push_back(probe.image().oid_of(off));
  }

  sim::FaultPlan plan;
  plan.seed = seed;
  for (unsigned i = 0; i < 4; ++i) {
    sim::MediaCorruptionEvent ev;
    ev.pool = pool;
    // Stride 3 over 8 objects: the four targets are distinct, so every
    // object keeps a verified copy (or >= k clean shards) to repair from.
    ev.oid = oids[(seed + 3 * i) % oids.size()];
    if (cfg.pool_mode == core::PoolMode::erasure)
      ev.shard =
          static_cast<std::int32_t>((seed + i) % cfg.ec_profile.total());
    ev.at = us(400) + i * us(900);
    plan.media.push_back(ev);
  }
  plan.dma_corruption.push_back(
      sim::DmaCorruptionWindow{us(200), ms(4), 0.02, 4});
  sim::OsdCrashEvent crash;
  crash.osd = static_cast<int>(seed % 32);
  crash.crash_at = ms(1);
  crash.restart_at = ms(6);
  crash.mark_out_after = -1;
  crash.torn_write = true;
  plan.osd_crashes.push_back(crash);
  cfg.fault_plan = plan;
  return cfg;
}

TEST(ChaosSweep, IntegrityArmedCorruptionNeverYieldsWrongBytes) {
  ChaosOutcome agg;
  const std::uint64_t base = base_seed();
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("integrity seed=" + std::to_string(seed));
    const ChaosOutcome out = chaos_run_with(integrity_chaos_config(seed), seed);
    EXPECT_EQ(out.submitted, out.completed_ok + out.errored)
        << "lost I/Os: neither completed nor errored";
    EXPECT_EQ(out.verify_mismatches, 0u)
        << "a read returned wrong bytes despite armed checksums";
    EXPECT_EQ(out.leaks, 0u)
        << "a detected corruption neither repaired nor errored";
    agg.submitted += out.submitted;
    agg.completed_ok += out.completed_ok;
    agg.errored += out.errored;
    agg.checksum_failures += out.checksum_failures;
    agg.read_repairs += out.read_repairs;
    agg.torn_replayed += out.torn_replayed;
    agg.faults.media_corruptions += out.faults.media_corruptions;
    agg.faults.dma_corruptions += out.faults.dma_corruptions;
    agg.faults.torn_writes += out.faults.torn_writes;
  }
  // The sweep must have exercised all three corruption kinds and actually
  // caught corruption — a quiet pass would mean the plan injected nothing.
  EXPECT_GT(agg.faults.media_corruptions, 0u);
  EXPECT_GT(agg.faults.dma_corruptions, 0u);
  EXPECT_GT(agg.faults.torn_writes, 0u);
  EXPECT_GT(agg.checksum_failures, 0u) << "injected corruption went undetected";
  EXPECT_GT(agg.read_repairs, 0u);
  EXPECT_GT(agg.torn_replayed, 0u)
      << "restart must replay the torn write-intent journal";
  EXPECT_GT(agg.completed_ok, agg.errored);
}

// --- Blockstore chaos: journaled OSDs under a torn-write crash --------------

/// The integrity crash plan pointed at a blockstore-armed stack: every OSD
/// write lands as a WAL record first, the crash tears the tail record of
/// the victim OSD, and restart replays the journal (intact records apply,
/// the torn record is discarded). A deliberately small journal ring makes
/// the 300-op run cross the cap, so wraparound trims and compaction charge
/// while client I/O is in flight.
core::FrameworkConfig blockstore_chaos_config(std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.pool_mode = seed % 2 == 0 ? core::PoolMode::replicated
                                : core::PoolMode::erasure;
  cfg.image_size = 32 * MiB;
  cfg.blockstore.enabled = true;
  cfg.blockstore.journal_bytes = 256 * KiB;

  sim::FaultPlan plan;
  plan.seed = seed;
  sim::OsdCrashEvent crash;
  crash.osd = static_cast<int>(seed % 32);
  crash.crash_at = ms(1);
  crash.restart_at = ms(6);
  crash.mark_out_after = -1;
  crash.torn_write = true;
  plan.osd_crashes.push_back(crash);
  cfg.fault_plan = plan;
  return cfg;
}

TEST(ChaosSweep, BlockstoreArmedTornCrashLosesNoAcknowledgedWrites) {
  ChaosOutcome agg;
  const std::uint64_t base = base_seed();
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("blockstore seed=" + std::to_string(seed));
    const ChaosOutcome out =
        chaos_run_with(blockstore_chaos_config(seed), seed);
    EXPECT_EQ(out.submitted, out.completed_ok + out.errored)
        << "lost I/Os: neither completed nor errored";
    EXPECT_EQ(out.verify_mismatches, 0u)
        << "an acknowledged write was lost, or torn bytes surfaced";
    EXPECT_EQ(out.leaks, 0u)
        << "a journaled intent neither applied nor trimmed (journal_leak)";
    // Cluster-wide occupancy stays under the summed per-OSD cap.
    EXPECT_LE(out.journal_occupancy, 32u * 256 * KiB);
    agg.submitted += out.submitted;
    agg.completed_ok += out.completed_ok;
    agg.errored += out.errored;
    agg.torn_replayed += out.torn_replayed;
    agg.journal_trims += out.journal_trims;
    agg.faults.osd_crashes += out.faults.osd_crashes;
    agg.faults.osd_restarts += out.faults.osd_restarts;
    agg.faults.torn_writes += out.faults.torn_writes;
  }
  EXPECT_EQ(agg.faults.osd_crashes, kSeeds);
  EXPECT_EQ(agg.faults.osd_restarts, kSeeds);
  EXPECT_GT(agg.faults.torn_writes, 0u) << "no crash landed mid-append";
  EXPECT_GT(agg.torn_replayed, 0u)
      << "restart must replay the blockstore journal";
  EXPECT_GT(agg.journal_trims, 0u)
      << "the journal cap/trim policy never ran under load";
  EXPECT_GT(agg.completed_ok, agg.errored);
}

// --- Background chaos: scrub + paced recovery under a permanent mark-out ----

/// Background-armed stack with a permanent single-OSD crash: the monitor
/// marks the victim out at ms(2), the CRUSH reweight triggers paced
/// backfill, and the staggered scrub timers keep reading chunks through the
/// same stations the whole time. Every scheduled chunk and move must
/// resolve (the background_leak rule) and client I/O must survive the storm.
core::FrameworkConfig background_chaos_config(std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.pool_mode = seed % 2 == 0 ? core::PoolMode::replicated
                                : core::PoolMode::erasure;
  cfg.image_size = 32 * MiB;
  cfg.background.enabled = true;
  cfg.background.scrub_interval = ms(4);
  cfg.background.horizon = ms(20);
  cfg.background.scrub_bps = 50.0e6;
  cfg.background.recovery_max_bps = 100.0e6;

  sim::FaultPlan plan;
  plan.seed = seed;
  sim::OsdCrashEvent crash;
  crash.osd = static_cast<int>(seed % 32);
  crash.crash_at = ms(1);
  crash.restart_at = 0;          // never restarts: the reweight is permanent
  crash.mark_out_after = ms(1);  // monitor mark-out at ms(2) -> paced backfill
  plan.osd_crashes.push_back(crash);
  cfg.fault_plan = plan;
  return cfg;
}

TEST(ChaosSweep, BackgroundArmedRebuildStormLosesNoIosAndLeaksNoWork) {
  ChaosOutcome agg;
  std::uint64_t ttfr_episodes = 0;
  const std::uint64_t base = base_seed();
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("background seed=" + std::to_string(seed));
    const ChaosOutcome out =
        chaos_run_with(background_chaos_config(seed), seed);
    EXPECT_EQ(out.submitted, out.completed_ok + out.errored)
        << "lost I/Os: neither completed nor errored";
    EXPECT_EQ(out.verify_mismatches, 0u);
    EXPECT_EQ(out.leaks, 0u)
        << "a scrub chunk or recovery move neither completed nor cancelled";
    agg.submitted += out.submitted;
    agg.completed_ok += out.completed_ok;
    agg.errored += out.errored;
    agg.scrub_bytes += out.scrub_bytes;
    agg.backfill_bytes += out.backfill_bytes;
    agg.throttle_waits += out.throttle_waits;
    agg.faults.osd_crashes += out.faults.osd_crashes;
    if (out.ttfr > 0) ++ttfr_episodes;
  }
  EXPECT_EQ(agg.faults.osd_crashes, kSeeds);
  EXPECT_GT(agg.scrub_bytes, 0u) << "scrub never ran under the storm";
  EXPECT_GT(agg.backfill_bytes, 0u) << "the mark-out never drove backfill";
  EXPECT_GT(agg.throttle_waits, 0u) << "the IO-impact budget never engaged";
  EXPECT_GT(ttfr_episodes, 0u)
      << "no run ever reached full redundancy again";
  EXPECT_GT(agg.completed_ok, agg.errored);
}

// --- All arms combined: faults + integrity + blockstore + background ------

/// Every default-off arm at once. The integrity plan (media bit-flips on
/// replicated copies or EC shards of distinct objects, a silent-DMA window,
/// and a torn-write crash that restarts) runs on a blockstore with a small
/// journal, under background scrub plus paced recovery, with a second,
/// permanent crash whose mark-out drives backfill. The permanent victim is
/// an OSD sharing no object with the torn victim or a media target (found
/// by probing the acting sets), so every object keeps the live, verified
/// redundancy it needs: losing more than that is data loss, which no arm
/// can undo.
core::FrameworkConfig all_arms_config(std::uint64_t seed) {
  core::FrameworkConfig cfg = integrity_chaos_config(seed);
  cfg.blockstore.enabled = true;
  cfg.blockstore.journal_bytes = 256 * KiB;
  cfg.background = background_chaos_config(seed).background;

  const int torn_victim = cfg.fault_plan.osd_crashes.front().osd;
  std::set<int> holders;  // OSDs holding any object
  std::set<int> exposed;  // OSDs sharing an object with a fault target
  {
    sim::Simulator probe_sim;
    core::Framework probe(probe_sim, cfg);
    const int pool = probe.image().spec().pool;
    for (std::uint64_t off = 0; off < cfg.image_size; off += cfg.object_size) {
      const std::uint64_t oid = probe.image().oid_of(off);
      const std::vector<int> acting = probe.cluster().acting_set(pool, oid);
      const bool targeted =
          std::any_of(cfg.fault_plan.media.begin(),
                      cfg.fault_plan.media.end(),
                      [&](const sim::MediaCorruptionEvent& ev) {
                        return ev.oid == oid;
                      }) ||
          std::find(acting.begin(), acting.end(), torn_victim) !=
              acting.end();
      holders.insert(acting.begin(), acting.end());
      if (targeted) exposed.insert(acting.begin(), acting.end());
    }
  }
  // Walk the OSDs from a seed-dependent start; prefer one that holds data
  // so its mark-out has something to backfill.
  int victim = -1;
  for (int i = 0; i < 32; ++i) {
    const int osd =
        static_cast<int>((seed * 7 + static_cast<unsigned>(i)) % 32);
    if (osd == torn_victim || exposed.count(osd) != 0) continue;
    if (victim < 0 || (holders.count(osd) != 0 && holders.count(victim) == 0))
      victim = osd;
  }
  if (victim >= 0) {
    sim::OsdCrashEvent crash;
    crash.osd = victim;
    crash.crash_at = ms(2);
    crash.restart_at = 0;          // never restarts
    crash.mark_out_after = ms(1);  // mark-out at ms(3) -> paced backfill
    cfg.fault_plan.osd_crashes.push_back(crash);
  }
  return cfg;
}

TEST(ChaosSweep, AllArmsCombinedKeepEveryAcknowledgedByte) {
  ChaosOutcome agg;
  const std::uint64_t base = base_seed();
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = base + i;
    SCOPED_TRACE("all-arms seed=" + std::to_string(seed));
    const ChaosOutcome out = chaos_run_with(all_arms_config(seed), seed);
    EXPECT_EQ(out.submitted, out.completed_ok + out.errored)
        << "lost I/Os: neither completed nor errored";
    EXPECT_EQ(out.verify_mismatches, 0u)
        << "a read returned wrong bytes, or lost an acknowledged write";
    EXPECT_EQ(out.leaks, 0u)
        << "an io, corruption, journal intent or background job leaked";
    agg.submitted += out.submitted;
    agg.completed_ok += out.completed_ok;
    agg.errored += out.errored;
    agg.scrub_repairs += out.scrub_repairs;
    agg.backfill_bytes += out.backfill_bytes;
    agg.faults.torn_writes += out.faults.torn_writes;
    agg.faults.media_corruptions += out.faults.media_corruptions;
  }
  EXPECT_GT(agg.faults.torn_writes, 0u) << "no crash landed mid-append";
  EXPECT_GT(agg.faults.media_corruptions, 0u);
  EXPECT_GT(agg.scrub_repairs, 0u) << "scrub never repaired a copy";
  EXPECT_GT(agg.backfill_bytes, 0u) << "no mark-out ever drove backfill";
  EXPECT_GT(agg.completed_ok, agg.errored);
}

// --- Bit-exact replay -------------------------------------------------------

TEST(ChaosDeterminism, SameSeedAndPlanReplaysBitExactly) {
  // Two inputs: frame loss, and the background storm at an odd seed (an EC
  // pool), whose crash and mark-out drive paced rebuilds under scrub.
  const std::uint64_t storm_seed = base_seed() | 1;
  auto run = [&](bool storm) {
    return storm ? chaos_run_with(background_chaos_config(storm_seed),
                                  storm_seed)
                 : chaos_run(FaultKind::frame_loss, base_seed() + 3);
  };
  for (const bool storm : {false, true}) {
    SCOPED_TRACE(storm ? "background storm" : "frame loss");
    const ChaosOutcome a = run(storm);
    const ChaosOutcome b = run(storm);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed_ok, b.completed_ok);
    EXPECT_EQ(a.errored, b.errored);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.degraded_reads, b.degraded_reads);
    EXPECT_EQ(a.faults.frames_dropped, b.faults.frames_dropped);
    EXPECT_EQ(a.faults.frames_delayed, b.faults.frames_delayed);
    EXPECT_EQ(a.faults.total(), b.faults.total());
    EXPECT_EQ(a.backfill_bytes, b.backfill_bytes);
    EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
    EXPECT_EQ(a.throttle_waits, b.throttle_waits);
    EXPECT_EQ(a.ttfr, b.ttfr);
  }
}

// --- Outcome pin: every armed path, folded into one digest ------------------

/// FNV-1a over little-endian 64-bit words.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Every ChaosOutcome field, the fault counters included, in a fixed order.
std::vector<std::uint64_t> outcome_words(const ChaosOutcome& o) {
  const sim::FaultStats& f = o.faults;
  return {o.submitted, o.completed_ok, o.errored, o.verify_mismatches,
          o.leaks, o.retries, o.timeouts, o.degraded_reads, o.qdma_retries,
          o.checksum_failures, o.read_repairs, o.torn_replayed,
          o.journal_trims, o.journal_occupancy, o.scrub_bytes,
          o.backfill_bytes, o.throttle_waits, o.scrub_repairs,
          static_cast<std::uint64_t>(o.ttfr), f.frames_dropped,
          f.frames_delayed, f.osd_crashes, f.osd_restarts,
          f.crash_dropped_msgs, f.qdma_fetch_errors,
          f.qdma_completion_errors, f.media_corruptions, f.dma_corruptions,
          f.torn_writes, static_cast<std::uint64_t>(o.sim_end),
          o.sim_events};
}

TEST(ChaosDigest, OutcomesMatchThePin) {
  // The sweeps above assert properties; this pins the outcomes themselves,
  // so a change that moves any armed path's result (a count, a byte total,
  // the final simulated time, the number of events) fails here. A change
  // that does so on purpose updates kPin and says why in CHANGES.md.
  constexpr std::uint64_t kPin = 0x469e10d3d8a22218ULL;
  using ConfigFn = core::FrameworkConfig (*)(std::uint64_t);
  const std::pair<const char*, ConfigFn> legs[] = {
      {"frame-loss",
       [](std::uint64_t s) { return chaos_config(FaultKind::frame_loss, s); }},
      {"osd-crash",
       [](std::uint64_t s) { return chaos_config(FaultKind::osd_crash, s); }},
      {"qdma-error",
       [](std::uint64_t s) { return chaos_config(FaultKind::qdma_error, s); }},
      {"integrity", integrity_chaos_config},
      {"blockstore", blockstore_chaos_config},
      {"background", background_chaos_config},
      {"all-arms", all_arms_config},
  };
  // Seeds 1 and 3 run an EC pool, seed 2 a replicated one.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::ostringstream rows;
  unsigned runs = 0;
  for (const auto& [leg, config_for] : legs)
    for (const core::VariantKind variant :
         {core::VariantKind::delibak, core::VariantKind::sw_ceph_d2})
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        core::FrameworkConfig cfg = config_for(seed);
        cfg.variant = variant;
        const ChaosOutcome out = chaos_run_with(cfg, seed);
        rows << leg << ' ' << core::variant_short_name(variant)
             << " seed=" << seed << ':';
        for (const std::uint64_t word : outcome_words(out)) {
          digest = fnv1a(digest, word);
          rows << ' ' << word;
        }
        rows << '\n';
        ++runs;
      }
  EXPECT_EQ(runs, 42u);
  EXPECT_EQ(digest, kPin) << "armed outcomes moved; one row per run (fields "
                             "in outcome_words order):\n"
                          << rows.str();
}

// --- EC degraded-read property ----------------------------------------------

struct EcCase {
  unsigned k, m;
};

class EcDegradedReads : public ::testing::TestWithParam<EcCase> {};

TEST_P(EcDegradedReads, EverySubsetUpToMShardsDownDecodes) {
  const auto [k, m] = GetParam();
  sim::Simulator sim;
  rados::Cluster cluster(sim);
  const int pool = cluster.create_ec_pool(
      ec::Profile{k, m, ec::GeneratorKind::vandermonde});
  rados::RadosClient client(cluster);

  const std::uint64_t oid = 3;
  const std::vector<std::uint8_t> data = pattern(k * 1024, 77);
  Status wres = Status::Error(Errc::timed_out);
  client.write(pool, oid, 0, data, rados::WriteStrategy::client_fanout,
               [&](Status s) { wres = s; });
  sim.run();
  ASSERT_TRUE(wres.ok()) << wres.to_string();

  const std::vector<int> acting = cluster.acting_set(pool, oid);
  ASSERT_EQ(acting.size(), k + m);
  const unsigned n = k + m;

  auto read_back = [&]() -> Result<std::vector<std::uint8_t>> {
    Result<std::vector<std::uint8_t>> out = Status::Error(Errc::timed_out);
    client.read(pool, oid, 0, data.size(), rados::ReadStrategy::direct_shards,
                [&](Result<std::vector<std::uint8_t>> r) {
                  out = std::move(r);
                });
    sim.run();
    return out;
  };

  for (unsigned mask = 1; mask < (1u << n); ++mask) {
    const unsigned down = static_cast<unsigned>(__builtin_popcount(mask));
    if (down > m + 1) continue;  // <= m must decode; m+1 must fail cleanly
    for (unsigned s = 0; s < n; ++s)
      if (mask & (1u << s)) cluster.set_osd_down(acting[s], true);

    const auto r = read_back();
    if (down <= m) {
      ASSERT_TRUE(r.ok()) << "mask=" << mask << ": " << r.status().to_string();
      EXPECT_EQ(*r, data) << "mask=" << mask;
    } else {
      EXPECT_FALSE(r.ok()) << "mask=" << mask
                           << ": >m shards down must error, not fabricate";
    }

    for (unsigned s = 0; s < n; ++s)
      if (mask & (1u << s)) cluster.set_osd_down(acting[s], false);
  }
  EXPECT_GT(client.degraded_reads(), 0u);

  // Down primary with `primary` strategy falls back to direct shards.
  cluster.set_osd_down(acting[0], true);
  Result<std::vector<std::uint8_t>> fb = Status::Error(Errc::timed_out);
  client.read(pool, oid, 0, data.size(), rados::ReadStrategy::primary,
              [&](Result<std::vector<std::uint8_t>> r) { fb = std::move(r); });
  sim.run();
  ASSERT_TRUE(fb.ok()) << fb.status().to_string();
  EXPECT_EQ(*fb, data);
  cluster.set_osd_down(acting[0], false);

  // So does a crashed (not yet marked out) data-shard holder, which would
  // never answer the primary's gather.
  for (unsigned s = 1; s < k; ++s) {
    cluster.crash_osd(acting[s]);
    Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
    client.read(pool, oid, 0, data.size(), rados::ReadStrategy::primary,
                [&](Result<std::vector<std::uint8_t>> x) { r = std::move(x); });
    sim.run();
    ASSERT_TRUE(r.ok()) << "shard " << s << ": " << r.status().to_string();
    EXPECT_EQ(*r, data) << "shard " << s;
    cluster.restart_osd(acting[s]);
  }
}

INSTANTIATE_TEST_SUITE_P(BenchProfiles, EcDegradedReads,
                         ::testing::Values(EcCase{4, 2}, EcCase{2, 1},
                                           EcCase{3, 2}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.k) + "m" +
                                  std::to_string(info.param.m);
                         });

// --- Write re-issue to the new primary after a CRUSH reweight ---------------

TEST(FaultRecovery, WriteRetryLandsOnNewPrimaryAfterReweight) {
  sim::Simulator sim;
  rados::Cluster cluster(sim);
  const int pool = cluster.create_replicated_pool(2);
  rados::RadosClient client(cluster);
  client.arm_retries();

  const std::uint64_t oid = 7;
  const std::vector<int> before = cluster.acting_set(pool, oid);
  const int old_primary = before[0];

  sim::FaultPlan plan;
  plan.seed = 11;
  plan.osd_crashes.push_back(
      sim::OsdCrashEvent{old_primary, us(10), /*restart_at=*/0, us(500)});
  sim::FaultInjector faults(sim, plan);
  cluster.arm_faults(faults);

  const std::vector<std::uint8_t> data = pattern(4096, 21);
  Status wres = Status::Error(Errc::timed_out);
  sim.schedule_after(us(50), [&] {
    // First attempt targets the crashed primary and must time out; by the
    // retry, the monitor has marked it out and CRUSH remapped the PG.
    client.write(pool, oid, 0, data, rados::WriteStrategy::primary_copy,
                 [&](Status s) { wres = s; });
  });
  sim.run();

  ASSERT_TRUE(wres.ok()) << wres.to_string();
  EXPECT_GE(client.timeouts(), 1u);
  EXPECT_GE(client.retries(), 1u);
  const std::vector<int> after = cluster.acting_set(pool, oid);
  EXPECT_NE(after[0], old_primary) << "reweight did not move the primary";

  Result<std::vector<std::uint8_t>> r = Status::Error(Errc::timed_out);
  client.read(pool, oid, 0, data.size(), rados::ReadStrategy::primary,
              [&](Result<std::vector<std::uint8_t>> rr) { r = std::move(rr); });
  sim.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(*r, data);
}

// --- Injector unit behaviour ------------------------------------------------

TEST(FaultInjector, WindowsGateDrawsAndNodeScoping) {
  sim::Simulator sim;
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.links.push_back(sim::LinkFaultWindow{us(100), us(200), 1.0, us(7), -1});
  plan.links.push_back(sim::LinkFaultWindow{us(100), us(200), 1.0, 0, 3});
  sim::FaultInjector fi(sim, plan);

  EXPECT_FALSE(fi.should_drop_frame(1, 2)) << "before any window";
  EXPECT_EQ(fi.link_extra_delay(1, 2), 0);

  sim.run_until(us(150));
  EXPECT_TRUE(fi.should_drop_frame(1, 2));
  EXPECT_EQ(fi.link_extra_delay(1, 2), us(7));
  // The node-scoped window only adds its decision on links touching node 3.
  EXPECT_TRUE(fi.should_drop_frame(3, 9));

  sim.run_until(us(300));
  EXPECT_FALSE(fi.should_drop_frame(1, 2)) << "window is half-open [start,end)";
  EXPECT_EQ(fi.link_extra_delay(1, 2), 0);
  EXPECT_GT(fi.stats().frames_dropped, 0u);
  EXPECT_GT(fi.stats().frames_delayed, 0u);
}

TEST(QdmaFaults, FetchErrorStillRetiresDescriptor) {
  sim::Simulator sim;
  fpga::QdmaEngine qdma(sim);
  const auto id = qdma.alloc_queue_set(fpga::QueueClass::replication);
  ASSERT_TRUE(id.ok());

  sim::FaultPlan plan;
  plan.seed = 3;
  plan.qdma.push_back(sim::QdmaFaultWindow{0, sec(1), 1.0, 0.0});
  sim::FaultInjector fi(sim, plan);
  qdma.set_fault_injector(&fi);

  Status got = Status::Ok();
  ASSERT_TRUE(qdma.h2c(*id, 4096, [&](Status s) { got = s; }).ok());
  sim.run();

  EXPECT_EQ(got.code(), Errc::io_error);
  EXPECT_EQ(fi.stats().qdma_fetch_errors, 1u);
  // The descriptor lifecycle closed on the error path: ring drained and a
  // completion entry posted.
  EXPECT_EQ(qdma.queue_set(*id)->h2c_pending(), 0u);
  EXPECT_EQ(qdma.queue_set(*id)->completions_pending(), 1u);
}

// --- Acceptance: fio under combined frame loss + single-OSD crash -----------

TEST(FaultAcceptance, MixedFioRunLosesNoIos) {
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.pool_mode = core::PoolMode::replicated;
  cfg.image_size = 16 * MiB;

  // Placement is deterministic per config, so a fault-free probe stack
  // reveals which OSD is primary for the image's first object — crashing
  // that one guarantees the run exercises degraded read routing.
  int victim = 0;
  {
    sim::Simulator probe_sim;
    core::Framework probe(probe_sim, cfg);
    victim = probe.cluster().acting_set(probe.image().spec().pool,
                                        probe.image().oid_of(0))[0];
  }

  sim::Simulator sim;
  cfg.fault_plan.seed = 41;
  cfg.fault_plan.links.push_back(
      sim::LinkFaultWindow{us(200), ms(8), 0.01, us(2), -1});
  cfg.fault_plan.osd_crashes.push_back(
      sim::OsdCrashEvent{victim, ms(1), ms(12), -1});
  core::Framework fw(sim, cfg);

  workload::FioEngine engine(fw);
  workload::FioJobSpec spec;
  spec.rw = workload::RwMode::rand_rw;
  spec.rwmix_read = 50;
  spec.bs = 4096;
  spec.iodepth = 32;
  spec.runtime = ms(25);
  spec.ramp = ms(2);
  spec.seed = 11;
  const workload::FioResult result = engine.run(spec);

  EXPECT_GT(result.ops, 0u);
  EXPECT_GT(fw.faults()->stats().total(), 0u);
  // Zero lost I/Os: everything submitted was completed or errored.
  const Counter* completions = fw.metrics().find_counter("io.completions");
  const Counter* writes = fw.metrics().find_counter("io.writes");
  const Counter* reads = fw.metrics().find_counter("io.reads");
  ASSERT_TRUE(completions && writes && reads);
  EXPECT_EQ(completions->value(), writes->value() + reads->value());
  EXPECT_EQ(fw.metrics().find_gauge("io.inflight")->value(), 0);
  EXPECT_GT(fw.rados_client().degraded_reads(), 0u);
  EXPECT_EQ(fw.validator().verify_quiescent(), 0u);
}

}  // namespace
}  // namespace dk
