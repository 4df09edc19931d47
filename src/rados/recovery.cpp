#include "rados/recovery.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "common/check.hpp"
#include "common/pipeline_validator.hpp"
#include "ec/reed_solomon.hpp"

namespace dk::rados {

namespace {

/// Re-check cadence for a move parked behind an in-flight client write on
/// its object (the launch side of the recovery_blocked barrier).
constexpr Nanos kWriteDrainRecheck = us(20);

/// The OSDs that should hold `key`: every acting OSD holds a full replica;
/// EC shard s lives on acting[s] only.
std::vector<int> placements(const PoolConfig& pool, const ObjectKey& key,
                            const std::vector<int>& acting) {
  if (pool.mode == PoolConfig::Mode::replicated) return acting;
  if (key.shard < 0 || static_cast<std::size_t>(key.shard) >= acting.size())
    return {};
  return {acting[static_cast<std::size_t>(key.shard)]};
}

/// Whether `holder`'s whole copy of `key` passes its checksum verify.
bool copy_verifies(Cluster& cluster, int holder, const ObjectKey& key) {
  const ObjectStore& st = cluster.osd(holder).store();
  return st.verify(key, 0, st.object_size(key));
}

/// Where every copy/shard of a pool's objects lives: key -> holder ids.
using Holders = std::map<ObjectKey, std::vector<int>>;

Holders holders_of_pool(Cluster& cluster, int pool) {
  Holders holders;
  for (std::size_t i = 0; i < cluster.osd_count(); ++i) {
    for (const ObjectKey& key :
         cluster.osd(static_cast<int>(i)).store().keys_of_pool(
             static_cast<std::uint32_t>(pool))) {
      holders[key].push_back(static_cast<int>(i));
    }
  }
  return holders;
}

/// The one planner helper: the move that restores `key` on `to_osd` — a
/// copy from the first live holder of `key` other than `to_osd`, else (EC
/// pools) a rebuild from k live sibling shards. Every source must pass its
/// checksum verify, so recovery never launders a corrupt copy under fresh
/// CRCs (verify is trivially true without integrity). nullopt when no
/// source exists.
std::optional<RecoveryMove> plan_move(Cluster& cluster, int pool,
                                      const Holders& holders,
                                      const ObjectKey& key, int to_osd) {
  auto usable = [&](int holder, const ObjectKey& k) {
    return !cluster.osd_down(holder) && copy_verifies(cluster, holder, k);
  };
  RecoveryMove move;
  move.key = key;
  move.to_osd = to_osd;
  if (auto it = holders.find(key); it != holders.end()) {
    for (int h : it->second) {
      if (h == to_osd || !usable(h, key)) continue;
      move.from_osd = h;
      move.bytes = cluster.osd(h).store().object_size(key);
      return move;
    }
  }
  // No usable holder of THIS key: an EC shard is rebuilt from k siblings.
  const auto& pcfg = cluster.pool(pool);
  if (pcfg.mode != PoolConfig::Mode::erasure) return std::nullopt;
  const unsigned k = pcfg.ec_profile.k;
  for (unsigned s = 0; s < pcfg.ec_profile.total() && move.sources.size() < k;
       ++s) {
    if (static_cast<std::int32_t>(s) == key.shard) continue;
    ObjectKey sibling = key;
    sibling.shard = static_cast<std::int32_t>(s);
    auto hit = holders.find(sibling);
    if (hit == holders.end()) continue;
    for (int h : hit->second)
      if (usable(h, sibling)) {
        move.sources.emplace_back(h, sibling);
        break;
      }
  }
  if (move.sources.size() < k) return std::nullopt;
  move.reconstruct = true;
  move.bytes = cluster.osd(move.sources[0].first)
                   .store()
                   .object_size(move.sources[0].second);
  return move;
}

/// Functionally rebuild an EC shard from the move's sources; empty when a
/// source fails its checksum verify now (it may have rotted since the move
/// was planned) or the decode fails, so a wrong shard is never persisted.
std::vector<std::uint8_t> rebuild_shard(Cluster& cluster,
                                        const RecoveryMove& move) {
  const ec::ReedSolomon& rs =
      *cluster.pool(static_cast<int>(move.key.pool)).codec;
  const unsigned k = rs.profile().k;
  std::vector<std::optional<ec::Chunk>> chunks(rs.profile().total());
  std::uint64_t chunk_size = 0;
  for (const auto& [holder, sibling] : move.sources) {
    if (!copy_verifies(cluster, holder, sibling)) return {};
    chunk_size =
        std::max(chunk_size, cluster.osd(holder).store().object_size(sibling));
  }
  for (const auto& [holder, sibling] : move.sources) {
    const auto& store = cluster.osd(holder).store();
    chunks[static_cast<std::size_t>(sibling.shard)] =
        store.read(sibling, 0, chunk_size);
  }
  const auto shard = static_cast<std::size_t>(move.key.shard);
  auto decoded = rs.decode(chunks);
  if (!decoded.ok()) return {};
  if (shard < k) return (*decoded)[shard];
  // Parity shard: re-encode the missing parity from the decoded data.
  auto coding = rs.encode(*decoded);
  if (!coding.ok()) return {};
  return (*coding)[shard - k];
}

}  // namespace

RecoveryPlan RecoveryManager::plan(int pool) const {
  RecoveryPlan out;
  out.pool = pool;
  const auto& pcfg = cluster_.pool(pool);
  const Holders holders = holders_of_pool(cluster_, pool);

  for (const auto& [key, held_by] : holders) {
    const auto want =
        placements(pcfg, key, cluster_.acting_set(pool, key.oid));
    if (want.empty()) {
      out.degraded.push_back(key);
      continue;
    }
    for (int target : want) {
      if (std::find(held_by.begin(), held_by.end(), target) != held_by.end())
        continue;
      auto move = plan_move(cluster_, pool, holders, key, target);
      if (!move) {
        out.degraded.push_back(key);
        break;
      }
      out.moves.push_back(std::move(*move));
    }
  }
  return out;
}

RecoveryPlan RecoveryManager::plan_repairs(
    int pool,
    const std::vector<std::pair<int, ObjectKey>>& convicted) const {
  RecoveryPlan out;
  out.pool = pool;
  const Holders holders = holders_of_pool(cluster_, pool);
  for (const auto& [holder, key] : convicted) {
    auto move = plan_move(cluster_, pool, holders, key, holder);
    if (!move) continue;  // no verified source: unrepairable
    move->repair = true;
    out.moves.push_back(std::move(*move));
  }
  return out;
}

struct RecoveryManager::Run {
  /// A launched move's legs: how many are still out, whether one was lost
  /// (for a rebuild, also: reached a crashed target), and the shard size a
  /// rebuild's decode-and-write job charges.
  struct Gather {
    std::size_t awaiting = 0;
    bool lost = false;
    std::uint64_t rebuilt_bytes = 0;
  };

  RecoveryPlan plan;
  ExecuteOptions options;
  sim::UniqueFn<void()> done;
  std::vector<Gather> gathers;  // one per move
  std::size_t next = 0;         // next move to grant
  std::size_t settled = 0;
};

void RecoveryManager::execute(RecoveryPlan plan, const ExecuteOptions& options,
                              sim::UniqueFn<void()> done) {
  if (plan.moves.empty()) {
    cluster_.simulator().schedule_after(0, std::move(done));
    return;
  }
  auto run = std::make_shared<Run>();
  run->plan = std::move(plan);
  run->options = options;
  run->done = std::move(done);
  run->gathers.resize(run->plan.moves.size());

  // Every planned destination is degraded until its copy lands: client
  // reads route around it (Cluster::object_degraded) instead of being
  // served not-yet-recovered bytes. The object's write lock is taken for
  // the same span (Ceph's recovery_blocked): the plan's sources are frozen
  // at planning, so a write slipping in before the copy lands could reach
  // only the destination (or mutate a sibling shard mid-stripe) and be
  // clobbered by the push.
  for (const RecoveryMove& move : run->plan.moves) {
    cluster_.mark_object_degraded(move.to_osd, move.key);
    cluster_.note_recovery_begin(move.key);
  }
  // Bounded parallelism: each settled move pumps the next one.
  const std::size_t starters = std::min<std::size_t>(
      options.max_parallel ? options.max_parallel : 1,
      run->plan.moves.size());
  for (std::size_t i = 0; i < starters; ++i) pump(run);
}

void RecoveryManager::pump(const RunPtr& run) {
  if (run->next >= run->plan.moves.size()) return;
  const std::size_t i = run->next++;
  // A token grant sits ahead of each launch: the move waits until the
  // recovery bucket (filled at max_bps) has its bytes, clipped at pace_cap
  // so an over-subscribed budget can delay recovery but never park it.
  sim::Simulator& sim = cluster_.simulator();
  const Nanos now = sim.now();
  Nanos earliest = std::max(now, next_grant_);
  if (run->options.pace_cap > 0 && earliest - now > run->options.pace_cap)
    earliest = now + run->options.pace_cap;
  if (earliest > now) ++throttle_waits_;
  next_grant_ = earliest + (run->options.max_bps > 0
                                ? transfer_time(run->plan.moves[i].bytes,
                                                run->options.max_bps)
                                : 0);
  if (validator_ != nullptr) validator_->on_background_scheduled();
  sim.schedule_at(earliest, [this, run, i] { launch(run, i); });
}

void RecoveryManager::launch(const RunPtr& run, std::size_t i) {
  const RecoveryMove& move = run->plan.moves[i];
  // A launch waits while a client write to this object is in flight: a
  // copy snapshotted mid-fan-out could persist a version one member has
  // already superseded. Once launched, the object's write lock
  // (note_recovery_begin) holds until the move settles.
  if (cluster_.client_write_inflight(move.key)) {
    ++write_blocked_defers_;
    cluster_.simulator().schedule_after(kWriteDrainRecheck,
                                        [this, run, i] { launch(run, i); });
    return;
  }
  // The legs: the one source of a copy, or the k siblings of a rebuild.
  const std::pair<int, ObjectKey> copy_leg{move.from_osd, move.key};
  const std::span<const std::pair<int, ObjectKey>> legs =
      move.reconstruct ? std::span(move.sources) : std::span(&copy_leg, 1);
  // A crash since planning cancels the move (a later re-plan picks it up);
  // launching anyway would push into a dead OSD.
  const bool source_dead =
      std::any_of(legs.begin(), legs.end(),
                  [this](const std::pair<int, ObjectKey>& leg) {
                    return cluster_.osd(leg.first).crashed();
                  });
  if (source_dead || cluster_.osd(move.to_osd).crashed()) {
    settle(run, i, false);
    return;
  }
  DK_CHECK(!legs.empty()) << "a rebuild needs sibling shards";
  Run::Gather& gather = run->gathers[i];
  gather.awaiting = legs.size();
  for (const auto& [holder, key] : legs) {
    const std::uint64_t bytes = cluster_.osd(holder).store().object_size(key);
    // A rebuilt shard is as long as its longest sibling (shorter ones
    // decode zero-filled).
    gather.rebuilt_bytes = std::max(gather.rebuilt_bytes, bytes);
    cluster_.push(holder, move.to_osd, key, bytes,
                  [this, run, i](bool arrived) { arrive(run, i, arrived); });
  }
}

void RecoveryManager::arrive(const RunPtr& run, std::size_t i, bool arrived) {
  const RecoveryMove& move = run->plan.moves[i];
  Osd& target = cluster_.osd(move.to_osd);
  Run::Gather& gather = run->gathers[i];
  // A rebuild whose target crashed as a leg was served is dropped: its
  // decode would run on a dead process.
  gather.lost |= !arrived || (move.reconstruct && target.crashed());
  if (--gather.awaiting != 0) return;
  if (gather.lost) {
    settle(run, i, false);
    return;
  }
  // The persist step. A copy writes its source's current bytes, so nothing
  // that landed on the source while the push queued is rolled back, with
  // the source's stored CRCs, so a block that rotted there lands failing
  // verify instead of under a fresh checksum. Like a queued client
  // sub-write it persists even on a target that crashed meanwhile, but
  // does not count as landed there.
  if (!move.reconstruct) {
    const ObjectStore& source = cluster_.osd(move.from_osd).store();
    const std::uint64_t size = source.object_size(move.key);
    target.apply_durable(move.key, 0, source.read(move.key, 0, size),
                         source.checksums_for(move.key, 0, size));
    settle(run, i, !target.crashed());
    return;
  }
  // A rebuild's decode and local write first occupy the target's op
  // threads (contending with client ops); then the shard is decoded from
  // the siblings' current content and persisted through the WAL.
  const Nanos decode = transfer_time(
      gather.rebuilt_bytes * 4 /* ~k GF ops per byte */, kEcEncodeBps);
  const Nanos write_svc = target.service_time(
      gather.rebuilt_bytes, /*is_write=*/true, move.key, /*offset=*/0);
  target.submit_background(decode + write_svc, [this, run, i] {
    const RecoveryMove& move = run->plan.moves[i];
    Osd& target = cluster_.osd(move.to_osd);
    // An empty rebuild (a sibling failed verify, or the decode failed) is
    // never persisted, and the move did not land.
    const std::vector<std::uint8_t> shard = rebuild_shard(cluster_, move);
    if (!shard.empty()) target.apply_durable(move.key, 0, shard, {});
    settle(run, i, !shard.empty() && !target.crashed());
  });
}

void RecoveryManager::settle(const RunPtr& run, std::size_t i, bool landed) {
  const RecoveryMove& move = run->plan.moves[i];
  cluster_.note_recovery_end(move.key);
  if (landed) {
    if (move.repair) {
      ++scrub_repairs_;
    } else {
      ++recovered_;
      bytes_ += move.bytes;
    }
    cluster_.clear_object_degraded(move.to_osd, move.key);
  } else {
    // The move never landed: the destination stays degraded until a later
    // round completes it.
    ++moves_cancelled_;
  }
  if (validator_ != nullptr) validator_->on_background_resolved();
  if (++run->settled == run->plan.moves.size()) {
    run->done();
    return;
  }
  pump(run);
}

ScrubReport RecoveryManager::scrub(int pool) const {
  ScrubReport report;
  const auto& pcfg = cluster_.pool(pool);

  for (const auto& [key, held_by] : holders_of_pool(cluster_, pool)) {
    ++report.objects_checked;
    const auto want =
        placements(pcfg, key, cluster_.acting_set(pool, key.oid));

    bool ok = true;
    for (int target : want) {
      if (std::find(held_by.begin(), held_by.end(), target) ==
          held_by.end()) {
        ++report.missing;
        ok = false;
      }
    }
    for (int holder : held_by) {
      if (std::find(want.begin(), want.end(), holder) == want.end()) {
        ++report.misplaced;
        ok = false;
      }
    }

    // Deep check. With integrity armed every copy/shard is verified
    // against its stored block checksums, which arbitrates even the
    // two-replica case: the copy whose bytes no longer match its CRCs is
    // the bad one. Without checksums all we can do is byte-diff replicas
    // (a diff proves disagreement but cannot name the culprit).
    if (cluster_.integrity()) {
      const auto bad = static_cast<std::uint64_t>(
          std::count_if(held_by.begin(), held_by.end(), [&](int holder) {
            return !copy_verifies(cluster_, holder, key);
          }));
      if (bad > 0) {
        report.checksum_failures += bad;
        ++report.inconsistent;
        ok = false;
      }
    } else if (pcfg.mode == PoolConfig::Mode::replicated &&
               held_by.size() > 1) {
      const auto& first = cluster_.osd(held_by[0]).store();
      const auto ref = first.read(key, 0, first.object_size(key));
      for (std::size_t i = 1; i < held_by.size(); ++i) {
        const auto& other = cluster_.osd(held_by[i]).store();
        if (other.read(key, 0, other.object_size(key)) != ref) {
          ++report.inconsistent;
          ok = false;
          break;
        }
      }
    }
    if (ok) ++report.placements_ok;
  }
  return report;
}

ScrubReport RecoveryManager::repair(int pool) {
  ScrubReport report = scrub(pool);
  if (!cluster_.integrity() || report.checksum_failures == 0) return report;

  std::vector<std::pair<int, ObjectKey>> convicted;
  for (const auto& [key, held_by] : holders_of_pool(cluster_, pool))
    for (int holder : held_by)
      if (!copy_verifies(cluster_, holder, key))
        convicted.emplace_back(holder, key);
  RecoveryPlan plan = plan_repairs(pool, convicted);
  report.repaired = plan.moves.size();
  execute(std::move(plan), ExecuteOptions{}, [] {});
  return report;
}

}  // namespace dk::rados
