#include "rados/cluster.hpp"


#include "common/annotations.hpp"
#include "common/check.hpp"
#include "crush/hash.hpp"
#include "rados/background.hpp"

namespace dk::rados {

Cluster::Cluster(sim::Simulator& sim, ClusterConfig config)
    : sim_(sim),
      config_(config),
      net_(sim),
      layout_(crush::build_cluster(config.crush)) {
  // Client node 0.
  client_node_ = net_.add_node("client", [this](const net::Message& m) {
    DK_CHECK(client_handler_) << "client handler not registered";
    client_handler_(std::static_pointer_cast<OpBody>(m.body));
  });

  // One network node per server host; delivery dispatches on target_osd.
  for (unsigned h = 0; h < config_.crush.hosts; ++h) {
    server_nodes_.push_back(net_.add_node(
        "server" + std::to_string(h), [this](const net::Message& m) {
          auto body = std::static_pointer_cast<OpBody>(m.body);
          DK_CHECK(body->target_osd >= 0 &&
                   static_cast<std::size_t>(body->target_osd) < osds_.size())
              << "message for OSD " << body->target_osd << " out of range";
          Osd& target = *osds_[static_cast<std::size_t>(body->target_osd)];
          if (target.crashed()) {
            // Crashed process: the TCP connection is dead, the message is
            // never consumed. The sender's deadline/retry machinery owns
            // recovery.
            drop_message(*body);
            return;
          }
          target.handle(body);
        }));
  }

  // OSDs, 16 per host, pinned to their host's network node.
  const unsigned total = config_.crush.hosts * crush::kOsdsPerHost;
  down_.assign(total, false);
  for (unsigned i = 0; i < total; ++i) {
    auto osd = std::make_unique<Osd>(sim_, static_cast<int>(i),
                                     config_.seed * 7919 + i);
    const int id = static_cast<int>(i);
    osd->set_integrity(config_.integrity);
    // One crash-consistency path: integrity alone arms the WAL too, and
    // the blockstore config decides whether it charges simulated time.
    if (config_.integrity || config_.blockstore.enabled)
      osd->arm_blockstore(config_.blockstore);
    osd->set_sender([this, id](int dst, std::shared_ptr<OpBody> body) {
      send_from_osd(id, dst, std::move(body));
    });
    osds_.push_back(std::move(osd));
    osd_nodes_.push_back(server_nodes_[i / crush::kOsdsPerHost]);
  }
}

int Cluster::create_replicated_pool(unsigned size) {
  PoolConfig p;
  p.mode = PoolConfig::Mode::replicated;
  p.size = size;
  p.crush_rule = layout_.replicated_rule;
  placement_.emplace_back(kPgNum);
  pools_.push_back(std::move(p));
  return static_cast<int>(pools_.size() - 1);
}

int Cluster::create_ec_pool(ec::Profile profile) {
  PoolConfig p;
  p.mode = PoolConfig::Mode::erasure;
  p.ec_profile = profile;
  p.codec = std::make_unique<const ec::ReedSolomon>(profile);
  p.crush_rule = layout_.ec_rule;
  placement_.emplace_back(kPgNum);
  pools_.push_back(std::move(p));
  return static_cast<int>(pools_.size() - 1);
}

std::uint32_t Cluster::pg_of(std::uint64_t oid) const {
  const std::uint32_t h = crush::hash32_2(static_cast<std::uint32_t>(oid),
                                          static_cast<std::uint32_t>(oid >> 32));
  return h % kPgNum;
}

DK_HOT const std::vector<int>& Cluster::acting_set(
    int pool, std::uint64_t oid, crush::PlacementWork* work) const {
  const std::uint32_t pg = pg_of(oid);
  PlacementSlot& slot = placement_[static_cast<std::size_t>(pool)][pg];
  if (slot.epoch != epoch_) place_pg(pool, pg, slot);
  if (work != nullptr) *work += slot.work;
  return slot.acting;
}

void Cluster::place_pg(int pool, std::uint32_t pg,
                       PlacementSlot& slot) const {
  const auto& p = pools_[static_cast<std::size_t>(pool)];
  // CRUSH input mixes pool id and PG, like Ceph's pps (placement seed).
  const std::uint32_t x =
      crush::hash32_2(static_cast<std::uint32_t>(pool) + 1, pg);
  slot.work = {};
  const auto items = layout_.map.do_rule(p.crush_rule, x, p.fanout(),
                                         &slot.work);
  slot.acting.assign(items.begin(), items.end());
  slot.epoch = epoch_;
}

void Cluster::set_osd_down(int id, bool down) {
  const auto i = static_cast<std::size_t>(id);
  if (down_[i] == down) return;
  down_[i] = down;
  ++epoch_;
}

void Cluster::set_osd_out(int id, bool out) {
  if (layout_.map.device_out(id) != out) {
    layout_.map.set_device_out(id, out);
    ++epoch_;
  }
  // A mark-out reweights CRUSH: placement changed, so the background
  // scheduler (when armed) plans and executes a paced backfill.
  if (out && background_ != nullptr) background_->on_placement_change();
}

void Cluster::crash_osd(int id) {
  set_osd_down(id, true);
  osd(id).set_crashed(true);
  if (faults_ != nullptr) faults_->count_osd_crash();
}

void Cluster::set_validator(PipelineValidator* validator) {
  for (auto& o : osds_) o->set_validator(validator);
}

void Cluster::restart_osd(int id) {
  // Crash recovery runs before the OSD takes traffic again: the WAL
  // replays, intact records apply and the torn tail is discarded.
  const std::size_t replayed = osd(id).replay_journal();
  if (replayed > 0) {
    torn_writes_replayed_ += replayed;
    if (torn_replayed_metric_ != nullptr)
      torn_replayed_metric_->inc(replayed);
  }
  osd(id).set_crashed(false);
  set_osd_down(id, false);
  set_osd_out(id, false);
  if (faults_ != nullptr) faults_->count_osd_restart();
}

void Cluster::attach_metrics(MetricsRegistry& registry,
                             const std::string& prefix) {
  torn_replayed_metric_ = &registry.counter(prefix + ".torn_writes_replayed");
}

void Cluster::arm_faults(sim::FaultInjector& faults) {
  faults_ = &faults;
  net_.set_fault_injector(&faults);
  for (auto& o : osds_) o->set_fault_injector(&faults);
  for (const auto& ev : faults.plan().osd_crashes) {
    DK_CHECK(ev.osd >= 0 && static_cast<std::size_t>(ev.osd) < osds_.size())
        << "fault plan crashes OSD " << ev.osd << " out of range";
    const int id = ev.osd;
    const bool torn = ev.torn_write;
    sim_.schedule_at(ev.crash_at, [this, id, torn] {
      crash_osd(id);
      // Arm after the crash: the next store apply still in flight on this
      // OSD (its worker closures outlive the process model) lands torn.
      if (torn) osd(id).arm_torn_write();
    });
    if (ev.mark_out_after >= 0) {
      // Monitor grace period, then CRUSH reweight: placement remaps and
      // write retries land on the new primary. Skipped if the OSD already
      // restarted (a fast-rejoining OSD is never marked out).
      sim_.schedule_at(ev.crash_at + ev.mark_out_after, [this, id] {
        if (osd(id).crashed()) set_osd_out(id, true);
      });
    }
    if (ev.restart_at > 0) {
      DK_CHECK(ev.restart_at > ev.crash_at)
          << "OSD " << id << " restart scheduled before its crash";
      sim_.schedule_at(ev.restart_at, [this, id] { restart_osd(id); });
    }
  }
  for (const auto& ev : faults.plan().media) {
    sim_.schedule_at(ev.at, [this, ev] {
      const ObjectKey key{ev.pool, ev.oid, ev.shard};
      int target = ev.osd;
      if (target < 0) {
        // Hit the first live holder of the object/shard at event time.
        for (std::size_t i = 0; i < osds_.size(); ++i) {
          if (!down_[i] && osds_[i]->store().exists(key)) {
            target = static_cast<int>(i);
            break;
          }
        }
      }
      if (target < 0 ||
          static_cast<std::size_t>(target) >= osds_.size())
        return;  // no copy exists yet: nothing to corrupt, no rng draw
      auto bytes = osd(target).store().raw_bytes(key);
      if (bytes.empty()) return;
      // Flip bits behind the checksum metadata's back: only a verify can
      // tell this copy went bad.
      faults_->corrupt_bytes(bytes, ev.bit_flips);
      faults_->count_media_corruption();
    });
  }
}

void Cluster::send_from_client(int dst_osd, std::shared_ptr<OpBody> body) {
  body->target_osd = dst_osd;
  const std::uint64_t bytes = op_wire_bytes(*body);
  net_.send(net::Message{client_node_, node_of_osd(dst_osd), bytes, 0,
                         std::move(body)});
}

void Cluster::drop_message(const OpBody& body) {
  if (faults_ != nullptr) faults_->count_crash_dropped_message();
  // A lost recovery leg reports that its push never arrived.
  if (body.on_done) body.on_done(false);
}

void Cluster::send_from_osd(int src_osd, int dst,
                            std::shared_ptr<OpBody> body) {
  if (osd(src_osd).crashed()) {
    // An op that was mid-service when the process died cannot send its
    // reply/ack from beyond the grave.
    drop_message(*body);
    return;
  }
  const std::uint64_t bytes = op_wire_bytes(*body);
  if (dst < 0) {
    net_.send(net::Message{node_of_osd(src_osd), client_node_, bytes, 0,
                           std::move(body)});
    return;
  }
  body->target_osd = dst;
  // Frame loss drops a message silently; a recovery leg it drops still
  // reports that its push never arrived (frames_dropped already counted it).
  const std::shared_ptr<OpBody> push = body->on_done ? body : nullptr;
  if (!net_.send(net::Message{node_of_osd(src_osd), node_of_osd(dst), bytes,
                              0, std::move(body)}) &&
      push != nullptr)
    push->on_done(false);
}

void Cluster::push(int holder, int to_osd, const ObjectKey& key,
                   std::uint64_t bytes, sim::UniqueFn<void(bool)> arrived) {
  Osd& src = osd(holder);
  const Nanos read_svc =
      src.service_time(bytes, /*is_write=*/false, key, /*offset=*/0);
  src.submit_background(read_svc, [this, holder, to_osd, key, bytes,
                                   arrived = std::move(arrived)]() mutable {
    auto body = make_op(OpType::backfill_push);
    body->key = key;
    body->data = osd(holder).store().read(key, 0, bytes);
    body->on_done = std::move(arrived);
    send_from_osd(holder, to_osd, std::move(body));
  });
}

std::uint64_t Cluster::total_ops_served() const {
  std::uint64_t total = 0;
  for (const auto& o : osds_) total += o->ops_served();
  return total;
}

}  // namespace dk::rados
