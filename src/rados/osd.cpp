#include "rados/osd.hpp"

#include <utility>

#include "common/check.hpp"
#include "sim/faults.hpp"

namespace dk::rados {

Osd::Osd(sim::Simulator& sim, int id, std::uint64_t seed)
    : sim_(sim),
      id_(id),
      rng_(seed),
      workers_(sim, kOpThreads, "osd-workers") {}

void Osd::attach_metrics(MetricsRegistry& registry, const std::string& prefix) {
  metrics_.ops = &registry.counter(prefix + ".ops");
  metrics_.read_service = &registry.histogram(prefix + ".read_service");
  metrics_.write_service = &registry.histogram(prefix + ".write_service");
}

void Osd::arm_blockstore(const BlockstoreConfig& config) {
  blockstore_ = std::make_unique<Blockstore>(config, store_);
  blockstore_->set_validator(validator_);
}

void Osd::set_validator(PipelineValidator* validator) {
  validator_ = validator;
  if (blockstore_) blockstore_->set_validator(validator);
}

std::size_t Osd::replay_journal() {
  return blockstore_ ? blockstore_->replay() : 0;
}

void Osd::set_crashed(bool crashed) {
  crashed_ = crashed;
  if (crashed) {
    // The process died: every in-flight op and all cache-locality history
    // is gone. Ops whose acks were pending here stall until the client's
    // deadline fires and the retry path re-issues them.
    pending_.clear();
    pending_reads_.clear();
    last_read_end_.clear();
    last_write_end_.clear();
  }
}

Nanos Osd::service_time(std::uint64_t bytes, bool is_write,
                        const ObjectKey& key, std::uint64_t offset) {
  auto& last_end = is_write ? last_write_end_ : last_read_end_;
  auto it = last_end.find(key);
  const bool contiguous = it != last_end.end() && it->second == offset;
  last_end[key] = offset + bytes;

  // Contiguous reads were prefetched by readahead; contiguous writes join
  // the open WAL batch. Both skip the per-access media fixed cost.
  const Nanos media_fixed =
      contiguous ? 0 : (is_write ? kMediaWriteFixed : kMediaReadFixed);
  // Blockstore-armed writes pay the WAL on top of the media model: journal
  // append (header + payload over the journal device) and the periodic
  // fsync barrier. Charged here — the single service-time choke point — so
  // journal pressure competes with every other op on the worker stations.
  // An integrity-only WAL is uncharged.
  const Nanos wal = is_write && blockstore_ && blockstore_->charged()
                        ? blockstore_->append_cost(bytes)
                        : 0;
  const Nanos base =
      kOpFixed + media_fixed + wal + transfer_time(bytes, kMediaBps);
  const Nanos jitter = static_cast<Nanos>(
      rng_.exponential(kJitterFrac * static_cast<double>(base)));
  const Nanos total = base + jitter;
  // service_time() is the single choke point every op's media/CPU cost
  // passes through, so it doubles as the OSD-side trace point.
  if (metrics_.read_service) {
    (is_write ? metrics_.write_service : metrics_.read_service)->record(total);
  }
  return total;
}

void Osd::handle(std::shared_ptr<OpBody> body) {
  DK_CHECK(send_) << "messenger not wired";
  ++ops_served_;
  if (metrics_.ops) metrics_.ops->inc();
  switch (body->type) {
    case OpType::client_write: do_client_write(std::move(body)); break;
    case OpType::sub_write: do_sub_write(std::move(body)); break;
    case OpType::write_ack: do_write_ack(std::move(body)); break;
    case OpType::read: do_read(std::move(body)); break;
    case OpType::read_reply: do_read_reply(std::move(body)); break;
    case OpType::ec_primary_write: do_ec_primary_write(std::move(body)); break;
    case OpType::ec_primary_read: do_ec_primary_read(std::move(body)); break;
    case OpType::backfill_push: {
      // A recovery leg, in the background service class: charge the pushed
      // bytes' write service, then report the arrival to the recovery move
      // directly (the ack is not modeled on the wire; its 6 us would be
      // invisible under the multi-ms copy times). The move persists what it
      // re-derives once its last leg is in (RecoveryManager::execute).
      const Nanos svc = service_time(body->data.size(), /*is_write=*/true,
                                     body->key, body->offset);
      workers_.submit_background(
          svc, [arrived = std::move(body->on_done)] { arrived(true); });
      break;
    }
  }
}

void Osd::apply_write(const ObjectKey& key, std::uint64_t offset,
                      const Payload& data,
                      std::span<const std::uint32_t> checksums) {
  if (data.empty()) return;
  if (!blockstore_) {
    store_.write(key, offset, data, checksums);
    return;
  }
  // WAL discipline: the journal record lands first; only commit() touches
  // the data area. A crash mid-append tears the tail record at a byte
  // boundary drawn from the corruption stream — the data area never sees
  // those bytes, and replay discards the torn record on restart, so
  // exactly the acknowledged prefix survives.
  const std::uint64_t lsn = blockstore_->append(key, offset, data);
  if (crashed_ && torn_armed_) {
    torn_armed_ = false;
    const std::uint64_t record = blockstore_->record_bytes(lsn);
    const std::uint64_t keep =
        faults_ != nullptr ? faults_->torn_prefix(record) : record / 2;
    blockstore_->tear_tail(keep);
    if (faults_ != nullptr) faults_->count_torn_write();
    return;
  }
  blockstore_->commit(lsn, key, offset, data, checksums);
  // Trimming freed journal space; a charged WAL's compaction rewrite
  // occupies an op thread for its simulated duration, contending with
  // client I/O.
  const std::uint64_t debt = blockstore_->take_compaction_debt();
  if (debt > 0 && blockstore_->charged())
    workers_.submit(blockstore_->compaction_cost(debt), [] {});
}

void Osd::do_client_write(std::shared_ptr<OpBody> body) {
  // Primary-copy protocol: the local persist and the replica fan-out run in
  // PARALLEL (as in Ceph: the primary queues the transaction and ships
  // sub-ops immediately); the client is acked when both the local write and
  // every replica ack have landed.
  PendingWrite pw;
  pw.awaiting = 1 + static_cast<unsigned>(body->replicas.size());
  auto reply = make_op(OpType::write_ack, body->op_id, body->key);
  pw.reply = reply;
  const std::uint64_t op_id = body->op_id;
  pending_nodes_.emplace(pending_, op_id, std::move(pw));

  for (int replica : body->replicas) {
    auto sub = make_op(OpType::sub_write, op_id, body->key, body->offset,
                       body->length, body->data);
    sub->reply_osd = id_;
    sub->checksums = body->checksums;
    send_(replica, std::move(sub));
  }

  const Nanos svc = service_time(body->data.size(), /*is_write=*/true,
                                 body->key, body->offset);
  workers_.submit(svc, [this, op_id, body = std::move(body)] {
    apply_write(body->key, body->offset, body->data, body->checksums);
    do_write_ack(make_op(OpType::write_ack, op_id));
  });
}

void Osd::do_sub_write(std::shared_ptr<OpBody> body) {
  const Nanos svc = service_time(body->data.size(), /*is_write=*/true,
                                 body->key, body->offset);
  workers_.submit(svc, [this, body = std::move(body)] {
    apply_write(body->key, body->offset, body->data, body->checksums);
    auto ack = make_op(OpType::write_ack, body->op_id, body->key);
    ack->target_osd = body->reply_osd;
    send_(body->reply_osd, std::move(ack));
  });
}

void Osd::do_write_ack(std::shared_ptr<OpBody> body) {
  auto it = pending_.find(body->op_id);
  if (it == pending_.end()) return;  // stale ack
  if (--it->second.awaiting == 0) {
    send_(-1, std::move(it->second.reply));
    pending_nodes_.erase(pending_, it);
  }
}

void Osd::do_read(std::shared_ptr<OpBody> body) {
  // The read references its pages, whose counts are usually cold: start
  // loading them now, while the simulator runs the events ahead of it.
  store_.prefetch(body->key, body->offset, body->length);
  const Nanos svc = service_time(body->length, /*is_write=*/false, body->key,
                                 body->offset);
  workers_.submit(svc, [this, body = std::move(body)] {
    auto reply = make_op(OpType::read_reply, body->op_id, body->key);
    if (!store_.verify(body->key, body->offset, body->length)) {
      // Block checksum mismatch: reply the error instead of known-bad
      // bytes; the requester reads another replica or decodes around it.
      reply->error = Errc::corrupted;
    } else {
      reply->data = store_.read(body->key, body->offset, body->length);
      store_.checksums_for(body->key, body->offset, body->length,
                           reply->checksums);
    }
    reply->target_osd = body->reply_osd;
    send_(body->reply_osd, std::move(reply));
  });
}

void Osd::do_ec_primary_write(std::shared_ptr<OpBody> body) {
  // Software-Ceph EC write path: the primary pays the jerasure encode cost
  // in CPU time, stores its own shard, and fans the rest out. `replicas`
  // holds the full acting set in shard order (entry 0 == this OSD).
  DK_CHECK(body->codec != nullptr &&
           body->replicas.size() == body->codec->profile().total());
  const ec::ReedSolomon& rs = *body->codec;
  const unsigned k = rs.profile().k;
  const Nanos encode_cost =
      transfer_time(rs.encode_ops(body->data.size()), kEcEncodeBps);
  ObjectKey own_key = body->key;
  own_key.shard = 0;
  const Nanos svc = service_time(body->data.size() / k, /*is_write=*/true,
                                 own_key, body->offset / k) +
                    encode_cost;
  workers_.submit(svc, [this, body = std::move(body)] {
    const ec::ReedSolomon& rs = *body->codec;
    auto data_chunks = rs.split(body->data);
    auto coding = rs.encode(data_chunks);
    DK_CHECK(coding.ok());
    std::vector<ec::Chunk> shards = std::move(data_chunks);
    for (auto& c : *coding) shards.push_back(std::move(c));

    const std::uint64_t shard_off = body->offset / rs.profile().k;

    // Store our own shard (shard 0).
    ObjectKey own = body->key;
    own.shard = 0;
    apply_write(own, shard_off, Payload::copy_of(shards[0], shard_off), {});

    PendingWrite pw;
    pw.awaiting = static_cast<unsigned>(shards.size() - 1);
    auto reply = make_op(OpType::write_ack, body->op_id, body->key);
    pw.reply = reply;
    if (pw.awaiting == 0) {
      send_(-1, reply);
      return;
    }
    pending_nodes_.emplace(pending_, body->op_id, std::move(pw));
    for (unsigned s = 1; s < shards.size(); ++s) {
      auto sub = make_op(OpType::sub_write, body->op_id, body->key);
      sub->key.shard = static_cast<std::int32_t>(s);
      sub->offset = shard_off;
      sub->data = Payload::copy_of(shards[s], shard_off);
      sub->reply_osd = id_;
      send_(body->replicas[s], std::move(sub));
    }
  });
}

void Osd::do_ec_primary_read(std::shared_ptr<OpBody> body) {
  // Software-Ceph EC read path: the primary reads its own shard, gathers
  // the other k-1 data shards, reassembles, and replies to the client. The
  // shards stay the stores' pages until the one copy that lays them out
  // as the object's bytes.
  DK_CHECK(body->codec != nullptr &&
           body->replicas.size() == body->codec->profile().total());
  const unsigned k = body->codec->profile().k;
  const std::uint64_t chunk_len = (body->length + k - 1) / k;
  const std::uint64_t shard_off = body->offset / k;
  ObjectKey own_key = body->key;
  own_key.shard = 0;
  const Nanos svc =
      service_time(chunk_len, /*is_write=*/false, own_key, shard_off);
  workers_.submit(svc, [this, body = std::move(body), chunk_len, shard_off] {
    const ec::ReedSolomon& rs = *body->codec;
    const unsigned k = rs.profile().k;
    ObjectKey own = body->key;
    own.shard = 0;
    if (!store_.verify(own, shard_off, chunk_len)) {
      // The primary's own shard is bad: it cannot serve this gather-and-
      // decode path. Reply the error; the client falls back to a
      // direct_shards read, which reconstructs from parity and repairs.
      auto reply = make_op(OpType::read_reply, body->op_id, body->key);
      reply->error = Errc::corrupted;
      send_(-1, std::move(reply));
      return;
    }
    PendingRead pr;
    pr.codec = &rs;
    pr.offset = body->offset;
    pr.length = body->length;
    pr.awaiting = k - 1;
    pr.shards.resize(k);
    pr.shards[0] = store_.read(own, shard_off, chunk_len);

    auto reply = make_op(OpType::read_reply, body->op_id, body->key);
    pr.reply = reply;

    if (pr.awaiting == 0) {
      reply->data = rs.assemble(pr.shards, body->offset, body->length);
      send_(-1, reply);
      return;
    }
    read_nodes_.emplace(pending_reads_, body->op_id, std::move(pr));
    for (unsigned s = 1; s < k; ++s) {
      auto sub = make_op(OpType::read, body->op_id, body->key);
      sub->key.shard = static_cast<std::int32_t>(s);
      sub->offset = shard_off;
      sub->length = chunk_len;
      sub->reply_osd = id_;
      send_(body->replicas[s], std::move(sub));
    }
  });
}

void Osd::do_read_reply(std::shared_ptr<OpBody> body) {
  auto it = pending_reads_.find(body->op_id);
  if (it == pending_reads_.end()) return;  // stale
  PendingRead& pr = it->second;
  if (body->error != Errc::ok) {
    // A gathered shard failed its checksum. The primary only gathers the k
    // data shards, so it cannot decode around the bad one — abort the
    // gather and let the client's direct_shards fallback reconstruct.
    pr.reply->error = body->error;
    send_(-1, std::move(pr.reply));
    read_nodes_.erase(pending_reads_, it);
    return;
  }
  const auto shard = static_cast<std::size_t>(body->key.shard);
  DK_CHECK(shard < pr.shards.size());
  pr.shards[shard] = std::move(body->data);
  if (--pr.awaiting != 0) return;
  // All k data shards present: lay them out (no decode needed on the
  // healthy path — the chunks are systematic data shards).
  pr.reply->data = pr.codec->assemble(pr.shards, pr.offset, pr.length);
  send_(-1, std::move(pr.reply));
  read_nodes_.erase(pending_reads_, it);
}

}  // namespace dk::rados
