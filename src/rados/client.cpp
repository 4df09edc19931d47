#include "rados/client.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "common/crc32c.hpp"
#include "common/pipeline_validator.hpp"

namespace dk::rados {

namespace {

/// Transient failures worth another attempt. Everything else (bad argument,
/// decode failure, permanent shortage) surfaces to the caller immediately.
bool status_retryable(const Status& s) {
  return s.code() == Errc::timed_out || s.code() == Errc::again ||
         s.code() == Errc::io_error;
}

/// Re-check cadence while a write is parked behind an in-flight recovery
/// move on its object (Ceph's recovery_blocked). Short enough that the
/// unblock latency is dominated by the move itself.
constexpr Nanos kRecoveryBlockedRetryDelay = us(20);

/// Retry policy, armed by arm_retries(): an attempt's deadline starts at
/// 2 ms and doubles per re-issue up to 50 ms; a re-issue waits 200 us after
/// a retryable failure, doubling likewise; at most 4 re-issues.
constexpr unsigned kMaxRetries = 4;
constexpr Nanos kBaseTimeout = ms(2);
constexpr Nanos kBaseDelay = us(200);
constexpr double kBackoff = 2.0;
constexpr Nanos kMaxTimeout = ms(50);

/// Bit `i` of a `Pending` mask.
constexpr std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }

/// The key of object (pool, oid), or of its EC shard `shard`.
ObjectKey object_key(int pool, std::uint64_t oid, std::int32_t shard = -1) {
  return ObjectKey{static_cast<std::uint32_t>(pool), oid, shard};
}

/// `base` grown by kBackoff per attempt, capped at kMaxTimeout.
Nanos backed_off(Nanos base, unsigned attempt) {
  double v = static_cast<double>(base);
  for (unsigned i = 0; i < attempt; ++i) v *= kBackoff;
  const auto cap = static_cast<double>(kMaxTimeout);
  return static_cast<Nanos>(v < cap ? v : cap);
}

}  // namespace

void RadosClient::Pending::record_acting(std::span<const int> set) {
  DK_CHECK(set.size() <= kMaxActing) << "Pending masks hold 64 positions";
  std::copy(set.begin(), set.end(), acting.begin());
  acting_size = set.size();
}

RadosClient::RadosClient(Cluster& cluster) : cluster_(cluster) {
  cluster_.set_client_handler(
      [this](std::shared_ptr<OpBody> body) { on_reply(std::move(body)); });
}

void RadosClient::attach_metrics(MetricsRegistry& registry,
                                 const std::string& prefix) {
  metrics_.ops_started = &registry.counter(prefix + ".ops_started");
  metrics_.ops_completed = &registry.counter(prefix + ".ops_completed");
  metrics_.messages_sent = &registry.counter(prefix + ".messages_sent");
  metrics_.ec_bytes_encoded = &registry.counter(prefix + ".ec_bytes_encoded");
  metrics_.inflight = &registry.gauge(prefix + ".inflight");
  // Fixed global names (not prefix-scoped): there is one application-facing
  // I/O path per registry, and dashboards/tests key on these. Registered
  // only once retries are armed so that fault-free stacks keep their
  // metric dumps byte-identical to builds without this subsystem.
  if (retries_armed_) {
    metrics_.retries_read = &registry.counter("io.retries.read");
    metrics_.retries_write = &registry.counter("io.retries.write");
    metrics_.timeouts = &registry.counter("io.timeouts");
    metrics_.degraded_reads = &registry.counter("io.degraded_reads");
  }
  // Same byte-identity contract as above: integrity metrics exist only in
  // integrity-armed stacks.
  if (integrity_) {
    metrics_.checksum_failures =
        &registry.counter("integrity.checksum_failures");
    metrics_.read_repairs = &registry.counter("integrity.read_repairs");
  }
}

void RadosClient::count_retry(bool is_read) {
  if (is_read) {
    ++retries_read_;
    if (metrics_.retries_read) metrics_.retries_read->inc();
  } else {
    ++retries_write_;
    if (metrics_.retries_write) metrics_.retries_write->inc();
  }
}

void RadosClient::count_degraded_read() {
  ++degraded_reads_;
  if (metrics_.degraded_reads) metrics_.degraded_reads->inc();
}

void RadosClient::arm_deadline(std::uint64_t op_id, Nanos timeout) {
  cluster_.simulator().schedule_after(timeout, [this, op_id] {
    auto it = pending_.find(op_id);
    if (it == pending_.end()) return;  // completed within the deadline
    Pending pend = std::move(it->second);
    pending_nodes_.erase(pending_, it);
    ++timeouts_;
    if (metrics_.timeouts) metrics_.timeouts->inc();
    if (metrics_.inflight) metrics_.inflight->sub();
    // A detected corruption resolves here as an error: the op is over and
    // no wrong bytes were delivered.
    if (pend.corrupted_seen && validator_ != nullptr)
      validator_->on_corruption_resolved();
    // Late replies for this op_id are now stale and ignored by on_reply.
    Status s = Status::Error(Errc::timed_out, "op deadline exceeded");
    if (pend.is_read) {
      pend.rcb(std::move(s));
    } else {
      cluster_.note_client_write_end(static_cast<std::uint32_t>(pend.pool),
                                     pend.oid);
      pend.wcb(std::move(s));
    }
  });
}

void RadosClient::start_write_attempt(std::shared_ptr<WriteAttempt> ctx) {
  if (cluster_.object_recovering(static_cast<std::uint32_t>(ctx->pool),
                                 ctx->oid)) {
    // Recovery holds this object's write lock (Ceph's recovery_blocked):
    // re-try the attempt once the in-flight move has settled. The deadline
    // is armed only when the attempt actually dispatches.
    ++recovery_write_delays_;
    cluster_.simulator().schedule_after(
        kRecoveryBlockedRetryDelay,
        [this, ctx] { start_write_attempt(ctx); });
    return;
  }
  auto attempt_cb = [this, ctx](Status s) {
    if (s.ok() || !status_retryable(s) || ctx->attempt >= kMaxRetries) {
      ctx->cb(std::move(s));
      return;
    }
    const Nanos delay = backed_off(kBaseDelay, ctx->attempt);
    ++ctx->attempt;
    count_retry(/*is_read=*/false);
    // Re-issue after backoff with a fresh acting set: after a CRUSH
    // reweight the write lands on the new primary.
    cluster_.simulator().schedule_after(
        delay, [this, ctx] { start_write_attempt(ctx); });
  };
  const Nanos timeout = backed_off(kBaseTimeout, ctx->attempt);
  const std::uint64_t op_id =
      dispatch_write(ctx->pool, ctx->oid, ctx->offset, ctx->data,
                     ctx->strategy, std::move(attempt_cb));
  if (op_id != 0) arm_deadline(op_id, timeout);
}

void RadosClient::start_read_attempt(std::shared_ptr<ReadAttempt> ctx) {
  auto attempt_cb = [this, ctx](Result<Payload> r) {
    const Status s = r.status();
    if (r.ok() || !status_retryable(s) || ctx->attempt >= kMaxRetries) {
      ctx->cb(std::move(r));
      return;
    }
    const Nanos delay = backed_off(kBaseDelay, ctx->attempt);
    ++ctx->attempt;
    count_retry(/*is_read=*/true);
    cluster_.simulator().schedule_after(
        delay, [this, ctx] { start_read_attempt(ctx); });
  };
  const Nanos timeout = backed_off(kBaseTimeout, ctx->attempt);
  const std::uint64_t op_id =
      dispatch_read(ctx->pool, ctx->oid, ctx->offset, ctx->length,
                    ctx->strategy, std::move(attempt_cb));
  if (op_id != 0) arm_deadline(op_id, timeout);
}

void RadosClient::op_started() {
  if (metrics_.ops_started) {
    metrics_.ops_started->inc();
    metrics_.inflight->add();
  }
}

void RadosClient::send(int osd, std::shared_ptr<OpBody> body) {
  if (metrics_.messages_sent) metrics_.messages_sent->inc();
  cluster_.send_from_client(osd, std::move(body));
}

void RadosClient::write(int pool, std::uint64_t oid, std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        WriteStrategy strategy, WriteCallback cb) {
  if (!retries_armed_) {
    dispatch_write(pool, oid, offset, data, strategy, std::move(cb));
    return;
  }
  auto ctx = std::make_shared<WriteAttempt>();
  ctx->pool = pool;
  ctx->oid = oid;
  ctx->offset = offset;
  ctx->data.assign(data.begin(), data.end());
  ctx->strategy = strategy;
  ctx->cb = std::move(cb);
  start_write_attempt(std::move(ctx));
}

std::uint64_t RadosClient::dispatch_write(int pool, std::uint64_t oid,
                                          std::uint64_t offset,
                                          std::span<const std::uint8_t> data,
                                          WriteStrategy strategy,
                                          WriteCallback cb) {
  if (cluster_.object_recovering(static_cast<std::uint32_t>(pool), oid)) {
    // No-retry clients reach here directly: defer the dispatch until the
    // object's recovery move settles (see start_write_attempt).
    ++recovery_write_delays_;
    cluster_.simulator().schedule_after(
        kRecoveryBlockedRetryDelay,
        [this, pool, oid, offset,
         bytes = std::vector<std::uint8_t>(data.begin(), data.end()),
         strategy, cb = std::move(cb)]() mutable {
          dispatch_write(pool, oid, offset, bytes, strategy, std::move(cb));
        });
    return 0;
  }
  const auto& p = cluster_.pool(pool);
  const auto& acting = cluster_.acting_set(pool, oid, &work_);
  if (acting.size() < p.fanout()) {
    cb(Status::Error(Errc::no_space, "not enough OSDs in acting set"));
    return 0;
  }
  if (p.mode == PoolConfig::Mode::replicated) {
    return write_replicated(pool, oid, offset, data, acting, strategy,
                            std::move(cb));
  }
  return write_ec(pool, oid, offset, data, acting, strategy, std::move(cb));
}

std::uint64_t RadosClient::write_replicated(
    int pool, std::uint64_t oid, std::uint64_t offset,
    std::span<const std::uint8_t> bytes, const std::vector<int>& acting,
    WriteStrategy strategy, WriteCallback cb) {
  const std::uint64_t op_id = next_op_id_++;
  Pending pend;
  pend.pool = pool;
  pend.oid = oid;
  pend.wcb = std::move(cb);
  cluster_.note_client_write_begin(static_cast<std::uint32_t>(pool), oid);
  // The one copy of the payload: every message below shares these pages.
  Payload data = Payload::copy_of(bytes, offset);

  if (strategy == WriteStrategy::primary_copy) {
    pend.awaiting = 1;
    pending_nodes_.emplace(pending_, op_id, std::move(pend));
    op_started();
    auto body = make_op(OpType::client_write, op_id, object_key(pool, oid),
                        offset);
    body->data = std::move(data);
    maybe_checksums(offset, body->data, body->checksums);
    body->replicas.assign(acting.begin() + 1, acting.end());
    send(acting[0], std::move(body));
    return op_id;
  }

  // client_fanout: one direct message per replica, acked independently;
  // every message shares the payload's pages.
  pend.awaiting = static_cast<unsigned>(acting.size());
  pending_nodes_.emplace(pending_, op_id, std::move(pend));
  op_started();
  BlockCrcs checksums;
  maybe_checksums(offset, data, checksums);
  for (const int osd : acting) {
    auto body = make_op(OpType::sub_write, op_id, object_key(pool, oid),
                        offset);
    body->data = data;
    body->checksums = checksums;
    send(osd, std::move(body));
  }
  return op_id;
}

std::uint64_t RadosClient::write_ec(int pool, std::uint64_t oid,
                                    std::uint64_t offset,
                                    std::span<const std::uint8_t> data,
                                    const std::vector<int>& acting,
                                    WriteStrategy strategy, WriteCallback cb) {
  const ec::ReedSolomon& rs = *cluster_.pool(pool).codec;
  const unsigned k = rs.profile().k;
  if (offset % k != 0) {
    cb(Status::Error(Errc::invalid_argument,
                     "EC write offset must be k-aligned"));
    return 0;
  }
  const std::uint64_t op_id = next_op_id_++;
  Pending pend;
  pend.pool = pool;
  pend.oid = oid;
  pend.wcb = std::move(cb);
  cluster_.note_client_write_begin(static_cast<std::uint32_t>(pool), oid);

  if (strategy == WriteStrategy::primary_copy) {
    pend.awaiting = 1;
    pending_nodes_.emplace(pending_, op_id, std::move(pend));
    op_started();
    auto body = make_op(OpType::ec_primary_write, op_id,
                        object_key(pool, oid), offset);
    body->data = Payload::copy_of(data, offset);
    body->replicas = acting;
    body->codec = &rs;
    send(acting[0], std::move(body));
    return op_id;
  }

  // client_fanout: encode locally (functionally — the time cost is charged
  // by the framework variant, in software or on the FPGA model), then put
  // each shard on the wire directly. The split reads the caller's bytes;
  // each shard is copied into pages once, for its store to adopt.
  ec_encoded_ += data.size();
  if (metrics_.ec_bytes_encoded) metrics_.ec_bytes_encoded->inc(data.size());
  auto chunks = rs.split(data);
  auto coding = rs.encode(chunks);
  DK_CHECK(coding.ok());
  for (auto& c : *coding) chunks.push_back(std::move(c));

  pend.awaiting = static_cast<unsigned>(chunks.size());
  pending_nodes_.emplace(pending_, op_id, std::move(pend));
  op_started();
  const std::uint64_t shard_off = offset / k;
  for (unsigned s = 0; s < chunks.size(); ++s) {
    auto body = make_op(OpType::sub_write, op_id, object_key(pool, oid, s),
                        shard_off);
    body->data = Payload::copy_of(chunks[s], shard_off);
    maybe_checksums(shard_off, body->data, body->checksums);
    send(acting[s], std::move(body));
  }
  return op_id;
}

void RadosClient::read(int pool, std::uint64_t oid, std::uint64_t offset,
                       std::uint64_t length, ReadStrategy strategy,
                       ReadCallback cb) {
  if (!retries_armed_) {
    dispatch_read(pool, oid, offset, length, strategy, std::move(cb));
    return;
  }
  auto ctx = std::make_shared<ReadAttempt>();
  ctx->pool = pool;
  ctx->oid = oid;
  ctx->offset = offset;
  ctx->length = length;
  ctx->strategy = strategy;
  ctx->cb = std::move(cb);
  start_read_attempt(std::move(ctx));
}

ReadCallback copy_to_vector(VectorReadCallback cb) {
  return [cb = std::move(cb)](Result<Payload> r) mutable {
    if (r.ok())
      cb(r->to_vector());
    else
      cb(r.status());
  };
}

void RadosClient::read(int pool, std::uint64_t oid, std::uint64_t offset,
                       std::uint64_t length, ReadStrategy strategy,
                       VectorReadCallback cb) {
  read(pool, oid, offset, length, strategy, copy_to_vector(std::move(cb)));
}

DK_HOT std::uint64_t RadosClient::dispatch_read(int pool, std::uint64_t oid,
                                         std::uint64_t offset,
                                         std::uint64_t length,
                                         ReadStrategy strategy,
                                         ReadCallback cb) {
  const auto& p = cluster_.pool(pool);
  const auto& acting = cluster_.acting_set(pool, oid, &work_);
  if (acting.empty()) {
    cb(Status::Error(Errc::not_found, "empty acting set"));
    return 0;
  }
  if (p.mode == PoolConfig::Mode::replicated) {
    return read_replicated(pool, oid, offset, length, acting, std::move(cb));
  }
  return read_ec(pool, oid, offset, length, acting, strategy, std::move(cb));
}

void RadosClient::defer_read(int pool, std::uint64_t oid,
                             std::uint64_t offset, std::uint64_t length,
                             ReadCallback cb, unsigned defers_left) {
  ++recovery_read_delays_;
  cluster_.simulator().schedule_after(
      kRecoveryBlockedRetryDelay,
      [this, pool, oid, offset, length, cb = std::move(cb),
       defers_left]() mutable {
        const auto& fresh = cluster_.acting_set(pool, oid, &work_);
        if (fresh.empty()) {
          cb(Status::Error(Errc::not_found, "empty acting set"));
          return;
        }
        read_replicated(pool, oid, offset, length, fresh, std::move(cb),
                        defers_left);
      });
}

DK_HOT std::uint64_t RadosClient::read_replicated(int pool, std::uint64_t oid,
                                           std::uint64_t offset,
                                           std::uint64_t length,
                                           const std::vector<int>& acting,
                                           ReadCallback cb,
                                           unsigned degraded_defers_left) {
  // Degraded routing: serve from the first replica that is neither down
  // nor awaiting backfill (a newcomer's copy is missing or stale until its
  // recovery push lands). With a healthy acting set this is the primary,
  // as before.
  std::size_t choice = choose_replica(acting, object_key(pool, oid), 0);
  if (choice == acting.size()) {
    // Every live replica is still awaiting its recovery copy (a fully
    // displaced PG): block the read until one lands, as Ceph recovers a
    // degraded object before serving it. Re-dispatch with a fresh acting
    // set each poll; the budget bounds pathological cases (recovery
    // permanently cancelled) — once drained, fall through to the first
    // live replica so the op still makes progress.
    choice = static_cast<std::size_t>(
        std::find_if(acting.begin(), acting.end(),
                     [this](int o) { return !cluster_.osd_down(o); }) -
        acting.begin());
    if (choice != acting.size() && degraded_defers_left > 0) {
      defer_read(pool, oid, offset, length, std::move(cb),
                 degraded_defers_left - 1);
      return 0;
    }
  }
  if (choice == acting.size()) {
    cb(Status::Error(Errc::io_error, "all replicas down"));
    return 0;
  }
  if (choice != 0) count_degraded_read();

  const std::uint64_t op_id = next_op_id_++;
  Pending pend;
  pend.is_read = true;
  pend.pool = pool;
  pend.oid = oid;
  pend.offset = offset;
  pend.length = length;
  pend.rcb = std::move(cb);
  pend.record_acting(acting);
  auto it = pending_nodes_.emplace(pending_, op_id, std::move(pend)).first;
  op_started();
  read_replica(op_id, it->second, choice);
  return op_id;
}

std::uint64_t RadosClient::read_ec(int pool, std::uint64_t oid,
                                   std::uint64_t offset, std::uint64_t length,
                                   const std::vector<int>& acting,
                                   ReadStrategy strategy, ReadCallback cb) {
  const ec::ReedSolomon& rs = *cluster_.pool(pool).codec;
  const unsigned k = rs.profile().k;
  if (offset % k != 0) {
    cb(Status::Error(Errc::invalid_argument,
                     "EC read offset must be k-aligned"));
    return 0;
  }

  // The primary gathers the k data shards verbatim, so it needs every data
  // shard's holder: a down primary cannot gather, a down holder never
  // answers its gather, and one still awaiting recovery would contribute
  // missing bytes. In each case fall back to reading the shards directly
  // (decoding around the hole locally) instead of failing.
  if (strategy == ReadStrategy::primary) {
    bool gather_unsafe = false;
    for (unsigned s = 0; !gather_unsafe && s < k; ++s)
      gather_unsafe =
          cluster_.osd_down(acting[s]) ||
          cluster_.object_degraded(
              acting[s], object_key(pool, oid, static_cast<std::int32_t>(s)));
    if (gather_unsafe) {
      count_degraded_read();
      strategy = ReadStrategy::direct_shards;
    }
  }

  // direct_shards: fetch any k alive, fully-recovered shards in parallel;
  // prefer the k data shards so the healthy path needs no decode.
  std::uint64_t shards = 0;
  if (strategy == ReadStrategy::direct_shards) {
    shards = choose_shards(acting, pool, oid, 0, k);
    if (std::popcount(shards) < static_cast<int>(k)) {
      cb(Status::Error(Errc::io_error, "fewer than k shards available"));
      return 0;
    }
  }

  const std::uint64_t op_id = next_op_id_++;
  Pending pend;
  pend.is_read = true;
  pend.pool = pool;
  pend.oid = oid;
  pend.offset = offset;
  pend.length = length;
  pend.rcb = std::move(cb);
  pend.record_acting(acting);
  pend.codec = &rs;
  auto it = pending_nodes_.emplace(pending_, op_id, std::move(pend)).first;
  op_started();

  if (strategy == ReadStrategy::primary) {
    auto body = make_op(OpType::ec_primary_read, op_id,
                        object_key(pool, oid), offset, length);
    body->replicas = acting;
    body->codec = &rs;
    send(acting[0], std::move(body));
    return op_id;
  }
  it->second.shards.resize(rs.profile().total());
  read_shards(op_id, it->second, shards);
  return op_id;
}

std::size_t RadosClient::choose_replica(std::span<const int> acting,
                                        const ObjectKey& key,
                                        std::uint64_t skip) const {
  for (std::size_t i = 0; i < acting.size(); ++i)
    if ((skip & bit(i)) == 0 && !cluster_.osd_down(acting[i]) &&
        !cluster_.object_degraded(acting[i], key))
      return i;
  return acting.size();
}

std::uint64_t RadosClient::choose_shards(std::span<const int> acting, int pool,
                                         std::uint64_t oid, std::uint64_t skip,
                                         unsigned want) const {
  std::uint64_t chosen = 0;
  for (std::size_t s = 0; s < acting.size() && want > 0; ++s) {
    if ((skip & bit(s)) != 0 || cluster_.osd_down(acting[s]) ||
        cluster_.object_degraded(
            acting[s], object_key(pool, oid, static_cast<std::int32_t>(s))))
      continue;
    chosen |= bit(s);
    --want;
  }
  return chosen;
}

void RadosClient::read_replica(std::uint64_t op_id, Pending& pend,
                               std::size_t position) {
  pend.tried |= bit(position);
  pend.current = position;
  send(pend.acting[position],
       make_op(OpType::read, op_id, object_key(pend.pool, pend.oid),
               pend.offset, pend.length));
}

void RadosClient::read_shards(std::uint64_t op_id, Pending& pend,
                              std::uint64_t shards) {
  const unsigned k = pend.codec->profile().k;
  const std::uint64_t chunk_len = (pend.length + k - 1) / k;
  const std::uint64_t shard_off = pend.offset / k;
  pend.tried |= shards;
  for (; shards != 0; shards &= shards - 1) {
    const auto s = static_cast<std::size_t>(std::countr_zero(shards));
    ++pend.awaiting;
    send(pend.acting[s],
         make_op(OpType::read, op_id,
                 object_key(pend.pool, pend.oid, static_cast<std::int32_t>(s)),
                 shard_off, chunk_len));
  }
}

void RadosClient::on_reply(std::shared_ptr<OpBody> body) {
  auto it = pending_.find(body->op_id);
  if (it == pending_.end()) return;  // stale/duplicate
  if (it->second.is_read) {
    on_read_reply(it, std::move(body));
    return;
  }
  Pending& pend = it->second;
  if (--pend.awaiting != 0) return;

  ++completed_;
  if (metrics_.ops_completed) {
    metrics_.ops_completed->inc();
    metrics_.inflight->sub();
  }
  cluster_.note_client_write_end(static_cast<std::uint32_t>(pend.pool),
                                 pend.oid);
  auto cb = std::move(pend.wcb);
  pending_nodes_.erase(pending_, it);
  cb(Status::Ok());
}

void RadosClient::maybe_checksums(std::uint64_t offset, const Payload& data,
                                  BlockCrcs& out) const {
  // Checksums describe whole store blocks, so they are only meaningful for
  // block-aligned writes; the OSD recomputes everything else from the
  // stored bytes. Such a payload holds block i in page i, and a whole page
  // remembers its CRC for the journal record and the store.
  out.clear();
  if (!integrity_ || offset % kChecksumBlockBytes != 0) return;
  for (std::size_t i = 0; i < data.page_count(); ++i)
    out.push_back(data.block_crc(i));
}

bool RadosClient::verify_received(const OpBody& body) const {
  // The OSD ships checksums only for the leading fully-stored blocks of a
  // block-aligned read, which hold block i in page i; verify exactly those
  // against the received bytes.
  const auto& data = body.data;
  for (std::size_t i = 0; i < body.checksums.size(); ++i) {
    if ((i + 1) * kChecksumBlockBytes > data.size()) break;
    if (data.page(i).crc() != body.checksums[i]) return false;
  }
  return true;
}

void RadosClient::note_corruption(Pending& pend) {
  if (pend.corrupted_seen) return;
  pend.corrupted_seen = true;
  if (validator_ != nullptr) validator_->on_corruption_detected();
}

void RadosClient::count_checksum_failure() {
  ++checksum_failures_;
  if (metrics_.checksum_failures) metrics_.checksum_failures->inc();
}

void RadosClient::complete_read(PendingIt it, Result<Payload> result) {
  ++completed_;
  if (metrics_.ops_completed) {
    metrics_.ops_completed->inc();
    metrics_.inflight->sub();
  }
  const bool seen = it->second.corrupted_seen;
  auto cb = std::move(it->second.rcb);
  pending_nodes_.erase(pending_, it);
  // Whatever the outcome — repaired data or Errc::corrupted — the detected
  // corruption is resolved: no wrong bytes were handed to the caller.
  if (seen && validator_ != nullptr) validator_->on_corruption_resolved();
  cb(std::move(result));
}

void RadosClient::send_repair_write(int osd, const ObjectKey& key,
                                    std::uint64_t offset, Payload data) {
  // Fire-and-forget: the repair is best-effort and its ack is stale by
  // construction (fresh op_id, no pending entry). A failed repair is caught
  // again by the next read or a deep scrub.
  auto body = make_op(OpType::sub_write, next_op_id_++, key, offset);
  body->data = std::move(data);
  maybe_checksums(offset, body->data, body->checksums);
  ++read_repairs_;
  if (metrics_.read_repairs) metrics_.read_repairs->inc();
  send(osd, std::move(body));
}

void RadosClient::ec_gather_complete(PendingIt it, std::uint64_t op_id) {
  Pending& pend = it->second;
  const ec::ReedSolomon& rs = *pend.codec;
  const unsigned k = rs.profile().k;
  const auto present = static_cast<unsigned>(std::popcount(pend.gathered));
  if (present < k) {
    // Corrupted shards left a hole: pull in untried survivors and keep
    // gathering. With nothing left to ask, the object is unrecoverable.
    const std::uint64_t more = choose_shards(pend.acting_set(), pend.pool,
                                             pend.oid, pend.tried,
                                             k - present);
    if (more != 0) {
      read_shards(op_id, pend, more);
      return;
    }
    complete_read(it, Status::Error(Errc::corrupted,
                                    "fewer than k shards verified clean"));
    return;
  }

  const std::uint64_t data_shards = bit(k) - 1;
  const bool all_data = (pend.gathered & data_shards) == data_shards;
  if (all_data && pend.bad == 0) {
    // The healthy path: the data shards' pages, laid out once.
    complete_read(it, rs.assemble(std::span(pend.shards).first(k),
                                  pend.offset, pend.length));
    return;
  }

  // A shard is missing or failed verification: decode around it in chunks,
  // and rewrite every bad shard from the decoded data.
  std::vector<std::optional<ec::Chunk>> chunks(pend.shards.size());
  for (std::uint64_t got = pend.gathered; got != 0; got &= got - 1) {
    const auto s = static_cast<std::size_t>(std::countr_zero(got));
    chunks[s] = pend.shards[s].to_vector();
  }
  // A missing data shard means this read is served degraded, by parity
  // reconstruction.
  if (!all_data) count_degraded_read();
  auto decoded = rs.decode(chunks);
  if (!decoded.ok()) {
    complete_read(it, decoded.status());
    return;
  }
  const std::vector<ec::Chunk>& data_chunks = *decoded;

  // Read-repair re-encodes for parity shards.
  std::optional<std::vector<ec::Chunk>> coding;
  const std::uint64_t shard_off = pend.offset / k;
  for (std::uint64_t bad = pend.bad; bad != 0; bad &= bad - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(bad));
    if (s >= k && !coding) {
      auto encoded = rs.encode(data_chunks);
      DK_CHECK(encoded.ok());
      coding = std::move(*encoded);
    }
    const ec::Chunk& repaired = s < k ? data_chunks[s] : (*coding)[s - k];
    send_repair_write(pend.acting[s],
                      object_key(pend.pool, pend.oid,
                                 static_cast<std::int32_t>(s)),
                      shard_off, Payload::copy_of(repaired, shard_off));
  }

  complete_read(it, rs.assemble(data_chunks, pend.offset, pend.length));
}

void RadosClient::on_read_reply(PendingIt it, std::shared_ptr<OpBody> body) {
  const std::uint64_t op_id = body->op_id;
  Pending& pend = it->second;
  // An error reply carries no bytes; with integrity armed the bytes that
  // did arrive must match the stored checksums shipped with them.
  const bool bad =
      body->error != Errc::ok || (integrity_ && !verify_received(*body));
  if (bad) {
    count_checksum_failure();
    note_corruption(pend);
  }

  if (body->key.shard >= 0) {
    // One shard of a direct-shards gather.
    const auto s = static_cast<std::size_t>(body->key.shard);
    DK_CHECK(s < pend.shards.size());
    if (bad) {
      pend.bad |= bit(s);
    } else {
      pend.shards[s] = std::move(body->data);
      pend.gathered |= bit(s);
    }
    if (--pend.awaiting == 0) ec_gather_complete(it, op_id);
    return;
  }

  if (!bad) {
    // Clean data in hand: overwrite every replica that failed on the way
    // here, then deliver.
    for (std::uint64_t bad = pend.bad; bad != 0; bad &= bad - 1)
      send_repair_write(pend.acting[std::countr_zero(bad)],
                        object_key(pend.pool, pend.oid), pend.offset,
                        body->data);
    complete_read(it, std::move(body->data));
    return;
  }

  if (pend.codec != nullptr) {
    // An EC primary saw a bad shard it cannot decode around (it reports,
    // rather than masks, corruption): regather the shards directly and
    // reconstruct locally.
    count_degraded_read();
    const unsigned k = pend.codec->profile().k;
    pend.shards.assign(pend.codec->profile().total(), Payload());
    pend.gathered = 0;
    pend.bad = 0;
    pend.tried = 0;
    pend.awaiting = 0;
    const std::uint64_t shards =
        choose_shards(pend.acting_set(), pend.pool, pend.oid, 0, k);
    if (shards == 0) {
      complete_read(it, Status::Error(Errc::corrupted,
                                      "no shards reachable for regather"));
      return;
    }
    read_shards(op_id, pend, shards);
    return;
  }

  // Replicated: mark this copy bad and walk to the next untried live
  // replica under the same op.
  pend.bad |= bit(pend.current);
  const std::size_t next = choose_replica(
      pend.acting_set(), object_key(pend.pool, pend.oid), pend.tried);
  if (next == pend.acting_size) {
    complete_read(it, Status::Error(Errc::corrupted,
                                    "no replica passed verification"));
    return;
  }
  read_replica(op_id, pend, next);
}

}  // namespace dk::rados
