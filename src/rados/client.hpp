// Asynchronous RADOS-like client bound to the cluster's client node.
//
// Two strategies per operation, matching the two architectures the paper
// compares:
//
//   Writes:
//     primary_copy  — classic Ceph: one message to the primary OSD, which
//                     fans out to replicas (or encodes EC shards) itself.
//     client_fanout — DeLiBA-K hardware path: the client-side accelerator
//                     replicates/encodes and puts every copy/shard on the
//                     wire directly, removing the primary round trip.
//   Reads:
//     primary       — classic Ceph: primary serves the read (gathering EC
//                     shards itself when needed).
//     direct_shards — DeLiBA-K hardware path: the client fetches the k data
//                     shards (EC) in parallel and reassembles locally,
//                     decoding via Reed-Solomon when shards are down.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.hpp"
#include "common/node_pool.hpp"
#include "common/status.hpp"
#include "ec/reed_solomon.hpp"
#include "rados/cluster.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::rados {

enum class WriteStrategy { primary_copy, client_fanout };
enum class ReadStrategy { primary, direct_shards };

using WriteCallback = sim::UniqueFn<void(Status)>;
using ReadCallback = sim::UniqueFn<void(Result<std::vector<std::uint8_t>>)>;

/// Per-op deadline + capped exponential-backoff retry. Armed via
/// set_retry_policy(); without it the client is deadline-free and schedules
/// no timer events (the seed benches' happy path, bit-identical to before).
struct RetryPolicy {
  unsigned max_retries = 4;    // re-issues after the first attempt
  Nanos base_timeout = ms(2);  // first-attempt deadline
  double backoff = 2.0;        // timeout/delay multiplier per attempt
  Nanos max_timeout = ms(50);  // deadline cap
  Nanos base_delay = us(200);  // backoff pause before a re-issue

  Nanos timeout_for(unsigned attempt) const;
  Nanos delay_for(unsigned attempt) const;
};

class RadosClient {
 public:
  explicit RadosClient(Cluster& cluster);

  RadosClient(const RadosClient&) = delete;
  RadosClient& operator=(const RadosClient&) = delete;

  /// Asynchronously write `data` at `offset` of object (pool, oid).
  /// For EC pools, `offset` must be a multiple of the profile's k.
  void write(int pool, std::uint64_t oid, std::uint64_t offset,
             std::vector<std::uint8_t> data, WriteStrategy strategy,
             WriteCallback cb);

  /// Asynchronously read `length` bytes at `offset`.
  void read(int pool, std::uint64_t oid, std::uint64_t offset,
            std::uint64_t length, ReadStrategy strategy, ReadCallback cb);

  /// Arm per-op deadlines with exponential backoff + capped retries. Each
  /// attempt recomputes the acting set, so write re-issues land on the new
  /// primary after a CRUSH reweight. Retryable errors: timed_out, again,
  /// io_error; the final failure surfaces to the caller unchanged.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const std::optional<RetryPolicy>& retry_policy() const { return retry_; }

  std::uint64_t retries() const { return retries_write_ + retries_read_; }
  std::uint64_t timeouts() const { return timeouts_; }
  /// Reads served off the degraded path: non-primary replica, EC primary
  /// fallback to direct shards, or parity reconstruction.
  std::uint64_t degraded_reads() const { return degraded_reads_; }
  /// Writes deferred because their object's recovery move was in flight
  /// (Ceph's recovery_blocked): the client-visible cost of paced backfill.
  std::uint64_t recovery_write_delays() const {
    return recovery_write_delays_;
  }
  /// Reads deferred because every live replica of the object was still
  /// awaiting its recovery copy (fully-displaced PG after a reweight).
  std::uint64_t recovery_read_delays() const { return recovery_read_delays_; }

  /// Arm client-side integrity: per-4kB CRC32C checksums attached to
  /// block-aligned writes, verification of read replies, and read-repair —
  /// a corrupted reply (Errc::corrupted from the OSD, or a receive-side
  /// checksum mismatch) triggers a fetch from another replica / an EC
  /// reconstruction from surviving shards, and the verified data is written
  /// back over the bad copy. Only an op with no intact source left fails
  /// with Errc::corrupted (which is deliberately not retryable).
  void set_integrity(bool on) { integrity_ = on; }
  bool integrity() const { return integrity_; }

  /// Optional: report detected/resolved corruption to the pipeline
  /// validator so verify_quiescent() can prove no corruption leaked.
  void set_validator(PipelineValidator* validator) { validator_ = validator; }

  std::uint64_t checksum_failures() const { return checksum_failures_; }
  std::uint64_t read_repairs() const { return read_repairs_; }

  /// CRUSH placement work performed by this client since construction —
  /// the compute the FPGA bucket kernels offload in hardware variants.
  const crush::PlacementWork& placement_work() const { return work_; }

  /// Bytes Reed-Solomon-encoded client-side (client_fanout EC writes) —
  /// the compute the RS Encoder kernel offloads in hardware variants.
  std::uint64_t ec_bytes_encoded() const { return ec_encoded_; }

  std::uint64_t ops_completed() const { return completed_; }
  std::uint64_t ops_in_flight() const { return pending_.size(); }

  /// Publish client activity under "<prefix>." (ops_started/ops_completed/
  /// messages_sent/ec_bytes_encoded counters plus an in-flight gauge).
  /// messages_sent counts wire messages, so the client_fanout vs
  /// primary_copy fan-out difference is directly visible.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  struct Pending {
    unsigned awaiting = 0;
    bool is_read = false;
    // EC read gather state.
    unsigned k = 0, m = 0;
    std::uint64_t length = 0;
    std::vector<std::optional<ec::Chunk>> chunks;
    WriteCallback wcb;
    ReadCallback rcb;
    // Read-repair context (populated only when integrity is armed).
    bool ec = false;
    bool corrupted_seen = false;
    int pool = 0;
    std::uint64_t oid = 0;
    std::uint64_t offset = 0;
    std::vector<int> acting;
    // Bit i stands for acting index i (so acting sets hold at most 64).
    std::uint64_t tried = 0;        // already asked
    std::size_t current = 0;        // replicated: acting index now serving
    std::vector<int> bad_replicas;  // replicated: acting indices to repair
    std::uint64_t bad_shards = 0;   // EC: shards to rebuild
  };
  using PendingIt = std::map<std::uint64_t, Pending>::iterator;

  // Retry contexts: one per application op, shared across re-issues.
  struct WriteAttempt {
    int pool = 0;
    std::uint64_t oid = 0;
    std::uint64_t offset = 0;
    std::vector<std::uint8_t> data;  // kept across attempts for re-issue
    WriteStrategy strategy = WriteStrategy::primary_copy;
    unsigned attempt = 0;
    WriteCallback cb;
  };
  struct ReadAttempt {
    int pool = 0;
    std::uint64_t oid = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    ReadStrategy strategy = ReadStrategy::primary;
    unsigned attempt = 0;
    ReadCallback cb;
  };

  void on_reply(std::shared_ptr<OpBody> body);
  const ec::ReedSolomon& codec(unsigned k, unsigned m);
  void op_started();
  void send(int osd, std::shared_ptr<OpBody> body);

  void start_write_attempt(std::shared_ptr<WriteAttempt> ctx);
  void start_read_attempt(std::shared_ptr<ReadAttempt> ctx);
  /// Deadline for an issued attempt: if the op is still pending when it
  /// fires, the op is failed with Errc::timed_out (which the retry wrapper
  /// may turn into a re-issue). No-op once the op completed.
  void arm_deadline(std::uint64_t op_id, Nanos timeout);
  void count_degraded_read();
  void count_retry(bool is_read);

  // Integrity plumbing. All read replies route through
  // handle_integrity_read_reply when integrity is armed; it owns the
  // replicated next-replica walk, the EC shard regather, and repair writes.
  std::vector<std::uint32_t> maybe_checksums(
      std::uint64_t offset, const std::vector<std::uint8_t>& data) const;
  bool verify_received(const OpBody& body) const;
  void note_corruption(Pending& pend);
  void count_checksum_failure();
  void complete_read(PendingIt it, Result<std::vector<std::uint8_t>> result);
  void handle_integrity_read_reply(PendingIt it, std::shared_ptr<OpBody> body);
  void ec_gather_complete(PendingIt it, std::uint64_t op_id);
  unsigned issue_more_shards(std::uint64_t op_id, Pending& pend,
                             unsigned want);
  void send_repair_write(int osd, const ObjectKey& key, std::uint64_t offset,
                         std::vector<std::uint8_t> data);

  // Inner dispatchers return the issued op_id (0 when the op failed
  // synchronously through `cb` and nothing is in flight).
  std::uint64_t write_replicated(int pool, std::uint64_t oid,
                                 std::uint64_t offset,
                                 std::vector<std::uint8_t> data,
                                 const std::vector<int>& acting,
                                 WriteStrategy strategy, WriteCallback cb);
  std::uint64_t write_ec(int pool, std::uint64_t oid, std::uint64_t offset,
                         std::vector<std::uint8_t> data,
                         const std::vector<int>& acting,
                         WriteStrategy strategy, WriteCallback cb);
  // `degraded_defers_left` bounds how long a read blocks behind recovery
  // when every live replica of the object is still awaiting its copy.
  static constexpr unsigned kMaxDegradedReadDefers = 50'000;
  /// Re-dispatch a read blocked behind recovery after a short delay.
  void defer_read(int pool, std::uint64_t oid, std::uint64_t offset,
                  std::uint64_t length, ReadCallback cb, unsigned defers_left);
  std::uint64_t read_replicated(int pool, std::uint64_t oid,
                                std::uint64_t offset, std::uint64_t length,
                                const std::vector<int>& acting,
                                ReadCallback cb,
                                unsigned degraded_defers_left =
                                    kMaxDegradedReadDefers);
  std::uint64_t read_ec(int pool, std::uint64_t oid, std::uint64_t offset,
                        std::uint64_t length, const std::vector<int>& acting,
                        ReadStrategy strategy, ReadCallback cb);
  std::uint64_t dispatch_write(int pool, std::uint64_t oid,
                               std::uint64_t offset,
                               std::vector<std::uint8_t> data,
                               WriteStrategy strategy, WriteCallback cb);
  std::uint64_t dispatch_read(int pool, std::uint64_t oid,
                              std::uint64_t offset, std::uint64_t length,
                              ReadStrategy strategy, ReadCallback cb);

  Cluster& cluster_;
  std::uint64_t next_op_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  NodePool<std::map<std::uint64_t, Pending>> pending_nodes_;
  std::map<std::uint64_t, std::unique_ptr<ec::ReedSolomon>> codecs_;
  crush::PlacementWork work_;
  std::uint64_t ec_encoded_ = 0;
  std::uint64_t completed_ = 0;
  std::optional<RetryPolicy> retry_;
  std::uint64_t retries_write_ = 0;
  std::uint64_t retries_read_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t recovery_write_delays_ = 0;
  std::uint64_t recovery_read_delays_ = 0;
  bool integrity_ = false;
  PipelineValidator* validator_ = nullptr;
  std::uint64_t checksum_failures_ = 0;
  std::uint64_t read_repairs_ = 0;

  struct MetricHandles {
    Counter* ops_started = nullptr;
    Counter* ops_completed = nullptr;
    Counter* messages_sent = nullptr;
    Counter* ec_bytes_encoded = nullptr;
    Gauge* inflight = nullptr;
    Counter* retries_read = nullptr;
    Counter* retries_write = nullptr;
    Counter* timeouts = nullptr;
    Counter* degraded_reads = nullptr;
    Counter* checksum_failures = nullptr;
    Counter* read_repairs = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::rados
