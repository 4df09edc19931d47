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

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
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
/// A read's bytes, laid out for the read's object offset (common/page.hpp):
/// a replicated read delivers the serving store's own pages.
using ReadCallback = sim::UniqueFn<void(Result<Payload>)>;
/// The same bytes copied into one vector.
using VectorReadCallback =
    sim::UniqueFn<void(Result<std::vector<std::uint8_t>>)>;

/// `cb` as a ReadCallback that copies the bytes into a vector for it: the
/// one copy each layer's vector adapter makes.
ReadCallback copy_to_vector(VectorReadCallback cb);

class RadosClient {
 public:
  explicit RadosClient(Cluster& cluster);

  RadosClient(const RadosClient&) = delete;
  RadosClient& operator=(const RadosClient&) = delete;

  /// Asynchronously write `data` at `offset` of object (pool, oid). The
  /// bytes are copied before this returns: into pages once, which every
  /// replica's message shares, or split into EC chunks.
  /// For EC pools, `offset` must be a multiple of the profile's k.
  void write(int pool, std::uint64_t oid, std::uint64_t offset,
             std::span<const std::uint8_t> data, WriteStrategy strategy,
             WriteCallback cb);

  /// Asynchronously read `length` bytes at `offset`. `cb` gets the pages
  /// the cluster replied with: a replicated read copies no byte, an EC
  /// read lays its data shards out once.
  void read(int pool, std::uint64_t oid, std::uint64_t offset,
            std::uint64_t length, ReadStrategy strategy, ReadCallback cb);
  /// The same read, copied into a vector for `cb`.
  void read(int pool, std::uint64_t oid, std::uint64_t offset,
            std::uint64_t length, ReadStrategy strategy,
            VectorReadCallback cb);

  /// Arm per-op deadlines with exponential backoff + capped retries (the
  /// policy's constants are in client.cpp). Without it the client is
  /// deadline-free and schedules no timer events. Each attempt recomputes
  /// the acting set, so write re-issues land on the new primary after a
  /// CRUSH reweight. Retryable errors: timed_out, again, io_error; the
  /// final failure surfaces to the caller unchanged.
  void arm_retries() { retries_armed_ = true; }

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
  /// block-aligned writes, and receive-side verification of read replies.
  /// Every read reply takes the same path either way: a corrupted reply
  /// (Errc::corrupted from the OSD, or, armed, a checksum mismatch) makes
  /// the read ask another replica / reconstruct an EC read from surviving
  /// shards, and the verified data is written back over the bad copy. Only
  /// an op with no intact source left fails with Errc::corrupted (which is
  /// deliberately not retryable).
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
  // Bit i of a Pending mask stands for acting position i (EC: shard i),
  // which bounds a recorded acting set.
  static constexpr std::size_t kMaxActing = 64;

  struct Pending {
    unsigned awaiting = 0;  // replies still due (writes, shard gathers)
    bool is_read = false;
    bool corrupted_seen = false;
    int pool = 0;
    std::uint64_t oid = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    WriteCallback wcb;
    ReadCallback rcb;
    // Reads: the acting set the op was issued against, inline so that
    // recording it allocates nothing.
    std::array<int, kMaxActing> acting{};
    std::size_t acting_size = 0;
    std::uint64_t tried = 0;  // positions already asked
    std::uint64_t bad = 0;    // positions whose copy failed, to repair
    std::size_t current = 0;  // replicated: position now serving
    // EC reads: the pool's codec and the shards gathered so far (by shard
    // index; bit s of `gathered` marks shard s as present and verified).
    const ec::ReedSolomon* codec = nullptr;
    std::vector<Payload> shards;
    std::uint64_t gathered = 0;

    void record_acting(std::span<const int> set);
    std::span<const int> acting_set() const {
      return {acting.data(), acting_size};
    }
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

  // The read path. Every read reply enters on_read_reply, armed or not;
  // `integrity` only decides whether a reply's bytes are checksum-verified.
  // It owns the replicated next-replica walk, the EC shard gather and
  // regather, and repair writes.
  /// Fill `out` with `data`'s block checksums when integrity is armed and
  /// `offset` is block-aligned; leave it empty otherwise.
  void maybe_checksums(std::uint64_t offset, const Payload& data,
                       BlockCrcs& out) const;
  bool verify_received(const OpBody& body) const;
  void note_corruption(Pending& pend);
  void count_checksum_failure();
  void complete_read(PendingIt it, Result<Payload> result);
  void on_read_reply(PendingIt it, std::shared_ptr<OpBody> body);
  void ec_gather_complete(PendingIt it, std::uint64_t op_id);
  void send_repair_write(int osd, const ObjectKey& key, std::uint64_t offset,
                         Payload data);

  /// Replica choice: the first position of `acting` outside `skip` whose
  /// OSD is up and not awaiting recovery of `key`; acting.size() if none.
  std::size_t choose_replica(std::span<const int> acting, const ObjectKey& key,
                             std::uint64_t skip) const;
  /// Shard choice: up to `want` shard positions outside `skip`, in shard
  /// order, whose OSDs are up and not awaiting recovery of that shard.
  std::uint64_t choose_shards(std::span<const int> acting, int pool,
                              std::uint64_t oid, std::uint64_t skip,
                              unsigned want) const;
  /// Ask the replica at `position` for the op's range.
  void read_replica(std::uint64_t op_id, Pending& pend, std::size_t position);
  /// Ask each shard in the `shards` mask for its part of the op's range.
  void read_shards(std::uint64_t op_id, Pending& pend, std::uint64_t shards);

  // Inner dispatchers return the issued op_id (0 when the op failed
  // synchronously through `cb` and nothing is in flight).
  std::uint64_t write_replicated(int pool, std::uint64_t oid,
                                 std::uint64_t offset,
                                 std::span<const std::uint8_t> bytes,
                                 const std::vector<int>& acting,
                                 WriteStrategy strategy, WriteCallback cb);
  std::uint64_t write_ec(int pool, std::uint64_t oid, std::uint64_t offset,
                         std::span<const std::uint8_t> data,
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
                               std::span<const std::uint8_t> data,
                               WriteStrategy strategy, WriteCallback cb);
  std::uint64_t dispatch_read(int pool, std::uint64_t oid,
                              std::uint64_t offset, std::uint64_t length,
                              ReadStrategy strategy, ReadCallback cb);

  Cluster& cluster_;
  std::uint64_t next_op_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  NodePool<std::map<std::uint64_t, Pending>> pending_nodes_;
  crush::PlacementWork work_;
  std::uint64_t ec_encoded_ = 0;
  std::uint64_t completed_ = 0;
  bool retries_armed_ = false;
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
