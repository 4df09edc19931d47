// Journaled blockstore backing one OSD's object store (vitastor-style).
//
// The in-memory ObjectStore models media with zero write cost and atomic
// application. This blockstore puts a write-ahead journal plus a modeled
// data area underneath it, giving the reproduction the three things the
// paper's latency story leaves out: write amplification, fsync stalls, and
// power-loss recovery.
//
// Layout model. Every durable mutation first lands in the journal as one
// record — a fixed header (lsn, object key, offset, payload length, CRC-32C
// of the payload) plus the payload — then is committed to the data area (the
// backing ObjectStore) at 4 kB block granularity. Header plus payload is the
// modeled on-journal footprint; memory holds a record's payload bytes only
// until they are applied, since nothing reads them after that. Sub-block
// writes that extend the tail record of the same object coalesce into it
// (one header, one fsync batch), vitastor's small-write path. The journal is
// a capped ring: appends that would exceed `journal_bytes` trim applied
// records from the head (wraparound), and a watermark policy trims eagerly
// so sustained load never parks occupancy at the cap. Trimmed bytes accrue
// compaction debt the OSD charges through its service stations, so journal
// pressure competes with client I/O.
//
// Crash semantics (WAL discipline). The data area is only touched by
// commit(); a crash mid-append tears the tail record instead
// (tear_tail()) — its stored footprint is truncated at an arbitrary byte
// boundary and its CRC no longer matches. replay() walks the journal in lsn
// order, applies every intact-but-unapplied record to the data area, and
// stops at the first record that fails its header or CRC check, discarding
// it and everything after it (a torn record ends the readable log). The
// result reconstructs exactly the acknowledged prefix: acknowledged writes
// survive via their intact record or the data area; torn bytes never
// surface.
//
// Default off: with neither the blockstore nor integrity armed an OSD never
// constructs a Blockstore — no rng draws, no service-time change, no metric
// registration — so faults-off bench output stays byte-identical
// (GoldenRegression pins this). Integrity alone arms it uncharged
// (charged() is false): the same WAL crash semantics at zero simulated
// cost, so arming integrity never moves a timing.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"
#include "rados/object_store.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::rados {

/// On-journal footprint of one record header (modeled, not serialized):
/// lsn + magic + pool/oid/shard + offset + payload length + payload CRC,
/// rounded to a 16-byte-aligned 48.
inline constexpr std::uint64_t kJournalHeaderBytes = 48;

/// Station bandwidths: WAL append (rocksdb-WAL-class sequential append)
/// and the compaction drain back into the data area.
inline constexpr double kJournalBps = 1.5e9;
inline constexpr double kCompactionBps = 1.0e9;

/// A watermark trim drains the journal down to this fraction of its cap.
inline constexpr double kTrimTarget = 0.25;
/// Writes below this size may coalesce into the tail record...
inline constexpr std::uint64_t kCoalesceBytes = 4096;
/// ...up to this merged record payload.
inline constexpr std::uint64_t kCoalesceLimit = 128 * KiB;
inline constexpr Nanos kJournalAppendFixed = us(3);  // NVMe WAL append latency
inline constexpr Nanos kFsyncFixed = us(30);  // barrier when a batch closes

struct BlockstoreConfig {
  bool enabled = false;
  std::uint64_t journal_bytes = 8 * MiB;  // ring capacity (hard cap)
  double trim_watermark = 0.75;  // trim when occupancy exceeds this fraction
  std::uint64_t fsync_interval_bytes = 256 * KiB;  // barrier every N bytes
};

class Blockstore {
 public:
  Blockstore(const BlockstoreConfig& config, ObjectStore& backing);

  Blockstore(const Blockstore&) = delete;
  Blockstore& operator=(const Blockstore&) = delete;

  const BlockstoreConfig& config() const { return config_; }

  /// Whether the OSD charges this WAL's append/fsync/compaction time:
  /// `config.enabled`. Integrity alone arms an uncharged WAL — same crash
  /// semantics, zero simulated cost.
  bool charged() const { return config_.enabled; }

  /// Journal-intent accounting: every appended record must resolve to
  /// applied-or-trimmed by quiescence (the validator's journal_leak rule).
  void set_validator(PipelineValidator* validator) { validator_ = validator; }

  // --- write path ---------------------------------------------------------

  /// Land the write in the journal (WAL). A sub-block write contiguous with
  /// the tail record of the same object coalesces into it instead of
  /// opening a new record. Appends that would exceed the journal cap first
  /// trim applied head records (ring wraparound). Returns the lsn of the
  /// record now holding the write.
  std::uint64_t append(const ObjectKey& key, std::uint64_t offset,
                       std::span<const std::uint8_t> data);

  /// Commit the journaled write to the data area: the backing store is
  /// mutated (block checksums refreshed when integrity is armed via
  /// `checksums`), the record is marked applied, and the watermark trim
  /// policy runs. Physical data-area traffic is charged at 4 kB block
  /// granularity (sub-block writes rewrite their whole block).
  void commit(std::uint64_t lsn, const ObjectKey& key, std::uint64_t offset,
              std::span<const std::uint8_t> data,
              std::span<const std::uint32_t> checksums);

  // --- crash path ---------------------------------------------------------

  /// Crash landed mid-append: truncate the tail record's on-journal
  /// footprint to `keep_bytes` (counted from the record's first header
  /// byte). Anything short of the full record leaves a torn record whose
  /// CRC check fails at replay. A full-length keep is a no-op (the record
  /// was durable after all).
  void tear_tail(std::uint64_t keep_bytes);

  /// Test hook modeling a latent journal-media error: invalidate the stored
  /// CRC of record `lsn` so replay rejects it (and stops there).
  void corrupt_crc(std::uint64_t lsn);

  /// Crash recovery: walk the journal in lsn order, apply every intact
  /// record not yet in the data area, and stop at the first torn or
  /// CRC-rejected record — it and all later records are discarded (the
  /// readable log ends at the tear). The journal is trimmed empty
  /// afterwards. Returns the number of records resolved by this replay
  /// (applied + discarded).
  std::size_t replay();

  // --- cost model (charged by the OSD through its service stations) -------

  /// Simulated time to append `payload_bytes` to the journal: fixed append
  /// latency + header+payload over journal bandwidth, plus an fsync barrier
  /// every `fsync_interval_bytes` of journal traffic.
  Nanos append_cost(std::uint64_t payload_bytes);

  /// Simulated time to compact `bytes` of trimmed journal space back into
  /// the data area.
  Nanos compaction_cost(std::uint64_t bytes) const {
    return transfer_time(bytes, kCompactionBps);
  }

  /// Bytes trimmed since the last call (compaction debt); the OSD drains
  /// this after each commit and occupies a worker for the compaction time.
  std::uint64_t take_compaction_debt();

  // --- introspection ------------------------------------------------------

  std::uint64_t occupancy() const { return occupancy_; }
  std::uint64_t capacity() const { return config_.journal_bytes; }
  std::size_t record_count() const { return records_.size(); }
  /// On-journal footprint of record `lsn` (0 if trimmed/unknown).
  std::uint64_t record_bytes(std::uint64_t lsn) const;
  std::uint64_t trims() const { return trims_; }
  std::uint64_t coalesced_writes() const { return coalesced_writes_; }
  std::uint64_t logical_bytes() const { return logical_bytes_; }
  std::uint64_t journal_bytes_written() const { return journal_bytes_written_; }
  std::uint64_t data_bytes_written() const { return data_bytes_written_; }
  std::uint64_t replays_discarded() const { return replays_discarded_; }

  /// Physical-over-logical write traffic for this store (>= 1.0 once any
  /// write landed; 4 kB block rounding and journal headers are the
  /// amplification sources).
  double write_amplification() const;

  /// Publish under "<prefix>.": journal.occupancy (gauge, delta-aggregated
  /// so many OSDs sharing one registry sum), journal.trims,
  /// journal.coalesced_writes, logical_bytes, physical_bytes, and the
  /// write_amp_x1000 gauge (cluster-aggregate amplification, fixed-point).
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  struct Record {
    std::uint64_t lsn = 0;
    ObjectKey key;
    std::uint64_t offset = 0;  // object offset of the payload start
    std::uint64_t length = 0;  // payload bytes journaled in this record
    // The record's trailing payload bytes not yet applied to the data area;
    // freed once they are.
    std::vector<std::uint8_t> pending;
    // The payload's CRC-32C as the header stores it (corrupt_crc() flips
    // it), and as taken over the bytes at append: replay compares the two,
    // since applied bytes are no longer held.
    std::uint32_t crc = 0;
    std::uint32_t payload_crc = 0;
    std::uint64_t stored_bytes = 0; // on-journal footprint (header+payload;
                                    // less after a tear)
    bool applied = false;   // payload landed in the data area
    bool resolved = false;  // reported applied-or-trimmed to the validator
    bool torn = false;
  };

  bool intact(const Record& r) const;
  void trim_front();          // drop the oldest applied record
  void trim_to(std::uint64_t target_occupancy);
  void on_intent();
  void on_intent_resolved(Record& r);
  void update_gauges();

  BlockstoreConfig config_;
  ObjectStore& backing_;
  PipelineValidator* validator_ = nullptr;
  std::deque<Record> records_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t occupancy_ = 0;
  std::uint64_t bytes_since_fsync_ = 0;
  std::uint64_t trims_ = 0;
  std::uint64_t coalesced_writes_ = 0;
  std::uint64_t logical_bytes_ = 0;
  std::uint64_t journal_bytes_written_ = 0;
  std::uint64_t data_bytes_written_ = 0;
  std::uint64_t compaction_debt_ = 0;
  std::uint64_t replays_discarded_ = 0;

  struct MetricHandles {
    Gauge* occupancy = nullptr;
    Counter* trims = nullptr;
    Counter* coalesced = nullptr;
    Counter* logical = nullptr;
    Counter* physical = nullptr;
    Gauge* write_amp = nullptr;
  };
  MetricHandles metrics_;
};

}  // namespace dk::rados
