#include "rados/blockstore.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/crc32c.hpp"
#include "common/pipeline_validator.hpp"

namespace dk::rados {

namespace {
constexpr std::uint64_t kBlock = kChecksumBlockBytes;

/// Data-area traffic for a [offset, offset+len) write: whole 4 kB blocks.
std::uint64_t block_rounded(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return 0;
  const std::uint64_t first = offset / kBlock;
  const std::uint64_t last = (offset + len - 1) / kBlock;
  return (last - first + 1) * kBlock;
}
}  // namespace

Blockstore::Blockstore(const BlockstoreConfig& config, ObjectStore& backing)
    : config_(config), backing_(backing) {
  DK_CHECK(config_.journal_bytes > kJournalHeaderBytes)
      << "journal cap smaller than one record header";
}

void Blockstore::attach_metrics(MetricsRegistry& registry,
                                const std::string& prefix) {
  metrics_.occupancy = &registry.gauge(prefix + ".journal.occupancy");
  metrics_.trims = &registry.counter(prefix + ".journal.trims");
  metrics_.coalesced = &registry.counter(prefix + ".journal.coalesced_writes");
  metrics_.logical = &registry.counter(prefix + ".logical_bytes");
  metrics_.physical = &registry.counter(prefix + ".physical_bytes");
  metrics_.write_amp = &registry.gauge(prefix + ".write_amp_x1000");
}

void Blockstore::on_intent() {
  if (validator_ != nullptr) validator_->on_journal_intent();
}

void Blockstore::on_intent_resolved(Record& r) {
  if (r.resolved) return;
  r.resolved = true;
  if (validator_ != nullptr) validator_->on_journal_intent_resolved();
}

void Blockstore::update_gauges() {
  // The amplification gauge is computed from the shared counters, so with
  // many OSDs attached to one registry it reports the cluster aggregate.
  if (metrics_.write_amp == nullptr) return;
  const std::uint64_t logical = metrics_.logical->value();
  if (logical > 0)
    metrics_.write_amp->set(
        static_cast<std::int64_t>(metrics_.physical->value() * 1000 / logical));
}

std::uint64_t Blockstore::append(const ObjectKey& key, std::uint64_t offset,
                                 std::span<const std::uint8_t> data) {
  DK_CHECK(!data.empty()) << "journal records carry a payload";
  logical_bytes_ += data.size();
  if (metrics_.logical != nullptr) metrics_.logical->inc(data.size());

  // Small-write coalescing: a sub-block write contiguous with the tail
  // record of the same object extends that record — one header, one entry
  // in the fsync batch — instead of opening a new one.
  if (!records_.empty()) {
    Record& tail = records_.back();
    if (!tail.torn && tail.key == key && data.size() < kCoalesceBytes &&
        offset == tail.offset + tail.length &&
        tail.length + data.size() <= kCoalesceLimit) {
      // Chain both CRCs over the new bytes: they stay equal when the record
      // was intact, and a record whose stored CRC had gone bad stays bad
      // instead of being laundered.
      tail.pending.insert(tail.pending.end(), data.begin(), data.end());
      tail.length += data.size();
      tail.crc = crc32c(data, tail.crc);
      tail.payload_crc = crc32c(data, tail.payload_crc);
      tail.stored_bytes += data.size();
      tail.applied = false;  // the new delta is not in the data area yet
      occupancy_ += data.size();
      journal_bytes_written_ += data.size();
      ++coalesced_writes_;
      if (metrics_.physical != nullptr) metrics_.physical->inc(data.size());
      if (metrics_.coalesced != nullptr) metrics_.coalesced->inc();
      if (metrics_.occupancy != nullptr)
        metrics_.occupancy->add(static_cast<std::int64_t>(data.size()));
      return tail.lsn;
    }
  }

  // Ring wraparound: make room by trimming applied head records before the
  // append would exceed the cap.
  const std::uint64_t stored = kJournalHeaderBytes + data.size();
  while (occupancy_ + stored > config_.journal_bytes && !records_.empty() &&
         records_.front().applied) {
    trim_front();
  }

  Record r;
  r.lsn = next_lsn_++;
  r.key = key;
  r.offset = offset;
  r.length = data.size();
  // An unapplied record must stay replayable, so it holds its own copy.
  r.pending.assign(data.begin(), data.end());
  r.crc = crc32c(data);
  r.payload_crc = r.crc;
  r.stored_bytes = stored;
  records_.push_back(std::move(r));
  occupancy_ += stored;
  journal_bytes_written_ += stored;
  if (metrics_.physical != nullptr) metrics_.physical->inc(stored);
  if (metrics_.occupancy != nullptr)
    metrics_.occupancy->add(static_cast<std::int64_t>(stored));
  on_intent();
  return records_.back().lsn;
}

void Blockstore::commit(std::uint64_t lsn, const ObjectKey& key,
                        std::uint64_t offset,
                        std::span<const std::uint8_t> data,
                        std::span<const std::uint32_t> checksums) {
  DK_CHECK(!records_.empty() && records_.back().lsn == lsn)
      << "commit must target the record just appended";
  backing_.write(key, offset, data, checksums);
  Record& r = records_.back();
  r.pending = std::vector<std::uint8_t>();  // frees; clear() keeps capacity
  r.applied = true;
  on_intent_resolved(r);
  const std::uint64_t physical = block_rounded(offset, data.size());
  data_bytes_written_ += physical;
  if (metrics_.physical != nullptr) metrics_.physical->inc(physical);

  // Watermark policy: trim eagerly once occupancy crosses the high-water
  // mark so sustained load never parks the journal at its cap.
  const auto mark = static_cast<std::uint64_t>(
      config_.trim_watermark * static_cast<double>(config_.journal_bytes));
  if (occupancy_ > mark) {
    trim_to(static_cast<std::uint64_t>(
        kTrimTarget * static_cast<double>(config_.journal_bytes)));
  }
  update_gauges();
}

void Blockstore::trim_front() {
  DK_CHECK(!records_.empty() && records_.front().applied)
      << "only applied records may be trimmed";
  Record& head = records_.front();
  const std::uint64_t freed = head.stored_bytes;
  occupancy_ -= freed;
  compaction_debt_ += freed;
  ++trims_;
  on_intent_resolved(head);  // already resolved at apply; no-op then
  if (metrics_.trims != nullptr) metrics_.trims->inc();
  if (metrics_.occupancy != nullptr)
    metrics_.occupancy->sub(static_cast<std::int64_t>(freed));
  records_.pop_front();
}

void Blockstore::trim_to(std::uint64_t target_occupancy) {
  while (occupancy_ > target_occupancy && !records_.empty() &&
         records_.front().applied) {
    trim_front();
  }
}

void Blockstore::tear_tail(std::uint64_t keep_bytes) {
  if (records_.empty()) return;
  Record& tail = records_.back();
  if (keep_bytes >= tail.stored_bytes) return;  // durable after all
  const std::uint64_t lost = tail.stored_bytes - keep_bytes;
  tail.torn = true;
  tail.stored_bytes = keep_bytes;
  // Bytes past the tear never reached the journal device; the stored CRC
  // (in the header, written first) no longer matches what survives. A torn
  // record is never applied, so its bytes are dropped.
  tail.pending = std::vector<std::uint8_t>();
  occupancy_ -= lost;
  if (metrics_.occupancy != nullptr)
    metrics_.occupancy->sub(static_cast<std::int64_t>(lost));
}

void Blockstore::corrupt_crc(std::uint64_t lsn) {
  for (auto& r : records_) {
    if (r.lsn == lsn) {
      r.crc = ~r.crc;
      return;
    }
  }
}

bool Blockstore::intact(const Record& r) const {
  // Only tear_tail() and corrupt_crc() change a journaled record, so the
  // payload CRC taken at append stands for one recomputed over its bytes.
  return !r.torn && r.stored_bytes == kJournalHeaderBytes + r.length &&
         r.crc == r.payload_crc;
}

std::size_t Blockstore::replay() {
  std::size_t resolved = 0;
  std::size_t upto = 0;  // records surviving the walk
  for (; upto < records_.size(); ++upto) {
    Record& r = records_[upto];
    if (!intact(r)) break;  // the readable log ends at the first bad record
    if (!r.applied) {
      // A write coalesced onto an applied record left only its own bytes
      // pending: they sit at the record's end.
      backing_.write(r.key, r.offset + r.length - r.pending.size(), r.pending,
                     {});
      r.applied = true;
      data_bytes_written_ += block_rounded(r.offset, r.length);
      ++resolved;
    }
    on_intent_resolved(r);
  }
  // Discard the torn/rejected record and everything after it: those bytes
  // were never acknowledged and must not surface.
  for (std::size_t i = upto; i < records_.size(); ++i) {
    Record& r = records_[i];
    ++replays_discarded_;
    if (!r.resolved) ++resolved;
    on_intent_resolved(r);
  }
  if (metrics_.occupancy != nullptr)
    metrics_.occupancy->sub(static_cast<std::int64_t>(occupancy_));
  records_.clear();
  occupancy_ = 0;
  bytes_since_fsync_ = 0;
  update_gauges();
  return resolved;
}

Nanos Blockstore::append_cost(std::uint64_t payload_bytes) {
  const std::uint64_t stored = kJournalHeaderBytes + payload_bytes;
  Nanos cost = kJournalAppendFixed + transfer_time(stored, kJournalBps);
  bytes_since_fsync_ += stored;
  if (bytes_since_fsync_ >= config_.fsync_interval_bytes) {
    bytes_since_fsync_ %= config_.fsync_interval_bytes;
    cost += kFsyncFixed;
  }
  return cost;
}

std::uint64_t Blockstore::take_compaction_debt() {
  const std::uint64_t debt = compaction_debt_;
  compaction_debt_ = 0;
  return debt;
}

std::uint64_t Blockstore::record_bytes(std::uint64_t lsn) const {
  for (const auto& r : records_)
    if (r.lsn == lsn) return r.stored_bytes;
  return 0;
}

double Blockstore::write_amplification() const {
  if (logical_bytes_ == 0) return 0.0;
  return static_cast<double>(journal_bytes_written_ + data_bytes_written_) /
         static_cast<double>(logical_bytes_);
}

}  // namespace dk::rados
