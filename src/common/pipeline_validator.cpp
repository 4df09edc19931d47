#include "common/pipeline_validator.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace dk {

namespace {
constexpr std::size_t kMaxLogEntries = 64;

/// Deterministic reporting order over unordered state: anything that feeds
/// the violation log iterates keys sorted ascending, never in hash order.
template <typename Map>
std::vector<typename Map::key_type> sorted_keys(const Map& m) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(m.size());
  // dklint: allow(DK-D003) — key collection only; sorted before any use
  for (const auto& [key, value] : m) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::string_view PipelineValidator::violation_name(Violation kind) {
  switch (kind) {
    case Violation::ring_accounting: return "ring_accounting";
    case Violation::double_completion: return "double_completion";
    case Violation::cqe_dropped: return "cqe_dropped";
    case Violation::tag_double_acquire: return "tag_double_acquire";
    case Violation::tag_bad_release: return "tag_bad_release";
    case Violation::tag_overflow: return "tag_overflow";
    case Violation::tag_leak: return "tag_leak";
    case Violation::descriptor_lifetime: return "descriptor_lifetime";
    case Violation::descriptor_leak: return "descriptor_leak";
    case Violation::trace_order: return "trace_order";
    case Violation::quiescence: return "quiescence";
    case Violation::io_leak: return "io_leak";
    case Violation::corruption_leak: return "corruption_leak";
    case Violation::journal_leak: return "journal_leak";
    case Violation::background_leak: return "background_leak";
  }
  return "unknown";
}

PipelineValidator::PipelineValidator(MetricsRegistry* registry)
    : registry_(registry) {}

void PipelineValidator::violation(Violation kind, int line,
                                  const std::string& message) {
  const auto idx = static_cast<std::size_t>(kind);
  ++counts_[idx];
  ++total_;
  if (registry_) {
    registry_
        ->counter(std::string("check.violations.") +
                  std::string(violation_name(kind)))
        .inc();
  }
  if (log_.size() >= kMaxLogEntries) log_.erase(log_.begin());
  log_.push_back(std::string(violation_name(kind)) + ": " + message);
  detail::report_check_failure(CheckContext{
      violation_name(kind).data(), __FILE__, line, message, DK_CHECK_FATAL_});
}

PipelineValidator::RingState& PipelineValidator::ring_state(unsigned ring) {
  return rings_[ring];
}

PipelineValidator::TagState& PipelineValidator::tag_state(unsigned hw_queue) {
  return tags_[hw_queue];
}

// --- SQ/CQ ring state machine ----------------------------------------------

void PipelineValidator::on_sqe_queued(unsigned ring) {
  ++ring_state(ring).queued;
}

void PipelineValidator::on_sqe_issued(unsigned ring, std::uint64_t user_data) {
  RingState& r = ring_state(ring);
  ++r.issued;
  if (r.issued > r.queued) {
    std::ostringstream os;
    os << "ring " << ring << ": SQ head (" << r.issued
       << ") overran SQ tail (" << r.queued << ")";
    violation(Violation::ring_accounting, __LINE__, os.str());
  }
  ++count_nodes_.emplace(r.inflight, user_data, 0).first->second;
}

void PipelineValidator::on_cqe_posted(unsigned ring, std::uint64_t user_data) {
  RingState& r = ring_state(ring);
  ++r.posted;
  auto it = r.inflight.find(user_data);
  if (it == r.inflight.end() || it->second == 0) {
    std::ostringstream os;
    os << "ring " << ring << ": completion posted for user_data " << user_data
       << " with no SQE in flight (double completion)";
    violation(Violation::double_completion, __LINE__, os.str());
    return;
  }
  if (--it->second == 0) count_nodes_.erase(r.inflight, it);
}

void PipelineValidator::on_cqe_dropped(unsigned ring,
                                       std::uint64_t user_data) {
  std::ostringstream os;
  os << "ring " << ring << ": CQ overflow dropped completion for user_data "
     << user_data;
  violation(Violation::cqe_dropped, __LINE__, os.str());
}

void PipelineValidator::on_cqes_reaped(unsigned ring, unsigned n) {
  RingState& r = ring_state(ring);
  r.reaped += n;
  if (r.reaped > r.posted) {
    std::ostringstream os;
    os << "ring " << ring << ": CQ head (" << r.reaped
       << ") overran CQ tail (" << r.posted << ")";
    violation(Violation::ring_accounting, __LINE__, os.str());
  }
}

// --- blk-mq tag lifecycle ---------------------------------------------------

void PipelineValidator::set_tag_depth(unsigned hw_queue, unsigned depth) {
  TagState& t = tag_state(hw_queue);
  t.depth = depth;
  t.in_use = 0;
  t.held.assign(depth, 0);
}

void PipelineValidator::on_tag_acquired(unsigned hw_queue, unsigned tag) {
  TagState& t = tag_state(hw_queue);
  if (t.depth != 0 && tag >= t.depth) {
    std::ostringstream os;
    os << "hw queue " << hw_queue << ": tag " << tag
       << " outside tag set of depth " << t.depth;
    violation(Violation::tag_overflow, __LINE__, os.str());
    return;
  }
  if (tag >= t.held.size()) t.held.resize(tag + 1, 0);
  if (t.held[tag]) {
    std::ostringstream os;
    os << "hw queue " << hw_queue << ": tag " << tag
       << " acquired while still held";
    violation(Violation::tag_double_acquire, __LINE__, os.str());
    return;
  }
  t.held[tag] = 1;
  ++t.in_use;
  if (t.depth != 0 && t.in_use > t.depth) {
    std::ostringstream os;
    os << "hw queue " << hw_queue << ": " << t.in_use
       << " tags in flight exceeds depth " << t.depth;
    violation(Violation::tag_overflow, __LINE__, os.str());
  }
}

void PipelineValidator::on_tag_released(unsigned hw_queue, unsigned tag) {
  TagState& t = tag_state(hw_queue);
  if (tag >= t.held.size() || !t.held[tag]) {
    std::ostringstream os;
    os << "hw queue " << hw_queue << ": tag " << tag
       << " released while not held";
    violation(Violation::tag_bad_release, __LINE__, os.str());
    return;
  }
  t.held[tag] = 0;
  --t.in_use;
}

// --- QDMA descriptor lifecycle ----------------------------------------------

void PipelineValidator::on_descriptor_posted(std::uint64_t descriptor) {
  const bool inserted =
      descriptor_nodes_
          .emplace(descriptors_, descriptor, DescriptorState::posted)
          .second;
  if (!inserted) {
    std::ostringstream os;
    os << "descriptor " << descriptor << " posted twice (reuse before "
       << "completion)";
    violation(Violation::descriptor_lifetime, __LINE__, os.str());
  }
}

void PipelineValidator::on_descriptor_fetched(std::uint64_t descriptor) {
  auto it = descriptors_.find(descriptor);
  if (it == descriptors_.end()) {
    std::ostringstream os;
    os << "descriptor " << descriptor << " fetched but never posted";
    violation(Violation::descriptor_lifetime, __LINE__, os.str());
    return;
  }
  if (it->second != DescriptorState::posted) {
    std::ostringstream os;
    os << "descriptor " << descriptor << " fetched twice";
    violation(Violation::descriptor_lifetime, __LINE__, os.str());
    return;
  }
  it->second = DescriptorState::fetched;
}

void PipelineValidator::on_descriptor_completed(std::uint64_t descriptor) {
  auto it = descriptors_.find(descriptor);
  if (it == descriptors_.end()) {
    std::ostringstream os;
    os << "descriptor " << descriptor
       << " completed but not outstanding (double completion)";
    violation(Violation::descriptor_lifetime, __LINE__, os.str());
    return;
  }
  if (it->second != DescriptorState::fetched) {
    std::ostringstream os;
    os << "descriptor " << descriptor << " completed before the Descriptor "
       << "Engine fetched it";
    violation(Violation::descriptor_lifetime, __LINE__, os.str());
    return;
  }
  descriptor_nodes_.erase(descriptors_, it);
  ++descriptors_completed_;
}

// --- StageTrace audit -------------------------------------------------------

void PipelineValidator::on_trace_complete(const StageTrace& trace) {
  ++traces_audited_;
  if (!trace.monotonic()) {
    std::ostringstream os;
    os << "stage timestamps out of pipeline order:";
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const auto s = static_cast<Stage>(i);
      if (trace.has(s)) os << ' ' << stage_name(s) << '=' << trace.at(s);
    }
    violation(Violation::trace_order, __LINE__, os.str());
    return;
  }
  if (trace.has(Stage::complete) && !trace.has(Stage::submit)) {
    violation(Violation::trace_order, __LINE__,
              "trace completed without a submit hop");
  }
}

// --- I/O resolution under fault injection -----------------------------------

void PipelineValidator::on_io_started(std::uint64_t token) {
  ++count_nodes_.emplace(ios_inflight_, token, 0).first->second;
}

void PipelineValidator::on_io_resolved(std::uint64_t token) {
  auto it = ios_inflight_.find(token);
  if (it == ios_inflight_.end() || it->second == 0) {
    std::ostringstream os;
    os << "I/O token " << token
       << " resolved but never started (double resolution)";
    violation(Violation::io_leak, __LINE__, os.str());
    return;
  }
  if (--it->second == 0) count_nodes_.erase(ios_inflight_, it);
  ++ios_resolved_;
}

void PipelineValidator::on_fault_injected() {
  ++faults_injected_;
}

// --- corruption resolution (integrity mode) ---------------------------------

void PipelineValidator::on_corruption_detected() {
  ++corruptions_detected_;
}

void PipelineValidator::on_corruption_resolved() {
  ++corruptions_resolved_;
  if (corruptions_resolved_ > corruptions_detected_) {
    std::ostringstream os;
    os << "corruption resolved " << corruptions_resolved_
       << " time(s) but only detected " << corruptions_detected_
       << " time(s)";
    violation(Violation::corruption_leak, __LINE__, os.str());
  }
}

// --- journaled-blockstore intent resolution ----------------------------------

void PipelineValidator::on_journal_intent() {
  ++journal_intents_;
}

void PipelineValidator::on_journal_intent_resolved() {
  ++journal_resolved_;
  if (journal_resolved_ > journal_intents_) {
    std::ostringstream os;
    os << "journal intent resolved " << journal_resolved_
       << " time(s) but only " << journal_intents_ << " appended";
    violation(Violation::journal_leak, __LINE__, os.str());
  }
}

// --- background-work resolution (scrub / paced recovery) ---------------------

void PipelineValidator::on_background_scheduled() {
  ++background_scheduled_;
}

void PipelineValidator::on_background_resolved() {
  ++background_resolved_;
  if (background_resolved_ > background_scheduled_) {
    std::ostringstream os;
    os << "background work resolved " << background_resolved_
       << " time(s) but only " << background_scheduled_ << " scheduled";
    violation(Violation::background_leak, __LINE__, os.str());
  }
}

// --- teardown ---------------------------------------------------------------

std::uint64_t PipelineValidator::verify_quiescent() {
  const std::uint64_t before = total_;
  for (const unsigned id : sorted_keys(rings_)) {
    const RingState& r = rings_.at(id);
    if (r.queued != r.issued || r.posted != r.reaped ||
        r.issued != r.posted || !r.inflight.empty()) {
      std::ostringstream os;
      os << "ring " << id << " not quiescent: queued=" << r.queued
         << " issued=" << r.issued << " posted=" << r.posted
         << " reaped=" << r.reaped << " inflight=" << r.inflight.size();
      violation(Violation::quiescence, __LINE__, os.str());
    }
  }
  for (const unsigned q : sorted_keys(tags_)) {
    const TagState& t = tags_.at(q);
    if (t.in_use != 0) {
      std::ostringstream os;
      os << "hw queue " << q << ": " << t.in_use << " tag(s) leaked";
      violation(Violation::tag_leak, __LINE__, os.str());
    }
  }
  if (!descriptors_.empty()) {
    std::ostringstream os;
    os << descriptors_.size() << " QDMA descriptor(s) never completed";
    violation(Violation::descriptor_leak, __LINE__, os.str());
  }
  if (!ios_inflight_.empty()) {
    std::ostringstream os;
    os << ios_inflight_.size() << " I/O(s) neither completed nor errored ("
       << faults_injected_ << " fault(s) injected this run)";
    violation(Violation::io_leak, __LINE__, os.str());
  }
  if (corruptions_detected_ != corruptions_resolved_) {
    std::ostringstream os;
    os << corruptions_detected_ - corruptions_resolved_
       << " detected corruption(s) neither repaired nor surfaced as "
       << "Errc::corrupted (" << corruptions_detected_ << " detected, "
       << corruptions_resolved_ << " resolved)";
    violation(Violation::corruption_leak, __LINE__, os.str());
  }
  if (journal_intents_ != journal_resolved_) {
    std::ostringstream os;
    os << journal_intents_ - journal_resolved_
       << " journaled intent(s) neither applied nor trimmed ("
       << journal_intents_ << " appended, " << journal_resolved_
       << " resolved)";
    violation(Violation::journal_leak, __LINE__, os.str());
  }
  if (background_scheduled_ != background_resolved_) {
    std::ostringstream os;
    os << background_scheduled_ - background_resolved_
       << " background work item(s) neither completed nor cancelled ("
       << background_scheduled_ << " scheduled, " << background_resolved_
       << " resolved)";
    violation(Violation::background_leak, __LINE__, os.str());
  }
  return total_ - before;
}

// --- introspection ----------------------------------------------------------

std::uint64_t PipelineValidator::violations() const {
  return total_;
}

std::uint64_t PipelineValidator::violations(Violation kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

std::vector<std::string> PipelineValidator::violation_log() const {
  return log_;
}

std::uint64_t PipelineValidator::ring_inflight(unsigned ring) const {
  auto it = rings_.find(ring);
  if (it == rings_.end()) return 0;
  std::uint64_t n = 0;
  // dklint: allow(DK-D003) — commutative sum; result is order-independent
  for (const auto& [ud, count] : it->second.inflight) n += count;
  return n;
}

unsigned PipelineValidator::tags_in_use(unsigned hw_queue) const {
  auto it = tags_.find(hw_queue);
  return it == tags_.end() ? 0 : it->second.in_use;
}

std::uint64_t PipelineValidator::descriptors_outstanding() const {
  return descriptors_.size();
}

std::uint64_t PipelineValidator::corruptions_detected() const {
  return corruptions_detected_;
}

std::uint64_t PipelineValidator::corruptions_resolved() const {
  return corruptions_resolved_;
}

std::uint64_t PipelineValidator::journal_intents() const {
  return journal_intents_;
}

std::uint64_t PipelineValidator::journal_intents_resolved() const {
  return journal_resolved_;
}

}  // namespace dk
