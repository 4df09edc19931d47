#include "blk/mq.hpp"

#include <memory>
#include <utility>

#include "common/annotations.hpp"
#include "common/check.hpp"
#include "common/pipeline_validator.hpp"

namespace dk::blk {

MqBlockLayer::MqBlockLayer(MqConfig config, Driver& driver)
    : config_(config), driver_(driver) {
  DK_CHECK(config_.nr_hw_queues >= 1 && config_.queue_depth >= 1);
  pending_.resize(config_.nr_hw_queues);
  free_tags_.resize(config_.nr_hw_queues);
  parked_.resize(config_.nr_hw_queues);
  for (auto& slots : parked_) slots.resize(config_.queue_depth);
  for (auto& tags : free_tags_) {
    // Stack holds depth-1 .. 0 so the first dispatch draws tag 0.
    tags.reserve(config_.queue_depth);
    for (unsigned t = config_.queue_depth; t-- > 0;) tags.push_back(t);
  }
}

void MqBlockLayer::attach_validator(PipelineValidator& validator) {
  validator_ = &validator;
  for (unsigned q = 0; q < config_.nr_hw_queues; ++q)
    validator.set_tag_depth(q, config_.queue_depth);
}

void MqBlockLayer::attach_metrics(MetricsRegistry& registry,
                                  const std::string& prefix) {
  metrics_.submitted = &registry.counter(prefix + ".submitted");
  metrics_.dispatched = &registry.counter(prefix + ".dispatched");
  metrics_.completed = &registry.counter(prefix + ".completed");
  metrics_.merges = &registry.counter(prefix + ".merges");
  metrics_.splits = &registry.counter(prefix + ".splits");
  metrics_.sched_bypass = &registry.counter(prefix + ".sched_bypass");
  metrics_.tag_waits = &registry.counter(prefix + ".tag_waits");
  metrics_.tags_in_use = &registry.gauge(prefix + ".tags_in_use");
  metrics_.queued = &registry.gauge(prefix + ".queued");
}

DK_HOT Status MqBlockLayer::submit(unsigned cpu, Request request) {
  if (request.len == 0 && request.op != ReqOp::flush)
    return Status::Error(Errc::invalid_argument, "zero-length bio");
  if (!request.data.empty() && request.data.size() != request.len)
    return Status::Error(Errc::invalid_argument,
                         "payload view differs from bio length");
  const unsigned hwq = hw_queue_of_cpu(cpu);
  request.hw_queue = hwq;
  ++stats_.submitted;

  if (request.len > config_.max_io_bytes)
    return split(cpu, std::move(request));

  // Fragments re-enter submit() from split(), so this point is reached
  // exactly once per bio the layer will queue — the live counter mirrors it.
  if (metrics_.submitted) metrics_.submitted->inc();

  if (config_.bypass_scheduler) {
    ++stats_.sched_bypass;
    if (metrics_.sched_bypass) metrics_.sched_bypass->inc();
    pending_[hwq].push_back(std::move(request));
    if (metrics_.queued) metrics_.queued->add();
    dispatch(hwq);
    return Status::Ok();
  }

  // Elevator path: try to merge into a queued request first.
  if (try_merge(hwq, request)) {
    ++stats_.merges;
    if (metrics_.merges) metrics_.merges->inc();
    return Status::Ok();
  }
  pending_[hwq].push_back(std::move(request));
  if (metrics_.queued) metrics_.queued->add();
  dispatch(hwq);
  return Status::Ok();
}

Status MqBlockLayer::split(unsigned cpu, Request request) {
  // Split to the device transfer limit. All fragments share one completion
  // that fires once, with the total byte count, after the last fragment.
  struct SplitState {
    unsigned remaining;
    std::int32_t first_error = 0;
    std::uint64_t total = 0;
    CompleteFn complete;
  };
  const unsigned nfrag =
      (request.len + config_.max_io_bytes - 1) / config_.max_io_bytes;
  auto state = std::make_shared<SplitState>();
  state->remaining = nfrag;
  state->complete = std::move(request.complete);
  stats_.splits += nfrag - 1;
  if (metrics_.splits) metrics_.splits->inc(nfrag - 1);
  // The original bio was already counted; fragments re-enter submit()
  // individually so merging/tagging treats them uniformly.
  stats_.submitted -= 1;

  std::uint64_t off = request.offset;
  std::uint32_t left = request.len;
  while (left > 0) {
    const std::uint32_t chunk =
        left < config_.max_io_bytes ? left : config_.max_io_bytes;
    Request frag;
    frag.op = request.op;
    frag.offset = off;
    frag.len = chunk;
    if (!request.data.empty())
      frag.data = request.data.subspan(off - request.offset, chunk);
    if (request.pages != nullptr)
      frag.pages =
          request.pages + (off - request.offset) / config_.max_io_bytes;
    frag.user_data = request.user_data;
    frag.complete = [state, chunk](std::int32_t res) {
      if (res < 0 && state->first_error == 0) state->first_error = res;
      if (res >= 0) state->total += chunk;
      if (--state->remaining == 0) {
        state->complete(state->first_error != 0
                            ? state->first_error
                            : static_cast<std::int32_t>(state->total));
      }
    };
    const Status s = submit(cpu, std::move(frag));
    if (!s.ok()) return s;  // only possible for invalid fragments
    off += chunk;
    left -= chunk;
  }
  return Status::Ok();
}

bool MqBlockLayer::try_merge(unsigned hwq, Request& request) {
  // Back-merge only (the common sequential-I/O case): the new bio starts
  // exactly where a queued request of the same op ends, on the device and
  // in the payload buffer, and the combined size respects the device limit.
  // A read that names its own pages keeps its own request.
  if (request.pages != nullptr) return false;
  for (auto& queued : pending_[hwq]) {
    if (queued.op != request.op || queued.pages != nullptr) continue;
    if (queued.offset + queued.len != request.offset) continue;
    if (queued.len + request.len > config_.max_io_bytes) continue;
    const bool payload_continues =
        queued.data.empty()
            ? request.data.empty()
            : queued.data.data() + queued.len == request.data.data();
    if (!payload_continues) continue;
    // Chain completions: each original bio is acked with its own length.
    auto prev = std::move(queued.complete);
    auto mine = std::move(request.complete);
    const std::uint32_t prev_len = queued.len;
    const std::uint32_t my_len = request.len;
    queued.complete = [prev = std::move(prev), mine = std::move(mine),
                       prev_len, my_len](std::int32_t res) {
      if (res < 0) {
        prev(res);
        mine(res);
      } else {
        prev(static_cast<std::int32_t>(prev_len));
        mine(static_cast<std::int32_t>(my_len));
      }
    };
    queued.len += request.len;
    if (!queued.data.empty()) queued.data = {queued.data.data(), queued.len};
    return true;
  }
  return false;
}

DK_HOT void MqBlockLayer::dispatch(unsigned hwq) {
  auto& queue = pending_[hwq];
  while (!queue.empty()) {
    if (free_tags_[hwq].empty()) {
      ++stats_.tag_waits;
      if (metrics_.tag_waits) metrics_.tag_waits->inc();
      return;  // tags exhausted; run_queues() after completions
    }
    Request req = std::move(queue.front());
    queue.pop_front();
    req.tag = free_tags_[hwq].back();
    free_tags_[hwq].pop_back();
    if (validator_) validator_->on_tag_acquired(hwq, req.tag);
    ++stats_.dispatched;
    if (metrics_.dispatched) {
      metrics_.dispatched->inc();
      metrics_.queued->sub();
      metrics_.tags_in_use->add();
    }

    // Park the submitter's completion under the tag; the driver's ends the
    // request there.
    const unsigned tag = req.tag;
    parked_[hwq][tag] = std::move(req.complete);
    req.complete = [this, hwq, tag](std::int32_t res) {
      end_request(hwq, tag, res);
    };
    driver_.queue_rq(std::move(req));
  }
}

DK_HOT void MqBlockLayer::end_request(unsigned hwq, unsigned tag,
                                      std::int32_t res) {
  DK_CHECK(tags_in_use(hwq) > 0)
      << "completion on hw queue " << hwq << " with no tags in flight";
  // Moved out before the tag frees: the completion may submit a request
  // that is dispatched onto this very tag.
  CompleteFn done = std::move(parked_[hwq][tag]);
  free_tags_[hwq].push_back(tag);
  if (validator_) validator_->on_tag_released(hwq, tag);
  ++stats_.completed;
  if (metrics_.completed) {
    metrics_.completed->inc();
    metrics_.tags_in_use->sub();
  }
  if (done) done(res);
  dispatch(hwq);
}

void MqBlockLayer::run_queues() {
  for (unsigned q = 0; q < config_.nr_hw_queues; ++q) dispatch(q);
}

}  // namespace dk::blk
