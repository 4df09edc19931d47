#include "common/trace.hpp"

#include "common/wall_clock.hpp"

namespace dk {

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::submit: return "submit";
    case Stage::sq_dispatch: return "sq_dispatch";
    case Stage::blk_enter: return "blk_enter";
    case Stage::driver_dispatch: return "driver_dispatch";
    case Stage::rados_issue: return "rados_issue";
    case Stage::remote_complete: return "remote_complete";
    case Stage::complete: return "complete";
  }
  return "unknown";
}

Nanos trace_wall_now() { return wall_clock_now(); }

void StageTrace::mark(Stage s, Nanos t) {
  Nanos& slot = t_[static_cast<std::size_t>(s)];
  if (slot < 0) slot = t < 0 ? 0 : t;
}

unsigned StageTrace::marked() const {
  unsigned n = 0;
  for (Nanos t : t_)
    if (t >= 0) ++n;
  return n;
}

bool StageTrace::monotonic() const {
  Nanos prev = -1;
  for (Nanos t : t_) {
    if (t < 0) continue;
    if (t < prev) return false;
    prev = t;
  }
  return true;
}

Nanos StageTrace::total() const {
  const Nanos a = at(Stage::submit);
  const Nanos b = at(Stage::complete);
  return (a >= 0 && b >= a) ? b - a : 0;
}

TraceCollector::TraceCollector(MetricsRegistry& registry, std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {}

HistogramMetric& TraceCollector::transition(std::size_t from, std::size_t to) {
  HistogramMetric*& h = cache_[from][to];
  if (!h) {
    std::string name = prefix_;
    name += '.';
    name += stage_name(static_cast<Stage>(from));
    name += "_to_";
    name += stage_name(static_cast<Stage>(to));
    h = &registry_.histogram(name);
  }
  return *h;
}

void TraceCollector::collect(const StageTrace& trace) {
  ++collected_;
  std::size_t prev = kStageCount;  // sentinel: no stage seen yet
  Nanos prev_t = 0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const Nanos t = trace.at(static_cast<Stage>(s));
    if (t < 0) continue;
    if (prev != kStageCount && t >= prev_t)
      transition(prev, s).record(t - prev_t);
    prev = s;
    prev_t = t;
  }
  if (!end_to_end_) end_to_end_ = &registry_.histogram(prefix_ + ".end_to_end");
  if (trace.has(Stage::submit) && trace.has(Stage::complete))
    end_to_end_->record(trace.total());
}

}  // namespace dk
