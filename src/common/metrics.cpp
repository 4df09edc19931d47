#include "common/metrics.hpp"

#include <cstdio>

namespace dk {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_key(const std::string& name) {
  std::string out = "\"";
  append_escaped(out, name);
  out += "\"";
  return out;
}

std::string number(double v) {
  // JSON has no NaN/Inf; clamp to 0 (only reachable from empty histograms).
  if (v != v) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string histogram_json(const LatencyHistogram& h) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(h.count());
  out += ",\"min_ns\":" + std::to_string(h.min());
  out += ",\"max_ns\":" + std::to_string(h.max());
  out += ",\"mean_ns\":" + number(h.mean());
  out += ",\"p50_ns\":" + std::to_string(h.p50());
  out += ",\"p95_ns\":" + std::to_string(h.p95());
  out += ",\"p99_ns\":" + std::to_string(h.p99());
  out += "}";
  return out;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  return *it->second;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name,
                                            unsigned sub_buckets_per_octave) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(name,
                      std::make_unique<HistogramMetric>(sub_buckets_per_octave))
             .first;
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const HistogramMetric* MetricsRegistry::find_histogram(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(name);
  return out;
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::to_json() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += json_key(name) + ":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += json_key(name) + ":" + std::to_string(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += json_key(name) + ":" + histogram_json(h->snapshot());
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dk
