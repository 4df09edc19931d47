#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>

#include "common/metrics.hpp"
#include "common/rng.hpp"

namespace {

// Allocation counting for the traced run. Thread-local, so the counter is
// never shared between threads even if a library thread allocates.
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;

}  // namespace

// Replacement global allocation functions: the only instrumentation the
// benchmark adds, and it lives in the benchmark binary, not in src/. The
// array, nothrow and sized forms forward here or to free().
void* operator new(std::size_t size) {
  if (t_counting) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

using dk::KiB;
using dk::MiB;
using dk::core::PoolMode;
using dk::core::VariantKind;
using dk::workload::RwMode;

namespace {

// Simulated runtimes give each measured fio run roughly 0.25-1 s of wall
// time on a 4-vCPU Xeon container and at least 1000 latency samples, so p99
// has ten samples beyond it. peel_ops keeps a traced pass near 0.2 s.
constexpr Workload kWorkloads[] = {
    {"rep-randread-4k", VariantKind::delibak, PoolMode::replicated, 128 * MiB,
     4 * KiB, RwMode::rand_read, false, false, dk::ms(1500), 20000},
    {"ec-randwrite-128k", VariantKind::delibak, PoolMode::erasure, 128 * MiB,
     128 * KiB, RwMode::rand_write, false, false, dk::ms(300), 256},
    {"durable-randrw-4k", VariantKind::sw_ceph_d2, PoolMode::replicated,
     64 * MiB, 4 * KiB, RwMode::rand_rw, true, true, dk::ms(400), 2000},
};

constexpr dk::Nanos kRamp = dk::ms(20);

// Written by machine_speed() so the compiler keeps its work.
volatile std::uint64_t g_reference_sink = 0;

// Gauges that hold a level, not in-flight work, and legitimately stay set
// after a drain.
constexpr std::string_view kLevelGauges[] = {
    "background.time_to_full_redundancy_ms",
    "blockstore.journal.occupancy",
    "blockstore.write_amp_x1000",
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

dk::workload::FioJobSpec job_spec(const Workload& w, std::uint64_t seed) {
  dk::workload::FioJobSpec spec;
  spec.rw = w.rw;
  spec.rwmix_read = kRwmixRead;
  spec.bs = w.bs;
  spec.iodepth = kIodepth;
  spec.numjobs = 1;
  spec.runtime = w.sim_runtime;
  spec.ramp = kRamp;
  spec.verify = w.inline_verify;
  spec.seed = seed;
  return spec;
}

std::unique_ptr<Stack> set_up(const Workload& w, std::uint64_t seed) {
  dk::core::FrameworkConfig config;
  config.variant = w.variant;
  config.pool_mode = w.pool;
  config.replica_size = 2;
  config.ec_profile = {4, 2, dk::ec::GeneratorKind::vandermonde};
  config.image_size = w.image_bytes;
  config.object_size = 4 * MiB;
  config.integrity = w.durable;
  config.blockstore.enabled = w.durable;

  auto s = std::make_unique<Stack>();
  s->fw = std::make_unique<dk::core::Framework>(s->sim, config);
  // A zero-length fio run issues nothing but its prefill, which writes
  // fio's verify pattern over the whole image at the workload block size.
  dk::workload::FioJobSpec fill = job_spec(w, seed);
  fill.prefill = true;
  fill.verify = false;
  fill.runtime = 0;
  fill.ramp = 0;
  dk::workload::FioEngine(*s->fw).run(fill);
  return s;
}

std::uint64_t verify_image(Stack& s, const Workload& w, std::uint64_t seed) {
  const std::uint64_t blocks = w.image_bytes / w.bs;
  dk::workload::FioJobSpec spec = job_spec(w, seed);
  spec.rw = RwMode::seq_read;
  spec.verify = true;
  spec.ramp = 0;
  spec.runtime = dk::ms(100);
  dk::workload::FioResult r;
  // Each pass reads sequentially from block 0; stretch the simulated
  // window until one pass covers the image.
  for (int pass = 0; pass < 4; ++pass) {
    r = dk::workload::FioEngine(*s.fw).run(spec);
    if (r.ops >= blocks) return r.verify_errors;
    const dk::Nanos needed =
        spec.runtime * static_cast<dk::Nanos>(blocks + blocks / 4) /
        static_cast<dk::Nanos>(std::max<std::uint64_t>(r.ops, 1));
    spec.runtime = std::min(needed, spec.runtime * 8) + dk::ms(1);
  }
  return r.verify_errors + (blocks - std::min(r.ops, blocks));
}

Snapshot snapshot(dk::core::Framework& fw) {
  Snapshot s;
  const dk::MetricsRegistry& reg = fw.metrics();
  for (const std::string& name : reg.counter_names())
    s.counters[name] = reg.find_counter(name)->value();
  for (const std::string& name : reg.histogram_names()) {
    const dk::LatencyHistogram h = reg.find_histogram(name)->snapshot();
    s.histograms[name] = {h.count(),
                          h.mean() * static_cast<double>(h.count())};
  }
  s.events = fw.simulator().executed_events();
  const dk::crush::PlacementWork& work = fw.rados_client().placement_work();
  s.bucket_descents = work.bucket_descents;
  s.item_comparisons = work.item_comparisons;
  return s;
}

std::uint64_t counter_delta(const Snapshot& a, const Snapshot& b,
                            const std::string& name) {
  const auto ib = b.counters.find(name);
  if (ib == b.counters.end()) return 0;
  const auto ia = a.counters.find(name);
  return ib->second - (ia == a.counters.end() ? 0 : ia->second);
}

double hist_mean_us(const Snapshot& a, const Snapshot& b,
                    const std::string& name) {
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return 0;
  std::pair<std::uint64_t, double> before{0, 0.0};
  if (const auto ia = a.histograms.find(name); ia != a.histograms.end())
    before = ia->second;
  const std::uint64_t n = ib->second.first - before.first;
  if (n == 0) return 0;
  return (ib->second.second - before.second) / static_cast<double>(n) /
         static_cast<double>(dk::kMicrosecond);
}

IoTally tally(const Snapshot& a, const Snapshot& b) {
  IoTally t;
  t.attempted =
      counter_delta(a, b, "io.reads") + counter_delta(a, b, "io.writes");
  t.completed = counter_delta(a, b, "io.completions");
  t.errors = counter_delta(a, b, "io.errors");
  return t;
}

ModelResult model_of(const dk::workload::FioResult& r, const Snapshot& a,
                     const Snapshot& b) {
  ModelResult m;
  m.samples = r.latency.count();
  m.kiops = r.iops() / 1000.0;
  m.p50_us = quantile_us(r.latency, 50.0);
  m.p99_us = quantile_us(r.latency, 99.0);
  m.mean_us = r.mean_latency_us();
  m.completions = counter_delta(a, b, "io.completions");
  m.events = b.events - a.events;
  m.messages = counter_delta(a, b, "rados.messages_sent");
  m.osd_ops = counter_delta(a, b, "osd.ops");
  return m;
}

void check_drained(dk::core::Framework& fw,
                   std::vector<std::string>& problems) {
  if (const std::uint64_t v = fw.validator().verify_quiescent(); v != 0)
    problems.push_back("validator: " + std::to_string(v) +
                       " violation(s) at quiescence");
  const dk::MetricsRegistry& reg = fw.metrics();
  for (const std::string& name : reg.gauge_names()) {
    if (std::find(std::begin(kLevelGauges), std::end(kLevelGauges), name) !=
        std::end(kLevelGauges))
      continue;
    if (const std::int64_t v = reg.find_gauge(name)->value(); v != 0)
      problems.push_back("gauge " + name + " = " + std::to_string(v) +
                         " after drain");
  }
  double hops = 0.0;
  double end_to_end = 0.0;
  for (const std::string& name : reg.histogram_names()) {
    if (!name.starts_with("stage.")) continue;
    const double mean = reg.find_histogram(name)->snapshot().mean();
    (name == "stage.end_to_end" ? end_to_end : hops) += mean;
  }
  if (std::abs(hops - end_to_end) > 1e-6 * end_to_end + 1e-3)
    problems.push_back("stage means sum to " + std::to_string(hops) +
                       " ns, stage.end_to_end is " +
                       std::to_string(end_to_end) + " ns");
}

void plant_failure(Stack& s, Plant p) {
  dk::core::Framework& fw = *s.fw;
  const std::uint64_t bs = 4096;
  switch (p) {
    case Plant::none:
      return;
    case Plant::corrupt: {
      const auto pool = static_cast<std::uint32_t>(fw.image().spec().pool);
      const std::uint64_t oid = fw.image().oid_of(0);
      for (std::size_t i = 0; i < fw.cluster().osd_count(); ++i) {
        dk::rados::ObjectStore& store =
            fw.cluster().osd(static_cast<int>(i)).store();
        for (const dk::rados::ObjectKey& key : store.keys_of_pool(pool)) {
          // The image's first byte: a replica copy, or EC data shard 0.
          if (key.oid != oid || key.shard > 0) continue;
          if (auto bytes = store.raw_bytes(key); !bytes.empty())
            bytes[0] ^= 0xff;
        }
      }
      return;
    }
    case Plant::error:
      fw.read(0, fw.image().spec().size_bytes, bs,
              [](dk::Result<std::vector<std::uint8_t>>) {});
      break;
    case Plant::hang: {
      const std::vector<int> acting =
          fw.cluster().acting_set(fw.image().spec().pool, fw.image().oid_of(0));
      fw.cluster().crash_osd(acting.front());
      fw.write(0, 0, std::vector<std::uint8_t>(bs, 0), [](std::int32_t) {});
      break;
    }
  }
  s.sim.run();
}

double quantile_us(const dk::LatencyHistogram& h, double p) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  // Value of the sample at 1-based rank r, as the bucket's upper bound.
  auto at_rank = [&](std::uint64_t r) {
    return h.percentile(100.0 * static_cast<double>(r) /
                        static_cast<double>(n));
  };
  const double rank = std::clamp(p / 100.0 * static_cast<double>(n), 1.0,
                                 static_cast<double>(n));
  const auto r = static_cast<std::uint64_t>(std::ceil(rank));
  const dk::Nanos upper = at_rank(r);
  // Ranks [first, last] share r's bucket; at_rank is non-decreasing.
  std::uint64_t lo = 1, hi = r;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < upper)
      lo = mid + 1;
    else
      hi = mid;
  }
  const std::uint64_t first = lo;
  lo = r;
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (at_rank(mid) > upper)
      hi = mid - 1;
    else
      lo = mid;
  }
  const std::uint64_t last = lo;
  // The bucket starts after the previous occupied bucket's upper bound.
  const double lower = first > 1 ? static_cast<double>(at_rank(first - 1))
                                 : static_cast<double>(h.min());
  const double frac = (rank - static_cast<double>(first - 1)) /
                      static_cast<double>(last - first + 1);
  const double v = lower + (static_cast<double>(upper) - lower) *
                               std::clamp(frac, 0.0, 1.0);
  return v / static_cast<double>(dk::kMicrosecond);
}

void count_allocations(bool on) { t_counting = on; }
std::uint64_t allocations() { return t_allocations; }

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double machine_speed() {
  // Time of kReferenceIters iterations on an unloaded 4-vCPU Xeon container.
  constexpr double kNominalSeconds = 0.015;
  constexpr int kReferenceIters = 1500;
  // The kinds of work the simulator does: byte-wise RNG fill and table
  // lookups (pattern generation, GF arithmetic), random 4 KiB copies out of
  // a pool larger than L2 (object stores), ordered-map churn (op maps).
  static const std::vector<std::uint8_t> pool(16 * MiB, 1);
  std::array<std::uint8_t, 256> table{};
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<std::uint8_t>(i * 7 + 3);
  std::vector<std::uint8_t> buf(4096);
  std::map<std::uint64_t, std::uint64_t> churn;
  dk::Rng rng(0x5eed);
  std::uint64_t acc = 0;
  const double t0 = wall_seconds();
  for (int i = 0; i < kReferenceIters; ++i) {
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next());
    for (const std::uint8_t b : buf) acc += table[b];
    const std::uint64_t page = rng.below(pool.size() / buf.size());
    std::memcpy(buf.data(), pool.data() + page * buf.size(), buf.size());
    churn[rng.below(1 << 14)] = acc;
    if (auto it = churn.lower_bound(rng.below(1 << 14)); it != churn.end())
      churn.erase(it);
  }
  const double elapsed = wall_seconds() - t0;
  g_reference_sink = acc + churn.size();
  return kNominalSeconds / elapsed;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
