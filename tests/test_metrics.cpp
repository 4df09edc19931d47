// Tests for the observability layer: MetricsRegistry (counters, gauges,
// histogram metrics, JSON export), LatencyHistogram percentile edge cases,
// StageTrace semantics, TraceCollector aggregation, and an end-to-end
// framework run asserting a traced request's stage timestamps are monotonic.
#include <gtest/gtest.h>

#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/framework.hpp"

namespace dk {
namespace {

// ---------------------------------------------------------------------------
// Counters / gauges

TEST(Gauge, AddSubSetReset) {
  Gauge g;
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableReference) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.inc(3);
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.find_counter("x"), &a);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);  // name spaces are per-kind
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  HistogramMetric& h = reg.histogram("h");
  c.inc(9);
  g.set(4);
  h.record(100);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  // Cached handles stay valid and usable after reset.
  c.inc();
  EXPECT_EQ(reg.find_counter("c")->value(), 1u);
  EXPECT_EQ(reg.counter_names(), std::vector<std::string>{"c"});
  EXPECT_EQ(reg.gauge_names(), std::vector<std::string>{"g"});
  EXPECT_EQ(reg.histogram_names(), std::vector<std::string>{"h"});
}

// ---------------------------------------------------------------------------
// Histograms

TEST(LatencyHistogram, PercentileOfEmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SingleSampleEveryPercentileIsThatSample) {
  LatencyHistogram h;
  h.record(us(83));
  for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.percentile(p), us(83)) << "p=" << p;
  }
  EXPECT_EQ(h.min(), us(83));
  EXPECT_EQ(h.max(), us(83));
}

TEST(LatencyHistogram, PercentilesBoundedRelativeError) {
  LatencyHistogram h(32);
  for (int i = 1; i <= 1000; ++i) h.record(i * 1000);  // 1us .. 1ms
  // Bucket upper bounds: answer must be >= exact percentile and within the
  // histogram's ~3% relative error plus one bucket.
  const Nanos p50 = h.p50();
  EXPECT_GE(p50, 500 * 1000);
  EXPECT_LE(p50, static_cast<Nanos>(500 * 1000 * 1.05));
  const Nanos p99 = h.p99();
  EXPECT_GE(p99, 990 * 1000);
  EXPECT_LE(p99, static_cast<Nanos>(990 * 1000 * 1.05));
  EXPECT_EQ(h.percentile(100.0), h.max());
}

TEST(LatencyHistogram, MergeSameGeometryAddsCounts) {
  LatencyHistogram a, b;
  a.record_n(us(10), 10);
  b.record_n(us(1000), 30);
  a.merge(b);
  EXPECT_EQ(a.count(), 40u);
  EXPECT_EQ(a.min(), us(10));
  EXPECT_EQ(a.max(), us(1000));
  // 30 of 40 samples sit at 1ms: p95 must land in the upper population.
  EXPECT_GE(a.p95(), us(1000));
}

TEST(LatencyHistogram, MergeAcrossGeometriesKeepsCountAndOrder) {
  // Mismatched sub-bucket resolution takes the lossy re-record path; the
  // total count must be preserved and percentiles stay ordered.
  LatencyHistogram coarse(8), fine(64);
  for (int i = 0; i < 100; ++i) fine.record(us(50) + i);
  coarse.record_n(us(2), 50);
  coarse.merge(fine);
  EXPECT_EQ(coarse.count(), 150u);
  EXPECT_LE(coarse.p50(), coarse.p95());
  EXPECT_LE(coarse.p95(), coarse.p99());
}

TEST(HistogramMetric, MergeAndSnapshot) {
  HistogramMetric m;
  m.record(us(5));
  LatencyHistogram side;
  side.record_n(us(7), 3);
  m.merge(side);
  EXPECT_EQ(m.count(), 4u);
  LatencyHistogram snap = m.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  m.reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(snap.count(), 4u);  // snapshot is an independent copy
}

// ---------------------------------------------------------------------------
// JSON export

TEST(MetricsRegistry, JsonShapeContainsAllSectionsAndFields) {
  MetricsRegistry reg;
  reg.counter("io.writes").inc(3);
  reg.gauge("io.inflight").set(2);
  reg.histogram("stage.end_to_end").record(us(42));
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"io.writes\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"io.inflight\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"stage.end_to_end\":{"), std::string::npos);
  for (const char* field :
       {"\"count\":1", "\"min_ns\":", "\"max_ns\":", "\"mean_ns\":",
        "\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistry, JsonEscapesMetricNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name\\with\ncontrol").inc();
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\ncontrol"), std::string::npos);
}

TEST(MetricsRegistry, EmptyRegistryStillWellFormed) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

// ---------------------------------------------------------------------------
// Stage traces

TEST(StageTrace, MarkHasAtAndTotal) {
  StageTrace t;
  EXPECT_EQ(t.marked(), 0u);
  EXPECT_FALSE(t.has(Stage::submit));
  EXPECT_EQ(t.at(Stage::submit), -1);
  t.mark(Stage::submit, 100);
  t.mark(Stage::complete, 900);
  EXPECT_TRUE(t.has(Stage::submit));
  EXPECT_EQ(t.at(Stage::complete), 900);
  EXPECT_EQ(t.marked(), 2u);
  EXPECT_EQ(t.total(), 800);
  t.reset();
  EXPECT_EQ(t.marked(), 0u);
  EXPECT_EQ(t.total(), 0);
}

TEST(StageTrace, FirstMarkWinsUnderRequestSplitting) {
  // A split bio's fragments each pass blk_enter; the trace must keep the
  // earliest timestamp so the per-stage deltas stay meaningful.
  StageTrace t;
  t.mark(Stage::blk_enter, 500);
  t.mark(Stage::blk_enter, 700);
  EXPECT_EQ(t.at(Stage::blk_enter), 500);
}

TEST(StageTrace, MonotonicDetectsOutOfOrderStamps) {
  StageTrace ok;
  ok.mark(Stage::submit, 10);
  ok.mark(Stage::blk_enter, 10);  // equal timestamps are allowed (same tick)
  ok.mark(Stage::complete, 30);
  EXPECT_TRUE(ok.monotonic());

  StageTrace bad;
  bad.mark(Stage::submit, 50);
  bad.mark(Stage::rados_issue, 20);
  EXPECT_FALSE(bad.monotonic());
}

TEST(StageTrace, StageNamesCoverAllStages) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_FALSE(stage_name(static_cast<Stage>(i)).empty()) << i;
  }
  EXPECT_EQ(stage_name(Stage::submit), "submit");
  EXPECT_EQ(stage_name(Stage::complete), "complete");
}

TEST(TraceCollector, ProducesTransitionAndEndToEndHistograms) {
  MetricsRegistry reg;
  TraceCollector tc(reg);
  StageTrace t;
  t.mark(Stage::submit, 0);
  t.mark(Stage::sq_dispatch, 10);
  // blk_enter skipped: the collector must bridge the gap.
  t.mark(Stage::driver_dispatch, 40);
  t.mark(Stage::complete, 100);
  tc.collect(t);
  EXPECT_EQ(tc.collected(), 1u);

  const HistogramMetric* hop = reg.find_histogram("stage.submit_to_sq_dispatch");
  ASSERT_NE(hop, nullptr);
  EXPECT_EQ(hop->count(), 1u);
  const HistogramMetric* gap =
      reg.find_histogram("stage.sq_dispatch_to_driver_dispatch");
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->snapshot().max(), 30);
  const HistogramMetric* e2e = reg.find_histogram("stage.end_to_end");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->snapshot().max(), 100);
  EXPECT_EQ(reg.find_histogram("stage.blk_enter_to_driver_dispatch"), nullptr);
}

TEST(TraceCollector, IgnoresTraceWithoutBothEndpointsForEndToEnd) {
  MetricsRegistry reg;
  TraceCollector tc(reg);
  StageTrace t;
  t.mark(Stage::submit, 0);
  t.mark(Stage::sq_dispatch, 5);
  tc.collect(t);
  const HistogramMetric* e2e = reg.find_histogram("stage.end_to_end");
  EXPECT_TRUE(e2e == nullptr || e2e->count() == 0);
  EXPECT_EQ(reg.find_histogram("stage.submit_to_sq_dispatch")->count(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced request through the full DeLiBA-K stack

TEST(FrameworkTracing, StageTimestampsAreMonotonicAlongARequest) {
  sim::Simulator sim;
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.image_size = 64 * MiB;
  core::Framework fw(sim, cfg);

  std::vector<std::uint8_t> data(4096, 0xa5);
  std::int32_t wres = 0;
  fw.write(0, 0, data, [&](std::int32_t r) { wres = r; });
  sim.run();
  ASSERT_EQ(wres, 4096);

  const StageTrace& t = fw.last_trace();
  EXPECT_TRUE(t.monotonic());
  EXPECT_GE(t.marked(), 5u);  // covers >= 4 distinct pipeline transitions
  EXPECT_TRUE(t.has(Stage::submit));
  EXPECT_TRUE(t.has(Stage::sq_dispatch));
  EXPECT_TRUE(t.has(Stage::blk_enter));
  EXPECT_TRUE(t.has(Stage::driver_dispatch));
  EXPECT_TRUE(t.has(Stage::rados_issue));
  EXPECT_TRUE(t.has(Stage::remote_complete));
  EXPECT_TRUE(t.has(Stage::complete));
  EXPECT_GT(t.total(), 0);
}

TEST(FrameworkTracing, RegistryAccumulatesStageHistogramsAndCounters) {
  sim::Simulator sim;
  core::FrameworkConfig cfg;
  cfg.variant = core::VariantKind::delibak;
  cfg.image_size = 64 * MiB;
  core::Framework fw(sim, cfg);

  constexpr int kIos = 8;
  int done = 0;
  for (int i = 0; i < kIos; ++i) {
    fw.write(0, static_cast<std::uint64_t>(i) * 4096,
             std::vector<std::uint8_t>(4096, 0x5a),
             [&](std::int32_t r) {
               EXPECT_EQ(r, 4096);
               ++done;
             });
  }
  sim.run();
  ASSERT_EQ(done, kIos);

  const MetricsRegistry& reg = fw.metrics();
  EXPECT_EQ(reg.find_counter("io.writes")->value(), kIos);
  EXPECT_EQ(reg.find_counter("io.completions")->value(), kIos);
  EXPECT_EQ(reg.find_gauge("io.inflight")->value(), 0);

  int populated_stage_hists = 0;
  for (const auto& name : reg.histogram_names()) {
    if (name.rfind("stage.", 0) == 0 &&
        reg.find_histogram(name)->count() > 0) {
      ++populated_stage_hists;
    }
  }
  EXPECT_GE(populated_stage_hists, 4);

  // The JSON export carries the per-stage breakdowns.
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"stage.end_to_end\""), std::string::npos);
  EXPECT_NE(json.find("\"stage.rados_issue_to_remote_complete\""),
            std::string::npos);
}

}  // namespace
}  // namespace dk
