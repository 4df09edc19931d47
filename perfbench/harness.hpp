// Shared pieces of the benchmark's measuring program: the workload table,
// stack set-up (Framework construction plus prefill), the post-run verify
// pass, the correctness gate, registry snapshots, latency quantiles, the
// allocation counter and result printing. Everything here drives the
// simulator through its public API; nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "core/framework.hpp"
#include "sim/simulator.hpp"
#include "workload/fio.hpp"

namespace perfbench {

/// One workload: a seeded, closed-loop fio job on one stack. README.md in
/// this directory gives the reason for each.
struct Workload {
  std::string_view name;
  dk::core::VariantKind variant;
  dk::core::PoolMode pool;
  std::uint64_t image_bytes;
  std::uint64_t bs;
  dk::workload::RwMode rw;
  bool inline_verify;     // fio verify on every read of the measured phase
  bool durable;           // integrity and blockstore armed
  dk::Nanos sim_runtime;  // simulated length of one measured fio run
  std::size_t peel_ops;   // ops per pass at the lower entry points (traced)
};

inline constexpr unsigned kIodepth = 32;
inline constexpr unsigned kRwmixRead = 70;  // % reads in rand_rw

/// nullptr when `name` names no workload.
const Workload* find_workload(std::string_view name);

/// The measured fio job of `w`.
dk::workload::FioJobSpec job_spec(const Workload& w, std::uint64_t seed);

/// A simulator and the Framework it drives (the framework is destroyed
/// first).
struct Stack {
  dk::sim::Simulator sim;
  std::unique_ptr<dk::core::Framework> fw;
};

/// Builds the workload's stack and prefills the whole image with fio's
/// verify pattern through FioEngine's own prefill. This is the set-up that
/// setup_s times.
std::unique_ptr<Stack> set_up(const Workload& w, std::uint64_t seed);

/// Reads the whole image back through the same stack (sequential fio reads
/// with verify on). Returns the number of blocks that mismatched or were
/// never read back.
std::uint64_t verify_image(Stack& s, const Workload& w, std::uint64_t seed);

/// Counter values, histogram (count, sum) pairs and simulator/client totals
/// at one instant, so that a phase is measured as a difference.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;
  std::uint64_t events = 0;
  std::uint64_t bucket_descents = 0;
  std::uint64_t item_comparisons = 0;
};

Snapshot snapshot(dk::core::Framework& fw);
std::uint64_t counter_delta(const Snapshot& a, const Snapshot& b,
                            const std::string& name);
/// Mean, in microseconds, of the samples histogram `name` gained between
/// `a` and `b`; 0 when it gained none.
double hist_mean_us(const Snapshot& a, const Snapshot& b,
                    const std::string& name);

/// I/Os the framework accepted and completed between two snapshots.
struct IoTally {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  /// Error completions plus I/Os that never completed.
  std::uint64_t failed() const {
    return errors + (attempted > completed ? attempted - completed : 0);
  }
};
IoTally tally(const Snapshot& a, const Snapshot& b);

/// The modeled result of one fio run, plus the counts that must repeat
/// exactly with it for a given seed.
struct ModelResult {
  std::uint64_t samples = 0;
  double kiops = 0;
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  std::uint64_t completions = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t osd_ops = 0;

  bool operator==(const ModelResult&) const = default;
};
ModelResult model_of(const dk::workload::FioResult& r, const Snapshot& a,
                     const Snapshot& b);

/// Correctness gate for a drained framework. Appends one line per problem:
/// validator not quiescent, an in-flight gauge left non-zero, or stage
/// means that do not sum to stage.end_to_end.
void check_drained(dk::core::Framework& fw, std::vector<std::string>& problems);

/// Failures the benchmark's self-test plants to prove the gate trips.
enum class Plant { none, corrupt, error, hang };

/// Plants `p` on a drained stack, before its verify pass:
///   corrupt — flips the image's first byte in every stored copy or shard;
///   error   — reads past the end of the image (an error completion);
///   hang    — crashes the primary OSD of the first object, then writes to
///             that object (the write never completes).
void plant_failure(Stack& s, Plant p);

/// Latency quantile `p` (0..100) in microseconds, interpolated linearly
/// inside the histogram bucket that holds it (the histogram alone reports
/// the bucket's upper bound, which hides shifts smaller than a bucket).
double quantile_us(const dk::LatencyHistogram& h, double p);

/// Heap allocations this thread made while counting was on (the benchmark
/// binary replaces the global operator new).
void count_allocations(bool on);
std::uint64_t allocations();

double wall_seconds();

/// How fast the machine runs right now, relative to an unloaded 4-vCPU Xeon
/// container: the nominal time of a fixed reference kernel over its time
/// measured now (about 1; below 1 while other tenants slow the machine).
/// The kernel is independent of src/, so a faster simulator does not move
/// it, and it takes about 15 ms.
double machine_speed();
double median(std::vector<double> v);
double peak_rss_mib();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result object: the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// The traced run (--trace 1); returns the process exit code.
int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               Plant plant);

}  // namespace perfbench
