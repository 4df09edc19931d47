// perfbench: the measuring program behind the repository benchmark
// (BENCHMARK.json at the repository root; run.py builds and runs it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--plant corrupt|error|hang]
//
// One workload per process. --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones (traced.cpp). --plant feeds the correctness
// gate a failure it must catch (the self-test uses it). The last line of
// standard output is the JSON result; progress goes to standard error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

// Stacks set up per run; setup_s is their median.
constexpr int kSetups = 3;
// Measured fio runs per process, at least (more while --seconds lasts).
constexpr int kMinRuns = 3;

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                   Plant plant) {
  std::vector<std::string> problems;
  std::vector<double> setup_s;
  std::optional<ModelResult> first_setup_model;
  const dk::workload::FioJobSpec spec = job_spec(w, seed);

  // Raw times and rates, and the same scaled to the reference machine speed
  // measured right after each of them (see machine_speed()).
  std::vector<double> setup_raw, io_per_s_raw, io_per_s;
  std::unique_ptr<Stack> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();  // one stack alive at a time, so peak RSS is one stack's
    const double t0 = wall_seconds();
    s = set_up(w, seed);
    setup_raw.push_back(wall_seconds() - t0);
    setup_s.push_back(setup_raw.back() * machine_speed());
    if (i == 0) {
      // Determinism: the first stack's fio run must model exactly what the
      // measured stack's first run models.
      const Snapshot a = snapshot(*s->fw);
      const dk::workload::FioResult r =
          dk::workload::FioEngine(*s->fw).run(spec);
      first_setup_model = model_of(r, a, snapshot(*s->fw));
    }
  }
  std::fprintf(stderr, "perfbench: %s set up %d times\n",
               std::string(w.name).c_str(), kSetups);

  dk::workload::FioEngine engine(*s->fw);
  const Snapshot start = snapshot(*s->fw);
  ModelResult model;
  std::uint64_t inline_mismatches = 0;
  const double begin = wall_seconds();
  for (int run = 0;; ++run) {
    const Snapshot a = snapshot(*s->fw);
    const double t0 = wall_seconds();
    const dk::workload::FioResult r = engine.run(spec);
    const double t1 = wall_seconds();
    const Snapshot b = snapshot(*s->fw);
    io_per_s_raw.push_back(
        static_cast<double>(counter_delta(a, b, "io.completions")) / (t1 - t0));
    io_per_s.push_back(io_per_s_raw.back() / machine_speed());
    inline_mismatches += r.verify_errors;
    if (run == 0) model = model_of(r, a, b);
    if (run + 1 >= kMinRuns && t1 - begin >= seconds) break;
  }
  if (!(model == *first_setup_model))
    problems.push_back("model results differ between two set-ups of one seed");

  plant_failure(*s, plant);
  const std::uint64_t bad_blocks = verify_image(*s, w, seed);
  const IoTally io = tally(start, snapshot(*s->fw));
  check_drained(*s->fw, problems);
  if (dk::check_failures_total() != 0)
    problems.push_back(std::to_string(dk::check_failures_total()) +
                       " DK_CHECK failure(s)");

  const std::uint64_t failed = io.failed() + inline_mismatches + bad_blocks;
  const std::uint64_t attempted = std::max<std::uint64_t>(io.attempted, 1);
  std::printf("workload %s seed %llu: %zu measured fio runs of %.0f ms "
              "simulated\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(seed), io_per_s.size(),
              dk::to_ms(spec.runtime));
  std::printf("unscaled medians: %.1f sim I/O per s, set-up %.4f s\n",
              median(io_per_s_raw), median(setup_raw));
  std::printf("model latency: %llu samples, p50 %.3f us, p99 %.3f us, "
              "mean %.3f us\n",
              static_cast<unsigned long long>(model.samples), model.p50_us,
              model.p99_us, model.mean_us);
  std::printf("io_fail_frac %.6g (%llu failed of %llu attempted; verify "
              "pass %llu bad blocks, inline verify %llu mismatches)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(bad_blocks),
              static_cast<unsigned long long>(inline_mismatches));
  for (const std::string& p : problems) std::printf("GATE: %s\n", p.c_str());

  print_result(problems.empty() && failed == 0, attempted, failed,
               {{"sim_io_per_s", median(io_per_s), "1/s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mib", peak_rss_mib(), "MiB"},
                {"model_kiops", model.kiops, "kIOPS"},
                {"model_lat_p50_us", model.p50_us, "us"},
                {"model_lat_p99_us", model.p99_us, "us"}});
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--plant corrupt|error|hang]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Workload* w = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  Plant plant = Plant::none;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      w = find_workload(value);
      if (w == nullptr) return usage("unknown workload");
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--plant") {
      const std::string_view v = value;
      if (v == "corrupt") plant = Plant::corrupt;
      else if (v == "error") plant = Plant::error;
      else if (v == "hang") plant = Plant::hang;
      else return usage("unknown plant");
    } else {
      return usage("unknown argument");
    }
  }
  if (argc % 2 == 0) return usage("arguments come in pairs");
  if (w == nullptr || !seed || !(seconds > 0.0) || (trace != 0 && trace != 1))
    return usage("--workload, --seed, --seconds and --trace are required");
  return trace == 1 ? run_traced(*w, *seed, seconds, plant)
                    : run_end_to_end(*w, *seed, seconds, plant);
}
