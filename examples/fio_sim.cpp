// fio_sim: run fio-style job files against the simulated DeLiBA stacks.
//
//   $ ./fio_sim jobs.fio          # run a job file
//   $ ./fio_sim --demo            # run a built-in demo job file
//
// Job files use fio's INI format plus two extension keys selecting the
// framework (`variant=`) and pool (`pool=`); see src/workload/jobfile.hpp.
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "core/framework.hpp"
#include "workload/jobfile.hpp"

namespace {

constexpr const char* kDemoJobfile = R"(# DeLiBA-K demo job file
[global]
bs=4k
iodepth=32
runtime=1
ramp_time=0
pool=replicated

[randwrite-d2]
rw=randwrite
variant=d2

[randwrite-d3]
rw=randwrite
variant=d3

[randread-d3-ec]
rw=randread
variant=d3
pool=ec
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace dk;

  std::string text;
  if (argc > 1 && std::string(argv[1]) != "--demo") {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  } else {
    std::cout << "(running built-in demo job file; pass a path to use your "
                 "own)\n\n";
    text = kDemoJobfile;
  }

  auto jobs = workload::parse_jobfile(text);
  if (!jobs.ok()) {
    std::cerr << "parse error: " << jobs.status().to_string() << "\n";
    return 1;
  }

  constexpr std::uint64_t kImageSize = 128 * MiB;
  for (const auto& job : *jobs) {
    if (job.spec.bs > kImageSize) {
      std::cerr << "job " << job.name << ": bs " << job.spec.bs
                << " exceeds the " << kImageSize << "-byte image\n";
      return 1;
    }
  }

  TextTable t({"job", "variant", "pool", "rw", "bs", "IOPS", "MB/s",
               "lat mean [us]", "lat p99 [us]"});
  for (const auto& job : *jobs) {
    sim::Simulator sim;
    core::FrameworkConfig cfg;
    cfg.variant = job.variant;
    cfg.pool_mode = job.pool;
    cfg.image_size = kImageSize;
    core::Framework fw(sim, cfg);
    workload::FioEngine engine(fw);
    auto r = engine.run(job.spec);
    t.add_row({job.name, std::string(core::variant_short_name(job.variant)),
               job.pool == core::PoolMode::replicated ? "replicated" : "ec",
               std::string(workload::rw_name(job.spec.rw)),
               std::to_string(job.spec.bs / 1024) + "k",
               TextTable::num(r.iops(), 0), TextTable::num(r.mbps(), 1),
               TextTable::num(r.mean_latency_us(), 1),
               TextTable::num(r.p99_latency_us(), 1)});
  }
  t.print(std::cout);
  return 0;
}
