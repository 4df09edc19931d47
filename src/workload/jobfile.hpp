// fio job-file parser: a practical subset of fio's INI-style job format, so
// the paper's published fio configurations can be replayed verbatim against
// the simulated stacks.
//
// Supported keys (global or per-job section):
//   rw={read,write,randread,randwrite,randrw}   bs=<size>[k|m|g], >= 1
//   iodepth=<n>  numjobs=<n> (each 1 to 2^32 - 1)  rwmixread=<0..100>
//   runtime=<seconds>  ramp_time=<seconds>
//   verify={0,1|md5,...}  prefill={0,1}  seed=<n>
// Framework-selection extensions (not in fio):
//   variant={d2-sw,d3-sw,d1,d2,d3}  pool={replicated,ec}
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/framework.hpp"
#include "workload/fio.hpp"

namespace dk::workload {

struct ParsedJob {
  std::string name;
  FioJobSpec spec;
  core::VariantKind variant = core::VariantKind::delibak;
  core::PoolMode pool = core::PoolMode::replicated;
};

/// Parse a job-file's text. Returns one ParsedJob per non-global section,
/// with [global] settings applied as defaults.
Result<std::vector<ParsedJob>> parse_jobfile(std::string_view text);

/// Parse a size with fio suffixes: "4k" -> 4096, "1m" -> 1048576. A size
/// that does not fit in 64 bits is an error.
Result<std::uint64_t> parse_size(std::string_view token);

}  // namespace dk::workload
