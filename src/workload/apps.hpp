// Real-world application models: OLAP and OLTP (§III-C.1).
//
// The paper evaluates proprietary industrial OLAP/OLTP suites and reports a
// ~30% execution-time reduction for data-intensive tasks on DeLiBA-K. These
// models reproduce the I/O *signatures* of those workload classes:
//
//   OLAP — full table scans (large sequential reads, 512 kB, matching the
//   large-block-size methodology the paper cites) and bulk loads (large
//   sequential writes), with a per-batch CPU cost for predicate evaluation,
//   so the run is partially I/O-bound (the fraction the stack can improve).
//
//   OLTP — closed-loop transactions: a few small random reads (index +
//   row), one small write (redo/commit), and per-transaction CPU think
//   time; throughput in transactions/sec, latency percentiles per txn.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"

namespace dk::workload {

constexpr std::uint64_t kScanBlock = 512 * KiB;  // full-scan read size
// predicate evaluation per block (~430 MB/s per-core scan rate)
constexpr Nanos kCpuPerBlock = us(1200);
constexpr unsigned kScanParallelism = 4;  // outstanding scan reads

struct OlapSpec {
  std::uint64_t table_bytes = 64 * MiB;
};

struct OlapResult {
  Nanos load_time = 0;
  Nanos scan_time = 0;
  Nanos total() const { return load_time + scan_time; }
  double scan_mbps = 0;
};

/// Write the table (bulk load), then scan it; returns wall times.
OlapResult run_olap(core::Framework& framework, const OlapSpec& spec);

constexpr unsigned kReadsPerTxn = 3;            // index + row lookups
constexpr unsigned kWritesPerTxn = 1;           // redo log / row update
constexpr std::uint64_t kTxnIoBytes = 8 * KiB;  // page size
constexpr Nanos kThinkTime = us(250);           // txn logic CPU
constexpr std::uint64_t kOltpSeed = 99;         // page picks

struct OltpSpec {
  unsigned transactions = 500;
  unsigned clients = 4;                   // concurrent connections
};

struct OltpResult {
  Nanos elapsed = 0;
  std::uint64_t committed = 0;
  LatencyHistogram txn_latency;
  double tps() const {
    return elapsed > 0 ? static_cast<double>(committed) / to_sec(elapsed) : 0;
  }
};

/// Run the OLTP mix to completion.
OltpResult run_oltp(core::Framework& framework, const OltpSpec& spec);

}  // namespace dk::workload
