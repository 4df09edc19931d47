#include "workload/apps.hpp"

#include <algorithm>
#include <functional>
#include <vector>

namespace dk::workload {

OlapResult run_olap(core::Framework& framework, const OlapSpec& spec) {
  sim::Simulator& sim = framework.simulator();
  OlapResult result;
  const std::uint64_t table_bytes =
      std::min<std::uint64_t>(spec.table_bytes,
                              framework.image().spec().size_bytes);
  const std::uint64_t nblocks = table_bytes / kScanBlock;

  {
    // Bulk load: sequential writes, pipelined a few deep like a loader.
    const Nanos t0 = sim.now();
    std::uint64_t next = 0, done = 0;
    std::function<void()> pump = [&] {
      if (next >= nblocks) return;
      const std::uint64_t off = next++ * kScanBlock;
      framework.write(0, off,
                      std::vector<std::uint8_t>(kScanBlock,
                                                static_cast<std::uint8_t>(off >> 19)),
                      [&](std::int32_t) {
                        ++done;
                        pump();
                      });
    };
    for (unsigned p = 0; p < kScanParallelism && p < nblocks; ++p) pump();
    sim.run();
    result.load_time = sim.now() - t0;
  }

  // Full table scan: parallel sequential reads + per-block CPU. The CPU
  // work serializes on the query-execution core, overlapping with I/O.
  const Nanos t0 = sim.now();
  sim::FifoServer query_cpu(sim, 1, "olap-cpu");
  std::uint64_t next = 0;
  std::function<void()> pump = [&] {
    if (next >= nblocks) return;
    const std::uint64_t off = next++ * kScanBlock;
    framework.read(0, off, kScanBlock,
                   [&](Result<std::vector<std::uint8_t>> r) {
                     if (r.ok()) {
                       query_cpu.submit(kCpuPerBlock, [&] { pump(); });
                     } else {
                       pump();
                     }
                   });
  };
  for (unsigned p = 0; p < kScanParallelism && p < nblocks; ++p) pump();
  sim.run();
  result.scan_time = sim.now() - t0;
  result.scan_mbps = mb_per_sec(nblocks * kScanBlock, result.scan_time);
  return result;
}

// The last read's completion starts the commit, whose last write ends it.
static_assert(kReadsPerTxn > 0 && kWritesPerTxn > 0);

OltpResult run_oltp(core::Framework& framework, const OltpSpec& spec) {
  sim::Simulator& sim = framework.simulator();
  OltpResult result;
  const std::uint64_t image_bytes = framework.image().spec().size_bytes;
  const std::uint64_t pages = image_bytes / kTxnIoBytes;

  const Nanos t0 = sim.now();
  std::uint64_t remaining = spec.transactions;
  Rng rng(kOltpSeed);

  // One closed-loop driver per client connection.
  std::function<void(unsigned)> run_txn = [&](unsigned client) {
    if (remaining == 0) return;
    --remaining;
    const Nanos txn_start = sim.now();

    // Sequence the txn: reads -> think -> write(s) -> commit.
    auto state = std::make_shared<unsigned>(kReadsPerTxn);
    auto after_reads = std::make_shared<std::function<void()>>();
    *after_reads = [&, client, txn_start] {
      sim.schedule_after(kThinkTime, [&, client, txn_start] {
        auto writes_left = std::make_shared<unsigned>(kWritesPerTxn);
        for (unsigned w = 0; w < kWritesPerTxn; ++w) {
          const std::uint64_t page = rng.below(pages);
          framework.write(
              client, page * kTxnIoBytes,
              std::vector<std::uint8_t>(kTxnIoBytes, 0xCC),
              [&, client, txn_start, writes_left](std::int32_t) {
                if (--*writes_left == 0) {
                  ++result.committed;
                  result.txn_latency.record(sim.now() - txn_start);
                  run_txn(client);
                }
              });
        }
      });
    };

    for (unsigned r = 0; r < kReadsPerTxn; ++r) {
      const std::uint64_t page = rng.below(pages);
      framework.read(client, page * kTxnIoBytes, kTxnIoBytes,
                     [&, state, after_reads](Result<std::vector<std::uint8_t>>) {
                       if (--*state == 0) (*after_reads)();
                     });
    }
  };

  for (unsigned c = 0; c < spec.clients; ++c) run_txn(c);
  sim.run();
  result.elapsed = sim.now() - t0;
  return result;
}

}  // namespace dk::workload
