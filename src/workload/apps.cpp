#include "workload/apps.hpp"

#include <algorithm>
#include <vector>

namespace dk::workload {

namespace {

/// One pass over the table's blocks in order with up to kScanParallelism
/// I/Os in flight: each completion issues the next block.
struct TablePass {
  core::Framework& fw;
  const std::uint64_t nblocks;
  sim::FifoServer* const query_cpu;  // the scan's query-execution core
  std::uint64_t next = 0;

  void write_next() {
    if (next >= nblocks) return;
    const std::uint64_t off = next++ * kScanBlock;
    fw.write(0, off,
             std::vector<std::uint8_t>(kScanBlock,
                                       static_cast<std::uint8_t>(off >> 19)),
             [this](std::int32_t) { write_next(); });
  }

  void read_next() {
    if (next >= nblocks) return;
    const std::uint64_t off = next++ * kScanBlock;
    fw.read(0, off, kScanBlock, [this](Result<Payload> r) {
      if (r.ok()) {
        query_cpu->submit(kCpuPerBlock, [this] { read_next(); });
      } else {
        read_next();
      }
    });
  }
};

// The last read's completion starts the commit, whose last write ends it.
static_assert(kReadsPerTxn > 0 && kWritesPerTxn > 0);

/// One closed-loop driver per client connection; a client runs one
/// transaction at a time: reads -> think -> write(s) -> commit -> next.
struct OltpClients {
  core::Framework& fw;
  std::uint64_t remaining;
  OltpResult& result;
  std::vector<unsigned> pending;  // per client: the txn's I/Os in flight
  const std::uint64_t pages = fw.image().spec().size_bytes / kTxnIoBytes;
  Rng rng{kOltpSeed};

  void begin(unsigned client) {
    if (remaining == 0) return;
    --remaining;
    const Nanos t0 = fw.simulator().now();
    pending[client] = kReadsPerTxn;
    for (unsigned r = 0; r < kReadsPerTxn; ++r) {
      const std::uint64_t page = rng.below(pages);
      fw.read(client, page * kTxnIoBytes, kTxnIoBytes,
              [this, client, t0](Result<Payload>) {
                if (--pending[client] != 0) return;
                fw.simulator().schedule_after(
                    kThinkTime, [this, client, t0] { commit(client, t0); });
              });
    }
  }

  void commit(unsigned client, Nanos t0) {
    pending[client] = kWritesPerTxn;
    for (unsigned w = 0; w < kWritesPerTxn; ++w) {
      const std::uint64_t page = rng.below(pages);
      fw.write(client, page * kTxnIoBytes,
               std::vector<std::uint8_t>(kTxnIoBytes, 0xCC),
               [this, client, t0](std::int32_t) {
                 if (--pending[client] != 0) return;
                 ++result.committed;
                 result.txn_latency.record(fw.simulator().now() - t0);
                 begin(client);
               });
    }
  }
};

}  // namespace

OlapResult run_olap(core::Framework& framework, const OlapSpec& spec) {
  sim::Simulator& sim = framework.simulator();
  OlapResult result;
  const std::uint64_t table_bytes =
      std::min<std::uint64_t>(spec.table_bytes,
                              framework.image().spec().size_bytes);
  const std::uint64_t nblocks = table_bytes / kScanBlock;

  // Bulk load: sequential writes, pipelined a few deep like a loader.
  Nanos t0 = sim.now();
  TablePass load{framework, nblocks, nullptr};
  for (unsigned p = 0; p < kScanParallelism; ++p) load.write_next();
  sim.run();
  result.load_time = sim.now() - t0;

  // Full table scan: parallel sequential reads + per-block CPU. The CPU
  // work serializes on the query-execution core, overlapping with I/O.
  t0 = sim.now();
  sim::FifoServer query_cpu(sim, 1, "olap-cpu");
  TablePass scan{framework, nblocks, &query_cpu};
  for (unsigned p = 0; p < kScanParallelism; ++p) scan.read_next();
  sim.run();
  result.scan_time = sim.now() - t0;
  result.scan_mbps = mb_per_sec(nblocks * kScanBlock, result.scan_time);
  return result;
}

OltpResult run_oltp(core::Framework& framework, const OltpSpec& spec) {
  sim::Simulator& sim = framework.simulator();
  OltpResult result;
  const Nanos t0 = sim.now();
  OltpClients clients{framework, spec.transactions, result,
                      std::vector<unsigned>(spec.clients)};
  for (unsigned c = 0; c < spec.clients; ++c) clients.begin(c);
  sim.run();
  result.elapsed = sim.now() - t0;
  return result;
}

}  // namespace dk::workload
