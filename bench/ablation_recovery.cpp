// Extension bench (beyond the paper's figures): recovery/backfill behaviour
// after an OSD failure — plan size, recovery time vs parallelism, and scrub
// verification. This exercises the cluster-resize machinery that motivates
// DFX reconfiguration in §IV.C.
#include <iostream>

#include "bench_util.hpp"
#include "rados/recovery.hpp"

int main() {
  using namespace dk;

  bench::print_header(
      "Extension: OSD failure -> backfill recovery (replicated pool, size 2)",
      "not a paper figure; exercises the §IV.C cluster-resize scenario");

  TextTable t({"max parallel copies", "moves", "GiB moved", "recovery [ms]",
               "scrub missing after"});
  for (unsigned parallel : {1u, 4u, 16u}) {
    sim::Simulator sim;
    rados::Cluster cluster(sim);
    rados::RadosClient client(cluster);
    const int pool = cluster.create_replicated_pool(2);
    // 200 x 512 kB objects.
    for (std::uint64_t oid = 0; oid < 200; ++oid) {
      client.write(pool, oid, 0, std::vector<std::uint8_t>(512 * 1024, 0x5a),
                   rados::WriteStrategy::primary_copy, [](Status) {});
    }
    sim.run();

    cluster.set_osd_out(2, true);
    cluster.set_osd_down(2, true);

    rados::RecoveryManager rec(cluster);
    auto plan = rec.plan(pool);
    const Nanos t0 = sim.now();
    rec.execute(plan, {.max_parallel = parallel}, [] {});
    sim.run();
    const Nanos elapsed = sim.now() - t0;
    auto report = rec.scrub(pool);
    t.add_row({std::to_string(parallel), std::to_string(plan.moves.size()),
               TextTable::num(static_cast<double>(plan.total_bytes()) / GiB, 3),
               TextTable::num(to_ms(elapsed), 1),
               std::to_string(report.missing)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: recovery time scales down with copy "
               "parallelism until OSD service or the inter-server link "
               "saturates; scrub reports full redundancy restored.\n";
  return 0;
}
