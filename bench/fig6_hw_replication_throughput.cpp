// Fig 6 and Fig 7 reproduction: hardware-accelerated I/O throughput and
// KIOPS in replication mode — DeLiBA-K (D3) vs DeLiBA-1 (D1) and DeLiBA-2
// (D2) across block sizes 4k-128k, seq/rand x read/write, fio qd=32. One
// sweep feeds both figures; Fig 7 prints under its own section banner.
#include "bench_util.hpp"

int main() {
  using namespace dk;
  bench::print_header(
      "Fig 6: Replication mode, hardware-accelerated throughput [MB/s]",
      "D3 rand-write: 145 MB/s @4k (3.45x D2), 170 MB/s @8k (2.50x); "
      "seq-write: 440 MB/s @64k (2.38x), 680 MB/s @128k (2.00x)");
  const bench::FigureSweep sweep = bench::run_figure_sweep(
      core::PoolMode::replicated,
      {core::VariantKind::deliba1, core::VariantKind::deliba2,
       core::VariantKind::delibak});
  bench::print_figure(sweep, /*kiops=*/false);

  bench::print_section_banner("fig7_hw_replication_kiops");
  bench::print_header(
      "Fig 7: Replication mode, hardware-accelerated KIOPS",
      "headline: up to 3.2x IOPS improvement of D3 over D2 at small blocks");
  bench::print_figure(sweep, /*kiops=*/true);
  return 0;
}
