// Fig 8 and Fig 9 reproduction: hardware-accelerated throughput and KIOPS
// in erasure-coding mode — DeLiBA-K (D3) vs DeLiBA-2 (D2) only (DeLiBA-1
// had no EC kernels). One sweep feeds both figures; Fig 9 prints under its
// own section banner.
#include "bench_util.hpp"

int main() {
  using namespace dk;
  bench::print_header(
      "Fig 8: Erasure Coding (k=4, m=2) mode, hardware throughput [MB/s]",
      "D3 vs D2 only; D1 shipped no erasure-coding accelerators");
  const bench::FigureSweep sweep = bench::run_figure_sweep(
      core::PoolMode::erasure,
      {core::VariantKind::deliba2, core::VariantKind::delibak});
  bench::print_figure(sweep, /*kiops=*/false);

  bench::print_section_banner("fig9_hw_ec_kiops");
  bench::print_header("Fig 9: Erasure Coding (k=4, m=2) mode, KIOPS",
                      "D3 vs D2 only (no D1 EC support); EC rand-write 4k "
                      "gains mirror the replication-mode IOPS gains");
  bench::print_figure(sweep, /*kiops=*/true);
  return 0;
}
