#!/usr/bin/env bash
# Regenerate the deterministic (fixed-seed, simulated-time) bench artifacts:
# bench_output.txt, one captured run of every deterministic bench binary in
# a stable order, and BENCH_rebuild_storm.json. The wall-clock benches are
# excluded on purpose — they measure real CPU time and are not reproducible
# across machines: the google-benchmark microbenches (micro_crc32c,
# micro_crush, micro_gf_rs, micro_rings) and micro_simspeed, whose committed
# BENCH_simspeed.json is rewritten only by running it explicitly:
#   build/bench/micro_simspeed BENCH_simspeed.json
#
# Usage: tools/run_benches.sh [build-dir] [output-file]
# Defaults: build/ and bench_output.txt at the repo root. Re-running must
# produce byte-identical files; CI and EXPERIMENTS.md rely on that.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_file="${2:-${repo_root}/bench_output.txt}"

benches=(
  table1_kernel_profile
  table2_latency
  table3_resources
  fig3_sw_baseline_replication
  fig4_sw_baseline_ec
  fig6_hw_replication_throughput
  fig7_hw_replication_kiops
  fig8_hw_ec_throughput
  fig9_hw_ec_kiops
  realworld_olap_oltp
  ablation_uring
  ablation_dmq_bypass
  ablation_fanout
  ablation_dfx_reconfig
  ablation_bucket_kernels
  ablation_recovery
  ablation_blockstore
  micro_api_overhead
)

for b in "${benches[@]}" storm_rebuild; do
  if [[ ! -x "${build_dir}/bench/${b}" ]]; then
    echo "missing ${build_dir}/bench/${b} — build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

: > "${out_file}"
for b in "${benches[@]}"; do
  {
    echo "################################################################"
    echo "### ${b}"
    echo "################################################################"
    "${build_dir}/bench/${b}"
    echo
  } >> "${out_file}"
done

echo "wrote ${out_file} ($(wc -l < "${out_file}") lines)"

# Rebuild-storm bench: deterministic (fixed seed, simulated time) but armed
# (background recovery on), so it writes BENCH_rebuild_storm.json rather
# than bench_output.txt — the background-off log stays byte-identical.
"${build_dir}/bench/storm_rebuild" "${repo_root}/BENCH_rebuild_storm.json"
