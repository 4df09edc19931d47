#!/usr/bin/env bash
# Regenerate bench_output.txt: one captured run of every deterministic
# (fixed-seed, simulated-time) bench binary, in a stable order. The
# google-benchmark microbenches (micro_crc32c, micro_crush, micro_gf_rs,
# micro_rings) are excluded on purpose — they measure real CPU time and are
# not reproducible across machines.
#
# Usage: tools/run_benches.sh [build-dir] [output-file]
# Defaults: build/ and bench_output.txt at the repo root. Re-running must
# produce a byte-identical file; CI and EXPERIMENTS.md rely on that.
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

for b in "${benches[@]}"; do
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

# Wall-clock simulator-speed bench: measures real events/sec, so it is NOT
# part of bench_output.txt (machine-dependent, never byte-identical). It
# writes its own JSON next to the deterministic log instead.
simspeed="${build_dir}/bench/micro_simspeed"
if [[ -x "${simspeed}" && -z "${DK_SKIP_SIMSPEED:-}" ]]; then
  simspeed_out="${3:-${repo_root}/BENCH_simspeed.json}"
  # DK_SIMSPEED_EVENTS trims the run for smoke use (CI); the committed JSON
  # is a full default-length run on the reference machine.
  if [[ -n "${DK_SIMSPEED_EVENTS:-}" ]]; then
    "${simspeed}" "${simspeed_out}" --events "${DK_SIMSPEED_EVENTS}"
  else
    "${simspeed}" "${simspeed_out}"
  fi
else
  echo "skipping BENCH_simspeed.json" >&2
fi

# Rebuild-storm bench: deterministic (fixed seed, simulated time) but armed
# (background recovery on), so it writes BENCH_rebuild_storm.json rather
# than bench_output.txt — the background-off log stays byte-identical.
# DK_SKIP_STORM=1 skips it (CI legs that only check the deterministic log).
storm="${build_dir}/bench/storm_rebuild"
if [[ -x "${storm}" && -z "${DK_SKIP_STORM:-}" ]]; then
  "${storm}" "${repo_root}/BENCH_rebuild_storm.json"
else
  echo "skipping BENCH_rebuild_storm.json" >&2
fi
