#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json at the root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring program from the checkout's own sources (CMake,
Release, into .bench_build/perfbench), runs one workload in its own
process, checks that the metrics it printed are exactly the ones
BENCHMARK.json names for this mode, with the same units, and passes its
output through. The last line of standard output is the JSON result.
Build logs and progress go to standard error. --plant (self-test only)
feeds the correctness gate a planted failure.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_call(cmd):
    # Build output goes to standard error so standard output stays clean.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(map(str, cmd)))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--plant", choices=("corrupt", "error", "hang"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    exe = build()

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant:
        cmd += ["--plant", args.plant]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"measuring program exited with {proc.returncode}")

    result = json.loads(lines[-1])
    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json {section}: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
