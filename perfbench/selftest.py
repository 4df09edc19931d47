#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

For every workload in BENCHMARK.json it makes a very short end-to-end run
and a very short traced run, and checks that:
  * every end_to_end (resp. per_layer) name is printed with its unit and a
    finite value, and the run is correct with no failed I/O;
  * the model results repeat exactly: a second end-to-end run of the same
    seed, and the traced run's FioEngine entry, give the same model_* values.
Then it plants each failure the correctness gate must catch (corrupted
stored bytes, an error completion, an I/O that never completes) and checks
that the run is marked incorrect with at least one failed I/O.
Exits non-zero on the first failed check.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7

# end-to-end name -> traced name of the same model quantity
MODEL_PAIRS = {
    "model_kiops": "model.kiops",
    "model_lat_p50_us": "model.lat_p50_us",
    "model_lat_p99_us": "model.lat_p99_us",
}


def run(workload, trace, seconds, plant=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_metrics(result, section, label):
    for m in SPEC[section]:
        got = result["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]),
              f"{label}: {m['name']} printed in {m['unit']}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    seconds = parser.parse_args().seconds

    for w in (w["name"] for w in SPEC["workloads"]):
        e2e = run(w, 0, seconds)
        check_metrics(e2e, "end_to_end", f"{w} end-to-end")
        check(e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1,
              f"{w} end-to-end: correct, no failed I/O")
        again = run(w, 0, seconds)
        for name in MODEL_PAIRS:
            check(again["metrics"][name]["value"] == e2e["metrics"][name]["value"],
                  f"{w}: {name} repeats exactly for one seed")
        traced = run(w, 1, seconds)
        check_metrics(traced, "per_layer", f"{w} traced")
        check(traced["correct"] and traced["failed"] == 0,
              f"{w} traced: correct, no failed I/O")
        for name, traced_name in MODEL_PAIRS.items():
            check(traced["metrics"][traced_name]["value"]
                  == e2e["metrics"][name]["value"],
                  f"{w}: traced {traced_name} equals end-to-end {name}")

    target = SPEC["workloads"][0]["name"]
    for plant in ("corrupt", "error", "hang"):
        r = run(target, 0, seconds, plant)
        check(not r["correct"] and r["failed"] >= 1,
              f"{target}: planted '{plant}' trips the gate "
              f"({r['failed']} failed of {r['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
