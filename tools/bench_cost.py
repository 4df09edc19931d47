#!/usr/bin/env python3
"""Wall-clock cost of the deterministic bench suite, per bench.

Runs every bench that tools/run_benches.sh runs (its `benches` list, then
storm_rebuild), one after another, and records for each the wall seconds,
the user and system CPU seconds and the minor page faults its process
took (resource.getrusage(RUSAGE_CHILDREN) deltas). The outputs go to
/dev/null; storm_rebuild writes its JSON to a temporary file, so the
committed artifacts are untouched.

The numbers depend on the machine and its load, so nothing gates on them.
Compare two builds by running both on one machine, back to back:

    python3 tools/bench_cost.py build-rel --label parent-abc1234
    python3 tools/bench_cost.py build-rel --label change

Each run replaces the run of the same label in the output file
(default BENCH_suite_cost.json at the repository root) and keeps the
others.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def bench_list(script: Path) -> list[str]:
    """The `benches=( ... )` array of run_benches.sh, then storm_rebuild."""
    text = script.read_text()
    match = re.search(r"^benches=\((.*?)^\)", text, re.S | re.M)
    if match is None:
        sys.exit(f"no benches=( ... ) list in {script}")
    names = [line.strip() for line in match.group(1).splitlines()]
    return [n for n in names if n and not n.startswith("#")] + [
        "storm_rebuild"
    ]


def run_one(binary: Path, args: list[str]) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run([str(binary), *args], check=True,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": round(wall, 3),
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", type=Path,
                        help="a Release build tree holding bench/")
    parser.add_argument("--label", required=True,
                        help="name of this run in the output file")
    parser.add_argument("--out", type=Path,
                        default=REPO / "BENCH_suite_cost.json")
    args = parser.parse_args()

    names = bench_list(REPO / "tools" / "run_benches.sh")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            binary = args.build_dir / "bench" / name
            if not os.access(binary, os.X_OK):
                sys.exit(f"missing {binary}: build the tree first")
            extra = []
            if name == "storm_rebuild":
                extra = [str(Path(tmp) / "storm.json")]
            row = {"bench": name, **run_one(binary, extra)}
            rows.append(row)
            print(f"{name:32s} {row['wall_s']:8.3f} s wall "
                  f"{row['user_s']:8.3f} user {row['sys_s']:8.3f} sys "
                  f"{row['minor_faults']:10d} minor faults")
    total = {key: round(sum(r[key] for r in rows), 3)
             for key in ("wall_s", "user_s", "sys_s")}
    total["minor_faults"] = sum(r["minor_faults"] for r in rows)
    print(f"{'total':32s} {total['wall_s']:8.3f} s wall "
          f"{total['user_s']:8.3f} user {total['sys_s']:8.3f} sys "
          f"{total['minor_faults']:10d} minor faults")

    doc = {"runs": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    doc["description"] = (
        "Wall-clock cost of the deterministic bench suite (the benches of "
        "tools/run_benches.sh plus storm_rebuild, run one after another), "
        "written by tools/bench_cost.py. Machine-dependent: compare runs "
        "made on one machine only.")
    run = {
        "label": args.label,
        "cpus": os.cpu_count(),
        "benches": rows,
        "total": total,
    }
    doc["runs"] = [r for r in doc.get("runs", []) if r["label"] != args.label]
    doc["runs"].append(run)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
