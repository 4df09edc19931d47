#!/usr/bin/env python3
"""Fixture runner pinning dklint's findings exactly.

Every fixture in tests/lint_fixtures/ encodes its expected findings inline:

    ... violating code ...        // expect: DK-D001
    ... suppressed violation ...  // expect-suppressed: DK-D002

The runner executes dklint over the whole corpus in --fixture-mode and
asserts the emitted (path, line, check) multiset — active and suppressed —
equals the expectations, in both directions: a missed finding and a spurious
finding are equally fatal. A second invocation pins the baseline machinery
(tests/lint_fixtures/baseline.json grandfathers baseline_case.cpp).

Backend selection follows DKLINT_BACKEND (default: auto). Both backends are
meant to produce identical results on this corpus, but only the textual
backend gates: CI runs the clang backend with continue-on-error, so a
divergence there is reported, not enforced.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")
DKLINT = os.path.join(ROOT, "tools", "dklint")
BACKEND = os.environ.get("DKLINT_BACKEND", "auto")

EXPECT = re.compile(
    r"(?://|\()\s*expect(-suppressed)?:\s*([A-Z0-9][A-Z0-9\-, ]*)"
)


def run_dklint(*extra: str) -> tuple[int, dict]:
    cmd = [
        sys.executable,
        DKLINT,
        "--root", ROOT,
        "--backend", BACKEND,
        "--format", "json",
        "--fixture-mode",
        "--show-suppressed",
        *extra,
        "tests/lint_fixtures",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode == 2:
        raise SystemExit(f"dklint errored:\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def expectations() -> tuple[set, set]:
    active, suppressed = set(), set()
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith((".cpp", ".hpp")):
            continue
        rel = f"tests/lint_fixtures/{name}"
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                m = EXPECT.search(line)
                if m is None:
                    continue
                dest = suppressed if m.group(1) else active
                for check in m.group(2).split(","):
                    check = check.strip()
                    if check:
                        dest.add((rel, lineno, check))
    return active, suppressed


def main() -> int:
    failures: list[str] = []

    exit_code, report = run_dklint()
    got_active = {
        (f["path"], f["line"], f["check"])
        for f in report["findings"]
        if not f["suppressed"] and not f["baselined"]
    }
    got_suppressed = {
        (f["path"], f["line"], f["check"])
        for f in report["findings"]
        if f["suppressed"]
    }
    want_active, want_suppressed = expectations()

    for missing in sorted(want_active - got_active):
        failures.append(f"MISSING finding: {missing}")
    for spurious in sorted(got_active - want_active):
        failures.append(f"SPURIOUS finding: {spurious}")
    for missing in sorted(want_suppressed - got_suppressed):
        failures.append(f"MISSING suppressed finding: {missing}")
    for spurious in sorted(got_suppressed - want_suppressed):
        failures.append(f"SPURIOUS suppressed finding: {spurious}")
    if want_active and exit_code != 1:
        failures.append(f"exit code {exit_code}, want 1 (active findings)")

    # Baseline machinery: with the fixture baseline, baseline_case.cpp's
    # DK-D002 must be tagged baselined (and not active).
    exit_code_b, report_b = run_dklint(
        "--baseline", os.path.join(FIXTURES, "baseline.json")
    )
    base_path = "tests/lint_fixtures/baseline_case.cpp"
    baselined = {
        (f["path"], f["check"])
        for f in report_b["findings"]
        if f["baselined"]
    }
    if (base_path, "DK-D002") not in baselined:
        failures.append("baseline.json did not grandfather baseline_case")
    still_active = {
        (f["path"], f["check"])
        for f in report_b["findings"]
        if not f["suppressed"] and not f["baselined"]
    }
    if (base_path, "DK-D002") in still_active:
        failures.append("grandfathered finding still reported active")

    if failures:
        print(f"test_dklint [{report['backend']}]: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    n = len(got_active) + len(got_suppressed)
    print(f"test_dklint [{report['backend']}]: OK — {len(got_active)} "
          f"active + {len(got_suppressed)} suppressed findings matched "
          f"({n} total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
