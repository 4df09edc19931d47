#!/usr/bin/env python3
"""Fixture runner pinning dklint's findings exactly.

tests/lint_fixtures/ is a miniature repository (src/, bench/) in which each
fixture sits at the path its checks' scope needs, and encodes its expected
findings inline:

    ... violating code ...        // expect: DK-D001
    ... suppressed violation ...  // expect-suppressed: DK-D002

The runner executes dklint with the corpus as its --root and asserts the
emitted (path, line, check) set — active and suppressed — equals the
expectations, in both directions: a missed finding and a spurious finding
are equally fatal. It also fails when an expectation names a check that is
not live, or when a live check has no `expect:` line anywhere in the corpus.
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

sys.path.insert(0, DKLINT)
from catalog import CHECKS  # noqa: E402

EXPECT = re.compile(
    r"(?://|\()\s*expect(-suppressed)?:\s*([A-Z0-9][A-Z0-9\-, ]*)"
)


def run_dklint() -> tuple[int, dict]:
    cmd = [sys.executable, DKLINT, "--root", FIXTURES, "--format", "json",
           "--show-suppressed", "src", "bench"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode == 2:
        raise SystemExit(f"dklint errored:\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def expectations() -> tuple[set, set]:
    active, suppressed = set(), set()
    for dirpath, dirnames, filenames in os.walk(FIXTURES):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, FIXTURES).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    m = EXPECT.search(line)
                    if m is None:
                        continue
                    dest = suppressed if m.group(1) else active
                    for check in m.group(2).split(","):
                        if check.strip():
                            dest.add((rel, lineno, check.strip()))
    return active, suppressed


def main() -> int:
    failures: list[str] = []

    exit_code, report = run_dklint()
    got_active = {
        (f["path"], f["line"], f["check"])
        for f in report["findings"]
        if not f["suppressed"]
    }
    got_suppressed = {
        (f["path"], f["line"], f["check"])
        for f in report["findings"]
        if f["suppressed"]
    }
    want_active, want_suppressed = expectations()

    for where in sorted(want_active | want_suppressed):
        if where[2] not in CHECKS:
            failures.append(f"expectation names a retired or unknown "
                            f"check: {where}")
    for check in sorted(set(CHECKS) - {c for _, _, c in want_active}):
        failures.append(f"live check {check} has no expect: line")
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

    if failures:
        print("test_dklint: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    n = len(got_active) + len(got_suppressed)
    print(f"test_dklint: OK — {len(got_active)} active + "
          f"{len(got_suppressed)} suppressed findings matched ({n} total) "
          f"covering {len(CHECKS)} live checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
