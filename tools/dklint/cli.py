"""dklint command line.

    python3 tools/dklint [paths...]          # analyze (default: src/)
    python3 tools/dklint --format=json ...   # machine-readable findings
    python3 tools/dklint --list-checks       # print the catalog

Exit codes: 0 clean, 1 findings (after suppressions), 2 usage error. Paths
are files or directories, absolute or relative to --root; scope-sensitive
checks (src/, src/sim, ...) and the repo-wide conventions (DK-C007's
includers, DK-C008's assignments) go by paths relative to --root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import catalog
import conventions
import textual
from cpp_source import SourceTree, parse_suppressions


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="dklint",
        description="determinism / hot-path / threading / conventions linter",
    )
    p.add_argument("paths", nargs="*", help="files or directories "
                   "(default: src/ under --root)")
    p.add_argument("--root", default=".", help="repository root; findings "
                   "are reported relative to it")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list-checks", action="store_true")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include allow()-ed findings in the report")
    args = p.parse_args(argv)

    if args.list_checks:
        for check, desc in sorted(catalog.CHECKS.items()):
            print(f"{check}  {desc}")
        return 0

    tree = SourceTree(os.path.abspath(args.root))
    files = []
    for path in args.paths or ["src"]:
        ap = os.path.join(tree.root, path)
        if not os.path.exists(ap):
            print(f"dklint: no such file or directory: {path}",
                  file=sys.stderr)
            return 2
        files.extend(tree.walk(ap))
    if not files:
        print("dklint: no input files", file=sys.stderr)
        return 2

    supp = {src.path: parse_suppressions(src) for src in files}
    findings = textual.analyze(files) + conventions.analyze(tree, files, supp)
    # One finding per (check, path, line): std::lock_guard<std::mutex> is
    # two threading tokens on one declaration.
    seen: set[tuple[str, str, int]] = set()
    all_findings: list[catalog.Finding] = []
    for f in findings:
        key = (f.check, f.path, f.line)
        if key in seen:
            continue
        seen.add(key)
        if supp[f.path].covers(f.check, f.line):
            f = catalog.Finding(f.path, f.line, f.check, f.message,
                                suppressed=True)
        all_findings.append(f)
    for s in supp.values():
        all_findings.extend(s.malformed)
    all_findings.sort()

    active = [f for f in all_findings if not f.suppressed]
    shown = all_findings if args.show_suppressed else active
    if args.format == "json":
        print(json.dumps({
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "check": f.check,
                    "message": f.message,
                    "suppressed": f.suppressed,
                }
                for f in shown
            ],
            "counts": {
                "active": len(active),
                "suppressed": len(all_findings) - len(active),
            },
        }, indent=2))
    else:
        for f in shown:
            print(f.render() + (" [suppressed]" if f.suppressed else ""))
        n = len(active)
        print(f"dklint: {n} finding{'s' if n != 1 else ''} in "
              f"{len(files)} files")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
