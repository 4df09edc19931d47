"""dklint command line.

    python3 tools/dklint [paths...]          # analyze (default: src/)
    python3 tools/dklint --format=json ...   # machine-readable findings
    python3 tools/dklint --backend=textual   # force a backend
    python3 tools/dklint --list-checks       # print the catalog
    python3 tools/dklint --write-baseline    # regenerate the baseline

Exit codes: 0 clean, 1 findings (after suppressions and baseline), 2 usage
or backend error. ``--backend=auto`` (the default) prefers the libclang AST
backend when the bindings import and a libclang loads, else falls back to
the textual backend — both implement the identical check catalog, pinned by
tests/lint_fixtures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import baseline as baseline_mod
import catalog
import textual
from cpp_source import SourceFile, parse_suppressions

EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="dklint",
        description="determinism / hot-path / threading linter",
    )
    p.add_argument("paths", nargs="*", help="files or directories "
                   "(default: src/ under --root)")
    p.add_argument("--root", default=".", help="repository root; findings "
                   "are reported relative to it")
    p.add_argument("--compdb", default=None, help="directory holding "
                   "compile_commands.json (default: <root>/build)")
    p.add_argument("--backend", choices=("auto", "clang", "textual"),
                   default="auto")
    p.add_argument("--baseline", default=None, help="baseline JSON "
                   "(default: <root>/tools/dklint/baseline.json)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fixture-mode", action="store_true",
                   help="honor '// dklint-fixture-as:' virtual paths for "
                   "scope-sensitive checks")
    p.add_argument("--list-checks", action="store_true")
    p.add_argument("--write-baseline", action="store_true",
                   help="rewrite the baseline from current findings")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include allow()-ed findings in the report")
    args = p.parse_args(argv)

    if args.list_checks:
        for check, desc in sorted(catalog.CHECKS.items()):
            print(f"{check}  {desc}")
        return 0

    root = os.path.abspath(args.root)
    baseline_path = args.baseline or os.path.join(
        root, "tools", "dklint", "baseline.json"
    )
    try:
        files = _collect(root, args.paths, args.fixture_mode)
    except OSError as e:
        print(f"dklint: {e}", file=sys.stderr)
        return 2
    if not files:
        print("dklint: no input files", file=sys.stderr)
        return 2

    backend, findings, note = _run_backend(args, root, files)
    if backend is None:
        print(f"dklint: {note}", file=sys.stderr)
        return 2

    # Collapse duplicates on one (check, path, line): both backends then
    # agree even when one sees two tokens (std::lock_guard<std::mutex>)
    # where the other sees a single declaration.
    seen: set[tuple[str, str, int]] = set()
    deduped = []
    for f in findings:
        key = (f.check, f.path, f.line)
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    findings = deduped

    # Suppressions apply identically for either backend.
    all_findings: list[catalog.Finding] = []
    by_path = {src.path: src for src, _ in files}
    supp = {path: parse_suppressions(src) for path, src in by_path.items()}
    for f in findings:
        s = supp.get(f.path)
        if s is not None and s.covers(f.check, f.line):
            f = catalog.Finding(f.path, f.line, f.check, f.message,
                                suppressed=True)
        all_findings.append(f)
    for s in supp.values():
        all_findings.extend(s.malformed)
    all_findings.sort()

    try:
        entries = baseline_mod.load(baseline_path)
    except (ValueError, json.JSONDecodeError) as e:
        print(f"dklint: bad baseline: {e}", file=sys.stderr)
        return 2
    all_findings = baseline_mod.apply(all_findings, entries, root)

    if args.write_baseline:
        baseline_mod.write(baseline_path, all_findings, root)
        print(f"dklint: baseline written to {baseline_path}")
        return 0

    active = [f for f in all_findings if not f.suppressed and not f.baselined]
    shown = all_findings if args.show_suppressed else active
    if args.format == "json":
        print(json.dumps({
            "backend": backend,
            "note": note,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "check": f.check,
                    "message": f.message,
                    "suppressed": f.suppressed,
                    "baselined": f.baselined,
                }
                for f in shown
            ],
            "counts": {
                "active": len(active),
                "suppressed": sum(1 for f in all_findings if f.suppressed),
                "baselined": sum(1 for f in all_findings if f.baselined),
            },
        }, indent=2))
    else:
        for f in shown:
            tag = " [suppressed]" if f.suppressed else (
                " [baseline]" if f.baselined else "")
            print(f.render() + tag)
        n = len(active)
        print(f"dklint[{backend}]: {n} finding{'s' if n != 1 else ''} in "
              f"{len(files)} files"
              + (f" ({note})" if note else ""))
    return 1 if active else 0


def _run_backend(args, root: str, files):
    """Returns (backend_name | None, findings, note)."""
    import clangast

    choice = args.backend
    note = ""
    if choice in ("auto", "clang"):
        reason = clangast.probe()
        if reason is None:
            compdb = args.compdb or os.path.join(root, "build")
            try:
                return "clang", clangast.analyze(files, compdb, root), note
            except Exception as e:  # noqa: BLE001 - fall back cleanly
                if choice == "clang":
                    return None, [], f"clang backend failed: {e}"
                note = f"clang backend failed ({e}); fell back to textual"
        elif choice == "clang":
            return None, [], f"clang backend unavailable: {reason}"
        else:
            note = f"libclang unavailable ({reason.splitlines()[0]}); " \
                   "using textual backend"
    return "textual", textual.analyze(files), note


def _collect(root: str, paths: list[str], fixture_mode: bool):
    """(SourceFile, scope_path) pairs for every C++ file under `paths`."""
    targets: list[str] = []
    for raw in paths or [os.path.join(root, "src")]:
        ap = raw if os.path.isabs(raw) else os.path.join(root, raw)
        if os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(EXTENSIONS):
                        targets.append(os.path.join(dirpath, name))
        elif os.path.isfile(ap):
            targets.append(ap)
        else:
            raise OSError(f"no such file or directory: {raw}")
    files = []
    for ap in targets:
        with open(ap, encoding="utf-8", errors="replace") as f:
            text = f.read()
        rel = os.path.relpath(ap, root).replace(os.sep, "/")
        src = SourceFile(rel, text)
        scope = rel
        if fixture_mode:
            virt = src.fixture_virtual_path()
            if virt is not None:
                scope = virt
        files.append((src, scope))
    return files


if __name__ == "__main__":
    sys.exit(main())
