#!/usr/bin/env python3
"""Project-specific conventions lint for src/ (and optionally tests/).

Checks that clang-tidy cannot express:

  1. no-naked-assert:   no assert()/[#include <cassert>] in src/ — invariant
                        checks must go through DK_CHECK/DK_DCHECK so release
                        builds count violations instead of compiling them out
                        (static_assert is fine: it has no runtime behaviour).
  2. pragma-once-first: every header's first preprocessor directive is
                        `#pragma once`.
  3. own-header-first:  a .cpp's first include is its own header
                        ("foo.cpp" -> "<dir>/foo.hpp"), matching the
                        include-what-you-use layering the codebase follows.
  4. include-order:     within the dk-include block ("..." includes), paths
                        are alphabetically sorted.
  5. attach-naming:     observability attach points follow the canonical
                        signatures: attach_metrics(MetricsRegistry&, ...)
                        and attach_validator(PipelineValidator&, ...), so
                        every layer wires up the same way.
  6. no-std-function-event: no `std::function` in src/sim/, on the
                        per-I/O path (src/blk/, src/uring/, src/host/,
                        src/net/, src/fpga/qdma.*, src/core/framework.*) or
                        anywhere in src/rados/ (client, OSD, cluster and
                        the recovery path) — events and completions must be
                        dk::sim::UniqueFn (EventFn is its void() case;
                        zero-alloc, move-only; see docs/PERFORMANCE.md).
                        std::function's 16-byte inline buffer heap-allocates
                        the common 24-byte capture and copies on every hop.
  7. reached-header:    every header under src/ is included by some file
                        other than its own .cpp: another file in src/, or a
                        file in bench/, examples/ or perfbench/. A module
                        that only its own tests include is wired in or
                        deleted. A header opts out with
                        `// conventions: allow(reached-header) — <reason>`;
                        a marker without a dash-led reason is itself a
                        violation.
  8. set-config-field:  every field of a struct in src/ whose name ends in
                        Config, Params or Spec is assigned by name somewhere
                        in src/, bench/, examples/, perfbench/ or tests/,
                        outside its own declaration: `x.f =`, a designated
                        initializer `.f =`, or `x.f.g =`. A value nothing
                        sets is one configuration no run exercises: make
                        it a constexpr constant beside its reader, or
                        delete it. A struct opts out with
                        `// conventions: allow(set-config-field) — <reason>`
                        in the comment block above it (a positional table
                        such as fpga::KernelSpec). Known limit: the match is
                        by field name, not by struct, so a field that shares
                        its name with a set field of another struct passes
                        (FrameworkConfig::seed did, beside ClusterConfig::seed,
                        until it became a constant).

Exit status: 0 clean, 1 violations found. Run from anywhere:

    python3 tools/check_conventions.py [--root REPO_ROOT]

`--self-test` lints the fixture tree tests/lint_fixtures/conventions/ (a
miniature src/ with known violations, expectations encoded inline as
`expect-convention: <rule>` comments) and verifies the reported
(file, line, rule) triples match exactly — the same runner discipline
tests/test_dklint.py applies to dklint.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HEADER_SUFFIXES = {".hpp", ".h"}
SOURCE_SUFFIXES = {".cpp", ".cc"}

# assert( as a whole word, not static_assert( / a comment mention.
NAKED_ASSERT = re.compile(r"(?<![_\w])assert\s*\(")
CASSERT_INCLUDE = re.compile(r"#\s*include\s*<(cassert|assert\.h)>")
DIRECTIVE = re.compile(r"^\s*#\s*(\w+)")
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
ATTACH_DECL = re.compile(r"\battach_(metrics|validator)\s*\(([^)]*)")
STD_FUNCTION = re.compile(r"\bstd\s*::\s*function\s*<")
# Paths under src/ whose callbacks must be UniqueFn (rule 6).
UNIQUE_FN_PATHS = ("sim/", "blk/", "uring/", "host/", "net/", "fpga/qdma.",
                   "core/framework.", "rados/")
# Directories whose includes make a src/ header reached (rule 7); tests/ is
# left out on purpose.
REACHING_DIRS = ("src", "bench", "examples", "perfbench")
# The opt-out marker; group 1 is the dash-led reason, None when missing.
ALLOW_UNREACHED = re.compile(
    r"//\s*conventions:\s*allow\(reached-header\)(\s*(?:—|-{1,2})\s*\S)?")
# Rule 8: a settable struct, its opt-out marker, and the assignment forms
# that count as setting a field (every name in the `.a.b.c =` chain).
CONFIG_STRUCT = re.compile(r"\bstruct\s+(\w+(?:Config|Params|Spec))\s*\{")
ALLOW_UNSET = re.compile(
    r"//\s*conventions:\s*allow\(set-config-field\)(\s*(?:—|-{1,2})\s*\S)?")
FIELD_ASSIGN = re.compile(r"((?:\.\s*\w+\s*)+)=(?!=)")
SETTING_DIRS = ("src", "bench", "examples", "perfbench", "tests")
NOT_A_FIELD = ("static", "using", "friend", "enum", "struct", "class",
               "union", "template", "typedef")

ATTACH_FIRST_PARAM = {
    "metrics": "MetricsRegistry&",
    "validator": "PipelineValidator&",
}


def strip_comments(text: str) -> str:
    """Remove // and /* */ comments plus string literals (keeps line count)."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[str] = []

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{line}: [{rule}] {message}")

    # --- rules ---------------------------------------------------------------

    def check_naked_assert(self, path: Path, code: str) -> None:
        for lineno, line in enumerate(code.splitlines(), 1):
            if CASSERT_INCLUDE.search(line):
                self.report(path, lineno, "no-naked-assert",
                            "include of <cassert>: use common/check.hpp")
            for m in NAKED_ASSERT.finditer(line):
                before = line[:m.start()]
                if before.rstrip().endswith("static_"):
                    continue
                self.report(path, lineno, "no-naked-assert",
                            "assert(): use DK_CHECK (or DK_DCHECK on hot "
                            "paths) from common/check.hpp")

    def check_pragma_once(self, path: Path, code: str) -> None:
        for lineno, line in enumerate(code.splitlines(), 1):
            m = DIRECTIVE.match(line)
            if not m:
                continue
            if m.group(1) == "pragma" and "once" in line:
                return
            self.report(path, lineno, "pragma-once-first",
                        f"first directive is #{m.group(1)}, expected "
                        "#pragma once")
            return
        self.report(path, 1, "pragma-once-first", "missing #pragma once")

    def dk_includes(self, raw: str, code: str) -> list[tuple[int, str]]:
        """Project includes from the raw text (the stripped text loses the
        quoted paths as string literals); the stripped text vets each line so
        commented-out includes don't count."""
        stripped_lines = code.splitlines()
        out: list[tuple[int, str]] = []
        for lineno, line in enumerate(raw.splitlines(), 1):
            m = QUOTED_INCLUDE.match(line)
            if not m:
                continue
            if lineno <= len(stripped_lines) and \
                    not DIRECTIVE.match(stripped_lines[lineno - 1]):
                continue  # inside a comment
            out.append((lineno, m.group(1)))
        return out

    def check_own_header_first(self, path: Path, raw: str,
                               code: str) -> None:
        includes = self.dk_includes(raw, code)
        if not includes:
            return
        own = path.relative_to(self.root / "src").with_suffix(".hpp")
        if not (self.root / "src" / own).exists():
            return  # no paired header (e.g. a main.cpp)
        lineno, first = includes[0]
        if first != own.as_posix():
            self.report(path, lineno, "own-header-first",
                        f'first include is "{first}", expected own header '
                        f'"{own.as_posix()}"')

    def check_include_order(self, path: Path, raw: str, code: str,
                            skip_first: bool) -> None:
        includes = self.dk_includes(raw, code)
        if skip_first and includes:
            includes = includes[1:]  # own header is exempt (sorted first)
        block = [inc for _, inc in includes]
        if block != sorted(block):
            lineno = includes[0][0] if includes else 1
            self.report(path, lineno, "include-order",
                        'project ("...") includes are not alphabetically '
                        "sorted")

    def check_attach_naming(self, path: Path, code: str) -> None:
        for lineno, line in enumerate(code.splitlines(), 1):
            for m in ATTACH_DECL.finditer(line):
                kind, params = m.group(1), m.group(2).strip()
                if not params:
                    continue  # a call like attach_metrics() — not a decl
                expected = ATTACH_FIRST_PARAM[kind]
                first = params.split(",")[0].strip()
                # Declarations only: first token must be a type name.
                if not first[:1].isalpha() or first[:5] == "const":
                    continue
                if expected.rstrip("&") not in first:
                    continue  # a forwarding call site, not the declaration
                if not re.match(
                        rf"{re.escape(expected[:-1])}\s*&\s*\w+$", first):
                    self.report(
                        path, lineno, "attach-naming",
                        f"attach_{kind}() must take {expected} as its first "
                        f"parameter (got '{first}')")

    def check_no_std_function_event(self, path: Path, code: str) -> None:
        for lineno, line in enumerate(code.splitlines(), 1):
            if STD_FUNCTION.search(line):
                self.report(path, lineno, "no-std-function-event",
                            "std::function in src/sim/, src/rados/ or on the "
                            "per-I/O path: callbacks must be dk::sim::UniqueFn "
                            "(event_pool.hpp) to stay zero-alloc")

    def check_reached_headers(self) -> None:
        includers: dict[str, set[Path]] = {}
        for top in REACHING_DIRS:
            for path in sorted((self.root / top).rglob("*")):
                if path.suffix not in HEADER_SUFFIXES | SOURCE_SUFFIXES:
                    continue
                raw = path.read_text(encoding="utf-8", errors="replace")
                for _, inc in self.dk_includes(raw, strip_comments(raw)):
                    includers.setdefault(inc, set()).add(path)
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.suffix not in HEADER_SUFFIXES:
                continue
            raw = path.read_text(encoding="utf-8", errors="replace")
            marker = next(((lineno, m) for lineno, line in
                           enumerate(raw.splitlines(), 1)
                           if (m := ALLOW_UNREACHED.search(line))), None)
            if marker is not None:
                lineno, m = marker
                if m.group(1) is None:
                    self.report(path, lineno, "reached-header",
                                "allow(reached-header) needs a reason after "
                                "a dash")
                continue
            rel = path.relative_to(src).as_posix()
            if not includers.get(rel, set()) - {path.with_suffix(".cpp")}:
                self.report(path, 1, "reached-header",
                            "no file in src/, bench/, examples/ or "
                            f'perfbench/ but its own .cpp includes "{rel}": '
                            "wire it in or delete it")

    def config_fields(self, path: Path, raw: str, code: str):
        """Yield (struct, field, line) for every data member of each
        *Config/*Params/*Spec struct in `code` that carries no opt-out."""
        raw_lines = raw.splitlines()
        for m in CONFIG_STRUCT.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            # The opt-out sits in the comment block directly above.
            above = line - 2
            marker = None
            while above >= 0 and raw_lines[above].lstrip().startswith("//"):
                if found := ALLOW_UNSET.search(raw_lines[above]):
                    marker = (above + 1, found)
                above -= 1
            if marker is not None:
                if marker[1].group(1) is None:
                    self.report(path, marker[0], "set-config-field",
                                "allow(set-config-field) needs a reason "
                                "after a dash")
                continue
            # Walk the body at depth 1; nested braces (initializers, member
            # function bodies, nested enums) collapse to "{}", and a block
            # after a ')' or a nested type ends its statement.
            i, depth = m.end(), 1
            stmt, stmt_start = "", i
            while i < len(code) and depth > 0:
                ch = code[i]
                if ch == "{":
                    j, d = i + 1, 1
                    while j < len(code) and d:
                        d += {"{": 1, "}": -1}.get(code[j], 0)
                        j += 1
                    head = stmt.strip()
                    stmt += "{}"
                    i = j
                    if ")" in head or head.split(" ")[0] in NOT_A_FIELD:
                        stmt, stmt_start = "", i
                    continue
                if ch == "}":
                    depth -= 1
                elif ch == ";":
                    yield from self.field_of(m.group(1), stmt,
                                             code.count("\n", 0, stmt_start))
                    stmt, stmt_start = "", i + 1
                else:
                    stmt += ch
                i += 1

    @staticmethod
    def field_of(struct: str, stmt: str, newlines_before: int):
        text = re.sub(r"^\s*(?:public|private|protected)\s*:", "", stmt)
        lead = len(text) - len(text.lstrip())
        text = text.strip()
        if not text or text.split()[0] in NOT_A_FIELD or "operator" in text:
            return
        decl = re.split(r"[={\[]", text, maxsplit=1)[0]
        while (bare := re.sub(r"<[^<>]*>", "", decl)) != decl:
            decl = bare  # drop template arguments, innermost first
        if "(" in decl:
            return  # a member function
        name = re.findall(r"\w+", decl)
        if name:
            line = newlines_before + stmt[:lead].count("\n") + 1
            yield struct, name[-1], line

    def check_set_config_fields(self) -> None:
        assigned: set[str] = set()
        for top in SETTING_DIRS:
            for path in sorted((self.root / top).rglob("*")):
                if path.suffix not in HEADER_SUFFIXES | SOURCE_SUFFIXES or \
                        "lint_fixtures" in path.relative_to(self.root).parts:
                    continue
                code = strip_comments(
                    path.read_text(encoding="utf-8", errors="replace"))
                for m in FIELD_ASSIGN.finditer(code):
                    assigned.update(re.findall(r"\w+", m.group(1)))
        for path in sorted((self.root / "src").rglob("*")):
            if path.suffix not in HEADER_SUFFIXES | SOURCE_SUFFIXES:
                continue
            raw = path.read_text(encoding="utf-8", errors="replace")
            for struct, field, line in self.config_fields(
                    path, raw, strip_comments(raw)):
                if field not in assigned:
                    self.report(path, line, "set-config-field",
                                f"{struct}::{field} is never assigned by "
                                "name in src/, bench/, examples/, perfbench/ "
                                "or tests/: make it a constexpr constant "
                                "beside its reader, or delete it")

    # --- driver --------------------------------------------------------------

    def lint(self) -> int:
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.suffix not in HEADER_SUFFIXES | SOURCE_SUFFIXES:
                continue
            raw = path.read_text(encoding="utf-8", errors="replace")
            code = strip_comments(raw)
            self.check_naked_assert(path, code)
            self.check_attach_naming(path, code)
            if path.relative_to(src).as_posix().startswith(UNIQUE_FN_PATHS):
                self.check_no_std_function_event(path, code)
            if path.suffix in HEADER_SUFFIXES:
                self.check_pragma_once(path, raw)
                self.check_include_order(path, raw, code, skip_first=False)
            else:
                self.check_own_header_first(path, raw, code)
                self.check_include_order(path, raw, code, skip_first=True)
        self.check_reached_headers()
        self.check_set_config_fields()
        return len(self.violations)


EXPECT_CONVENTION = re.compile(r"expect-convention:\s*([\w-]+)")
VIOLATION_LINE = re.compile(r"^(.*?):(\d+): \[([\w-]+)\]")


def self_test(root: Path) -> int:
    fixture_root = root / "tests" / "lint_fixtures" / "conventions"
    if not (fixture_root / "src").is_dir():
        print(f"self-test fixtures missing: {fixture_root}/src",
              file=sys.stderr)
        return 1
    want: set[tuple[str, int, str]] = set()
    for path in sorted((fixture_root / "src").rglob("*")):
        if path.suffix not in HEADER_SUFFIXES | SOURCE_SUFFIXES:
            continue
        rel = path.relative_to(fixture_root).as_posix()
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            for m in EXPECT_CONVENTION.finditer(line):
                want.add((rel, lineno, m.group(1)))
    linter = Linter(fixture_root)
    linter.lint()
    got: set[tuple[str, int, str]] = set()
    for v in linter.violations:
        m = VIOLATION_LINE.match(v)
        if m is None:
            print(f"self-test: unparseable violation line: {v}",
                  file=sys.stderr)
            return 1
        got.add((m.group(1), int(m.group(2)), m.group(3)))
    failures = [f"MISSING violation: {t}" for t in sorted(want - got)]
    failures += [f"SPURIOUS violation: {t}" for t in sorted(got - want)]
    if failures:
        print("conventions self-test: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"conventions self-test: OK — {len(got)} violations matched")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against its fixture corpus")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root.resolve())

    linter = Linter(args.root.resolve())
    count = linter.lint()
    for v in linter.violations:
        print(v)
    if count:
        print(f"\n{count} convention violation(s).", file=sys.stderr)
        return 1
    print("conventions: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
