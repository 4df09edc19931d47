"""Project conventions: the C family.

Layout and API rules clang-tidy cannot express, over the same tokens as the
other checks and only in src/. DK-C001–C006 and DK-C009 read one file at a
time;
DK-C007 and DK-C008 read the whole tree under --root, since whether a header
is reached or a field is set depends on every file that could include or
assign it.
"""

from __future__ import annotations

import os
import re

import catalog
from catalog import Finding
from cpp_source import SourceFile, SourceTree, Suppressions
from textual import match_braces, token_text

HEADERS = (".hpp", ".h")
# Includes from these directories make a src/ header reached (DK-C007);
# tests/ is left out on purpose, so a module only its tests use is flagged.
REACHING_DIRS = ("src", "bench", "examples", "perfbench")
# Assignments in these directories set a field (DK-C008).
SETTING_DIRS = REACHING_DIRS + ("tests",)
CONFIG_STRUCT = re.compile(r"\w+(?:Config|Params|Spec)")
NOT_A_FIELD = frozenset({"static", "using", "friend", "enum", "struct",
                         "class", "union", "template", "typedef"})
ACCESS = ("public", "private", "protected")
ATTACH_FIRST_PARAM = {
    "attach_metrics": "MetricsRegistry",
    "attach_validator": "PipelineValidator",
}
_CASSERT = re.compile(r"include\s*<(?:cassert|assert\.h)>")


def analyze(tree: SourceTree, files: list[SourceFile],
            suppressions: dict[str, Suppressions]) -> list[Finding]:
    files = [f for f in files if f.path.startswith("src/")]
    out: list[Finding] = []
    for src in files:
        out.extend(_check_assert(src))
        out.extend(_check_attach(src))
        out.extend(_check_std_function(src))
        out.extend(_check_const_cast(src))
        header = src.path.endswith(HEADERS)
        if header:
            out.extend(_check_pragma_once(src))
        else:
            out.extend(_check_own_header(tree.root, src))
        out.extend(_check_include_order(src, skip_own=not header))
    headers = [f for f in files if f.path.endswith(HEADERS)]
    if headers:
        out.extend(_check_reached(tree, headers))
    if files:
        out.extend(_check_config_fields(tree, files, suppressions))
    return out


# ---------------------------------------------------------------------------
# Per-file rules


def _check_assert(src: SourceFile) -> list[Finding]:
    out = [Finding(src.path, line, catalog.C001,
                   "include of <cassert>: use common/check.hpp")
           for line, text in src.directives if _CASSERT.match(text)]
    toks = src.tokens
    out += [Finding(src.path, t.line, catalog.C001,
                    "assert(): use DK_CHECK (or DK_DCHECK on hot paths) "
                    "from common/check.hpp")
            for i, t in enumerate(toks)
            if t.text == "assert" and token_text(toks, i + 1) == "("]
    return out


def _check_pragma_once(src: SourceFile) -> list[Finding]:
    if not src.directives:
        return [Finding(src.path, 1, catalog.C002, "missing #pragma once")]
    line, text = src.directives[0]
    if re.match(r"pragma\s+once\b", text):
        return []
    name = re.match(r"\w*", text).group()
    return [Finding(src.path, line, catalog.C002,
                    f"first directive is #{name}, expected #pragma once")]


def _check_own_header(root: str, src: SourceFile) -> list[Finding]:
    includes = src.quoted_includes()
    own = src.path[len("src/"):].rpartition(".")[0] + ".hpp"
    if not includes or not os.path.exists(os.path.join(root, "src", own)):
        return []  # no project include, or no paired header (a main.cpp)
    line, first = includes[0]
    if first == own:
        return []
    return [Finding(src.path, line, catalog.C003,
                    f'first include is "{first}", expected own header '
                    f'"{own}"')]


def _check_include_order(src: SourceFile, skip_own: bool) -> list[Finding]:
    includes = src.quoted_includes()[1 if skip_own else 0:]
    paths = [path for _, path in includes]
    if paths == sorted(paths):
        return []
    return [Finding(src.path, includes[0][0], catalog.C004,
                    'project ("...") includes are not alphabetically sorted')]


def _check_attach(src: SourceFile) -> list[Finding]:
    """A declaration's first parameter is exactly `MetricsRegistry& name`
    (or `PipelineValidator& name`); a call passes something else first and
    is skipped."""
    out = []
    toks = src.tokens
    for i, t in enumerate(toks):
        expected = ATTACH_FIRST_PARAM.get(t.text)
        if expected is None or token_text(toks, i + 1) != "(":
            continue
        first = []
        for tok in toks[i + 2:]:
            if tok.text in (",", ")"):
                break
            first.append(tok)
        if (not first or first[0].kind != "ident"
                or first[0].text.startswith(("const", "_"))
                or expected not in "".join(tok.text for tok in first)):
            continue  # a call, or a const parameter no rule covers
        if [tok.text for tok in first[:2]] != [expected, "&"] or len(
                first) != 3 or first[2].kind != "ident":
            shown = " ".join(tok.text for tok in first)
            out.append(Finding(src.path, t.line, catalog.C005,
                               f"{t.text}() must take {expected}& as its "
                               f"first parameter (got '{shown}')"))
    return out


def _check_std_function(src: SourceFile) -> list[Finding]:
    toks = src.tokens
    return [Finding(src.path, t.line, catalog.C006,
                    "std::function in src/: callbacks must be "
                    "dk::sim::UniqueFn (event_pool.hpp) to stay zero-alloc")
            for i, t in enumerate(toks)
            if t.text == "std" and token_text(toks, i + 1) == "::"
            and token_text(toks, i + 2) == "function"
            and token_text(toks, i + 3) == "<"]


def _check_const_cast(src: SourceFile) -> list[Finding]:
    return [Finding(src.path, t.line, catalog.C009,
                    "const_cast in src/: a write through a const view of a "
                    "page leaves its remembered CRC stale; take the bytes "
                    "from PageRef::writable()")
            for t in src.tokens if t.text == "const_cast"]


# ---------------------------------------------------------------------------
# Repo-wide rules


def _check_reached(tree: SourceTree,
                   headers: list[SourceFile]) -> list[Finding]:
    includers: dict[str, set[str]] = {}
    for top in REACHING_DIRS:
        for src in tree.walk(top):
            for _, inc in src.quoted_includes():
                includers.setdefault(inc, set()).add(src.path)
    out = []
    for src in headers:
        rel = src.path[len("src/"):]
        own_cpp = src.path.rpartition(".")[0] + ".cpp"
        if not includers.get(rel, set()) - {own_cpp}:
            out.append(Finding(
                src.path, 1, catalog.C007,
                "no file in src/, bench/, examples/ or perfbench/ but its "
                f'own .cpp includes "{rel}": wire it in or delete it'))
    return out


def _check_config_fields(tree: SourceTree, files: list[SourceFile],
                         suppressions: dict[str, Suppressions]
                         ) -> list[Finding]:
    """An allow(DK-C008) on a struct's head line covers all its fields."""
    assigned: set[str] = set()
    for top in SETTING_DIRS:
        for src in tree.walk(top):
            if "lint_fixtures" not in src.path.split("/"):
                assigned |= _assigned_names(src)
    out = []
    for src in files:
        supp = suppressions[src.path]
        for struct, head_line, field, line in _config_fields(src):
            if field not in assigned:
                out.append(Finding(
                    src.path, line, catalog.C008,
                    f"{struct}::{field} is never assigned by name in src/, "
                    "bench/, examples/, perfbench/ or tests/: make it a "
                    "constexpr constant beside its reader, or delete it",
                    suppressed=supp.covers(catalog.C008, head_line)))
    return out


def _assigned_names(src: SourceFile) -> set[str]:
    """Every name in a `.a.b.c =` chain: `x.f =`, a designated initializer
    `.f =`, or `x.f.g =` (which sets f as well as g)."""
    names: set[str] = set()
    toks = src.tokens
    for i, t in enumerate(toks):
        if t.text != "=":
            continue
        j = i - 1
        while j > 0 and toks[j].kind == "ident" and toks[j - 1].text == ".":
            names.add(toks[j].text)
            j -= 2
    return names


def _config_fields(src: SourceFile):
    """Yield (struct, head line, field, field line) for every data member of
    each *Config/*Params/*Spec struct. Nested braces (initializers, member
    function bodies, nested types) are skipped whole; a block after a ')'
    or a nested type's keyword ends its statement."""
    toks = src.tokens
    for i, t in enumerate(toks):
        name = token_text(toks, i + 1)
        if (t.text != "struct" or token_text(toks, i + 2) != "{"
                or not CONFIG_STRUCT.fullmatch(name)):
            continue
        stmt = []
        j = i + 3
        while j < len(toks) and toks[j].text != "}":
            tok = toks[j]
            if tok.text == "{":
                close = match_braces(toks, j)
                j = len(toks) if close is None else close + 1
                if (any(s.text == ")" for s in stmt)
                        or (stmt and stmt[0].text in NOT_A_FIELD)):
                    stmt = []
                else:
                    stmt.append(tok)  # a braced initializer
                continue
            if tok.text == ";":
                field = _field_of(stmt)
                if field is not None:
                    yield name, t.line, field.text, field.line
                stmt = []
            else:
                stmt.append(tok)
            j += 1


def _field_of(stmt):
    """The declared name of a data-member statement, or None for member
    functions, nested types, aliases and the like."""
    if len(stmt) >= 2 and stmt[0].text in ACCESS and stmt[1].text == ":":
        stmt = stmt[2:]
    if (not stmt or stmt[0].text in NOT_A_FIELD
            or any(t.text == "operator" for t in stmt)):
        return None
    depth, decl = 0, []
    for t in stmt:
        if depth == 0 and t.text in ("=", "{", "["):
            break
        if t.text == "<":
            depth += 1
        elif t.text in (">", ">>"):
            depth -= len(t.text)
        elif depth == 0:
            decl.append(t)
    if any(t.text == "(" for t in decl):
        return None  # a member function
    idents = [t for t in decl if t.kind == "ident"]
    return idents[-1] if idents else None
