"""Token-stream backend: the whole check catalog without a compiler.

The clang backend (clangast.py) is the reference implementation; this one
exists because dklint gates local test runs and libclang's Python bindings
are not part of the base toolchain. It trades type information for a careful
tokenizer (cpp_source.py) plus scope tracking: DK_HOT body spans are found by
brace matching, and unordered containers by a registry of declared names (a
member declared `std::unordered_map` in the header is recognized when
iterated in the .cpp).

Both backends implement the identical catalog and are pinned to the same
fixture corpus (tests/lint_fixtures), so a finding's (check, file, line) is
backend-independent for every construct the fixtures cover.
"""

from __future__ import annotations

import catalog
from catalog import Finding
from cpp_source import SourceFile, Token

CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
UNORDERED = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
}
MALLOC_FAMILY = {
    "malloc",
    "calloc",
    "realloc",
    "free",
    "strdup",
    "aligned_alloc",
    "posix_memalign",
}
MAKE_HEAP = {"make_unique", "make_shared"}


def analyze(files: list[tuple[SourceFile, str]]) -> list[Finding]:
    """files: (source, scope_path) pairs; scope_path is the repo-relative
    path used for scope-sensitive checks (fixtures remap it via the
    ``dklint-fixture-as`` directive)."""
    # Unordered-container names are resolved per translation unit: a file
    # sees the names it declares plus those of its companion header/source
    # (foo.cpp <-> foo.hpp), which is where data members live. A global
    # registry would make `rings_` (an unordered_map in one subsystem)
    # taint every other subsystem's `rings_` vector.
    declared = {src.path: _declared_unordered_names(src) for src, _ in files}
    findings: list[Finding] = []
    for src, scope in files:
        names = set(declared.get(src.path, set()))
        for companion in _companions(src.path):
            names |= declared.get(companion, set())
        findings.extend(_analyze_file(src, scope, names))
    findings.sort()
    return findings


def _companions(path: str) -> list[str]:
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return []
    swap = {"cpp": ("hpp", "h"), "cc": ("hpp", "h"),
            "hpp": ("cpp", "cc"), "h": ("cpp", "cc")}
    return [f"{stem}.{e}" for e in swap.get(ext, ())]


# ---------------------------------------------------------------------------
# Per-file driver


def _analyze_file(
    src: SourceFile, scope: str, unordered_names: set[str]
) -> list[Finding]:
    toks = src.tokens
    out: list[Finding] = []
    out.extend(_check_wall_clock(src, toks))
    out.extend(_check_randomness(src, toks))
    out.extend(_check_unordered_iteration(src, toks, unordered_names))
    if scope.startswith(catalog.D004_SCOPES):
        out.extend(_check_pointer_keys(src, toks))
    for span in _hot_spans(toks):
        out.extend(_check_hot_body(src, toks, span))
    if scope.startswith("src/"):
        out.extend(_check_threading(src, toks))
    return out


# ---------------------------------------------------------------------------
# D-family


def _check_wall_clock(src: SourceFile, toks: list[Token]) -> list[Finding]:
    out = []
    for i, t in enumerate(toks):
        if (
            t.kind == "ident"
            and t.text in CLOCKS
            and _text(toks, i + 1) == "::"
            and _text(toks, i + 2) == "now"
        ):
            out.append(
                Finding(
                    src.path,
                    t.line,
                    catalog.D001,
                    f"wall-clock read std::chrono::{t.text}::now(); route "
                    "through the simulated clock",
                )
            )
        if t.kind == "ident" and t.text in ("clock_gettime", "gettimeofday"):
            if _text(toks, i + 1) == "(":
                out.append(
                    Finding(
                        src.path,
                        t.line,
                        catalog.D001,
                        f"wall-clock read {t.text}(); route through the "
                        "simulated clock",
                    )
                )
    return out


def _check_randomness(src: SourceFile, toks: list[Token]) -> list[Finding]:
    out = []
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        prev = _text(toks, i - 1)
        if t.text == "random_device" and prev != "include":
            out.append(
                Finding(
                    src.path,
                    t.line,
                    catalog.D002,
                    "std::random_device is ambient entropy; take a seeded "
                    "engine from the caller",
                )
            )
        if t.text in ("rand", "srand") and _text(toks, i + 1) == "(":
            if prev in (".", "->"):
                continue  # member call on some object; not libc rand
            if prev == "::" and _text(toks, i - 2) != "std":
                continue  # qualified by something other than std
            prev_tok = toks[i - 1] if i > 0 else None
            if (
                prev_tok is not None
                and prev_tok.kind == "ident"
                and prev_tok.text not in ("return", "co_return", "case")
            ):
                continue  # `int rand()` — a declaration, not a call
            out.append(
                Finding(
                    src.path,
                    t.line,
                    catalog.D002,
                    f"{t.text}() draws from hidden global state; use a "
                    "seeded engine owned by the caller",
                )
            )
    return out


def _declared_unordered_names(src: SourceFile) -> set[str]:
    """Names declared with an unordered container type, e.g.
    ``std::unordered_map<K, V> rings_;`` registers ``rings_``."""
    names: set[str] = set()
    toks = src.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in UNORDERED:
            continue
        if _text(toks, i + 1) != "<":
            continue
        j = _match_angles(toks, i + 1)
        if j is None:
            continue
        nxt = toks[j + 1] if j + 1 < len(toks) else None
        if nxt is not None and nxt.kind == "ident":
            # `... > name` — a declaration unless `name(` opens a function.
            if _text(toks, j + 2) != "(":
                names.add(nxt.text)
    return names


def _check_unordered_iteration(
    src: SourceFile, toks: list[Token], unordered_names: set[str]
) -> list[Finding]:
    out = []
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text != "for":
            continue
        if _text(toks, i + 1) != "(":
            continue
        close = _match_parens(toks, i + 1)
        if close is None:
            continue
        inner = toks[i + 2 : close]
        colon = _top_level(inner, ":")
        if colon is None or _top_level(inner, ";") is not None:
            continue  # classic for loop
        range_expr = inner[colon + 1 :]
        if any(tok.text == "(" for tok in range_expr):
            continue  # a call may reorder (e.g. sorted_keys(m))
        hit = next(
            (
                tok
                for tok in range_expr
                if tok.kind == "ident" and tok.text in unordered_names
            ),
            None,
        )
        if hit is not None:
            out.append(
                Finding(
                    src.path,
                    t.line,
                    catalog.D003,
                    f"iteration over unordered container '{hit.text}'; "
                    "sort the keys first, or allow() as commutative",
                )
            )
    return out


def _check_pointer_keys(src: SourceFile, toks: list[Token]) -> list[Finding]:
    out = []
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in UNORDERED:
            continue
        if _text(toks, i + 1) != "<":
            continue
        depth = 0
        for j in range(i + 1, len(toks)):
            text = toks[j].text
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            if depth <= 0 or (text == "," and depth == 1):
                break  # end of the key type argument
            if text == "*" and depth == 1:
                out.append(
                    Finding(
                        src.path,
                        t.line,
                        catalog.D004,
                        f"pointer-keyed std::{t.text} in a "
                        "determinism-critical scope; key by a stable id",
                    )
                )
                break
    return out


# ---------------------------------------------------------------------------
# H-family: DK_HOT bodies


def _hot_spans(toks: list[Token]) -> list[tuple[int, int]]:
    """Token-index ranges of function bodies marked DK_HOT."""
    spans = []
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text != "DK_HOT":
            continue
        # Find the parameter list: first '(' after the declarator name
        # (template-argument angles on the way are fine to scan through).
        j = i + 1
        while j < len(toks) and toks[j].text not in ("(", ";", "{", "}"):
            j += 1
        if j >= len(toks) or toks[j].text != "(":
            continue
        close = _match_parens(toks, j)
        if close is None:
            continue
        # Scan past const/noexcept/attributes/ctor-init to the body (or a
        # ';' meaning declaration-only).
        k = close + 1
        depth = 0
        body_open = None
        while k < len(toks):
            text = toks[k].text
            if text in ("(",):
                depth += 1
            elif text == ")":
                depth -= 1
            elif depth == 0 and text == ";":
                break
            elif depth == 0 and text == "{":
                body_open = k
                break
            k += 1
        if body_open is None:
            continue
        body_close = _match_braces(toks, body_open)
        if body_close is not None:
            spans.append((body_open, body_close))
    return spans


def _check_hot_body(
    src: SourceFile, toks: list[Token], span: tuple[int, int]
) -> list[Finding]:
    lo, hi = span
    out = []
    i = lo
    while i <= hi:
        t = toks[i]
        nxt = _text(toks, i + 1)
        prev = _text(toks, i - 1)
        if t.kind == "ident" and t.text == "new":
            if prev == "operator":
                out.append(_h001(src, t, "operator new allocates"))
            elif nxt != "(":
                out.append(_h001(src, t, "new-expression allocates"))
            # `new (addr) T` placement syntax constructs in place: exempt.
        elif t.kind == "ident" and t.text == "delete" and prev != "=":
            out.append(_h001(src, t, "delete frees heap storage"))
        elif (
            t.kind == "ident"
            and t.text in MALLOC_FAMILY
            and nxt == "("
            and prev not in (".", "->")
        ):
            out.append(_h001(src, t, f"{t.text}() allocates"))
        elif t.kind == "ident" and t.text in MAKE_HEAP:
            out.append(_h001(src, t, f"std::{t.text} allocates"))
        elif (
            t.kind == "ident"
            and t.text == "function"
            and prev == "::"
            and _text(toks, i - 2) == "std"
        ):
            out.append(
                Finding(
                    src.path,
                    t.line,
                    catalog.H002,
                    "std::function in a DK_HOT function; use EventFn or a "
                    "template parameter",
                )
            )
        elif t.text == "[" and _is_lambda_intro(toks, i):
            close = _match_brackets(toks, i)
            if close is not None:
                out.extend(_check_capture_list(src, toks, i, close))
                i = close  # the body is scanned by the outer loop anyway
        i += 1
    return out


def _h001(src: SourceFile, t: Token, why: str) -> Finding:
    return Finding(
        src.path,
        t.line,
        catalog.H001,
        f"heap traffic in a DK_HOT function ({why}); pool it or hoist it "
        "off the hot path",
    )


def _is_lambda_intro(toks: list[Token], i: int) -> bool:
    prev = toks[i - 1] if i > 0 else None
    if _text(toks, i + 1) == "[" or (prev is not None and prev.text == "["):
        return False  # [[attribute]]
    if prev is None:
        return True
    if prev.kind in ("ident", "number", "string", "char"):
        return False  # subscript: arr[i]
    return prev.text not in (")", "]")


def _check_capture_list(
    src: SourceFile, toks: list[Token], lo: int, hi: int
) -> list[Finding]:
    inner = toks[lo + 1 : hi]
    line = toks[lo].line
    out = []
    if inner and inner[0].text in ("=", "&") and (
        len(inner) == 1 or inner[1].text == ","
    ):
        out.append(
            Finding(
                src.path,
                line,
                catalog.H003,
                f"capture-default [{inner[0].text}] in a DK_HOT function; "
                "name each capture so its size is visible",
            )
        )
        inner = inner[2:]  # the explicit remainder still gets counted
    by_value = 0
    for item in _split_top_level(inner, ","):
        if not item:
            continue
        if item[0].text == "*" and len(item) > 1 and item[1].text == "this":
            out.append(
                Finding(
                    src.path,
                    line,
                    catalog.H003,
                    "[*this] copies the whole object into a DK_HOT "
                    "lambda; capture `this` or the needed fields",
                )
            )
            continue
        if item[0].text == "this":
            continue  # 8 bytes; always fine
        if any(tok.text == "=" for tok in item):
            if any(tok.text in ("move", "make_unique", "make_shared")
                   for tok in item):
                out.append(
                    Finding(
                        src.path,
                        line,
                        catalog.H003,
                        "init-capture moves a non-trivial object into a "
                        "DK_HOT lambda; it will spill to the pool",
                    )
                )
            continue
        if item[0].text == "&":
            continue  # by-reference: 8 bytes
        by_value += 1
    if by_value > 4:
        out.append(
            Finding(
                src.path,
                line,
                catalog.H003,
                f"{by_value} by-value captures in a DK_HOT lambda "
                "(limit 4); the capture likely exceeds EventFn's inline "
                "buffer",
            )
        )
    return out


# ---------------------------------------------------------------------------
# T-family: threading primitives


def _check_threading(src: SourceFile, toks: list[Token]) -> list[Finding]:
    out = []
    for i, t in enumerate(toks):
        if (
            t.kind == "ident"
            and t.text in catalog.THREADING
            and _text(toks, i - 1) == "::"
            and _text(toks, i - 2) == "std"
        ):
            out.append(
                Finding(
                    src.path,
                    t.line,
                    catalog.T002,
                    f"threading primitive std::{t.text}; src/ is "
                    "single-threaded (DESIGN §6) and starts no thread",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Token-stream helpers


def _text(toks: list[Token], i: int) -> str:
    return toks[i].text if 0 <= i < len(toks) else ""


def _match_parens(toks: list[Token], i: int) -> int | None:
    return _match(toks, i, "(", ")")


def _match_braces(toks: list[Token], i: int) -> int | None:
    return _match(toks, i, "{", "}")


def _match_brackets(toks: list[Token], i: int) -> int | None:
    return _match(toks, i, "[", "]")


def _match(toks: list[Token], i: int, op: str, cl: str) -> int | None:
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == op:
            depth += 1
        elif toks[j].text == cl:
            depth -= 1
            if depth == 0:
                return j
    return None


def _match_angles(toks: list[Token], i: int) -> int | None:
    """Matching '>' for the '<' at i; parens nested inside are skipped."""
    depth = 0
    j = i
    while j < len(toks):
        text = toks[j].text
        if text == "<":
            depth += 1
        elif text == ">":
            depth -= 1
            if depth == 0:
                return j
        elif text == ">>":
            depth -= 2
            if depth <= 0:
                return j
        elif text == "(":
            j = _match_parens(toks, j) or len(toks)
        elif text in (";", "{", "}"):
            return None  # not a template-argument list after all
        j += 1
    return None


def _top_level(toks: list[Token], text: str) -> int | None:
    depth = 0
    for i, t in enumerate(toks):
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif depth == 0 and t.text == text:
            return i
    return None


def _split_top_level(
    toks: list[Token], sep: str
) -> list[list[Token]]:
    parts: list[list[Token]] = [[]]
    depth = 0
    for t in toks:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if t.text == sep and depth == 0:
            parts.append([])
        else:
            parts[-1].append(t)
    return parts
