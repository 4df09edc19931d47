"""libclang backend: the check catalog over a real AST.

Requires the ``clang`` Python bindings (Debian/Ubuntu: ``python3-clang`` +
``libclang-<N>``) and a ``compile_commands.json`` for accurate flags; without
a compilation database each file is parsed with a generic ``-std=c++20``
command line. Import failures raise :class:`BackendUnavailable` so the CLI's
``--backend=auto`` can fall back to the textual backend.

The checks mirror textual.py exactly (same IDs, same messages' first clause);
where the AST gives strictly more information — real types for D003/D004,
real capture lists for H003 — the extra precision only removes false
positives, never moves a finding to a different line, so the shared fixture
corpus pins both backends.
"""

from __future__ import annotations

import os
import re

import catalog
from catalog import Finding
from cpp_source import SourceFile


class BackendUnavailable(RuntimeError):
    pass


def _load_cindex():
    try:
        from clang import cindex
    except ImportError as e:
        raise BackendUnavailable(f"python clang bindings missing: {e}") from e
    if cindex.Config.loaded:
        return cindex
    # Debian installs the library as libclang-<N>.so.* without a bare
    # libclang.so symlink unless the -dev package is present; probe the
    # usual names so `apt install libclang1-15 python3-clang` suffices.
    candidates = ["libclang.so", "libclang.so.1"] + [
        f"libclang-{v}.so.{v}" for v in range(20, 11, -1)
    ] + [f"libclang-{v}.so.1" for v in range(20, 11, -1)]
    last_err: Exception | None = None
    for name in candidates:
        try:
            cindex.Config.set_library_file(name)
            cindex.Index.create()
            return cindex
        except Exception as e:  # noqa: BLE001 - probing
            last_err = e
            cindex.Config.loaded = False
    raise BackendUnavailable(f"no loadable libclang: {last_err}")


def probe() -> str | None:
    """None when the backend is usable, else the reason it is not."""
    try:
        cindex = _load_cindex()
        cindex.Index.create()
        return None
    except BackendUnavailable as e:
        return str(e)
    except Exception as e:  # noqa: BLE001 - any cindex breakage
        return str(e)


UNORDERED = ("unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset")
MALLOC_FAMILY = {"malloc", "calloc", "realloc", "free", "strdup",
                 "aligned_alloc", "posix_memalign"}
# Inline ABI namespaces a standard library nests its types in
# (std::_V2::condition_variable_any, std::__1::thread).
_INLINE_NS = re.compile(r"::(?:_V\d+|__cxx11|__1)::")


def analyze(
    files: list[tuple[SourceFile, str]],
    compdb_dir: str | None,
    root: str,
) -> list[Finding]:
    cindex = _load_cindex()
    index = cindex.Index.create()
    db = None
    if compdb_dir is not None and os.path.isdir(compdb_dir):
        try:
            db = cindex.CompilationDatabase.fromDirectory(compdb_dir)
        except cindex.CompilationDatabaseError:
            db = None
    findings: list[Finding] = []
    for src, scope in files:
        abspath = os.path.join(root, src.path)
        args = _args_for(db, abspath, root)
        tu = index.parse(
            abspath,
            args=args,
            options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
        )
        findings.extend(_Visitor(cindex, src, scope, abspath).run(tu))
    findings.sort()
    return findings


def _args_for(db, abspath: str, root: str) -> list[str]:
    if db is not None:
        cmds = db.getCompileCommands(abspath)
        if cmds:
            raw = list(cmds[0].arguments)[1:]  # drop the compiler itself
            # Strip output/input operands; keep include paths and defines.
            args, skip = [], False
            for a in raw:
                if skip:
                    skip = False
                    continue
                if a in ("-o", "-c"):
                    skip = a == "-o"
                    continue
                if a == abspath or a.endswith((".cpp", ".cc", ".o")):
                    continue
                args.append(a)
            return args
    return ["-std=c++20", "-x", "c++", f"-I{os.path.join(root, 'src')}"]


class _Visitor:
    def __init__(self, cindex, src: SourceFile, scope: str, abspath: str):
        self.ci = cindex
        self.src = src
        self.scope = scope
        self.abspath = abspath
        self.out: list[Finding] = []

    def run(self, tu) -> list[Finding]:
        for cur in tu.cursor.walk_preorder():
            loc = cur.location
            if loc.file is None or os.path.abspath(loc.file.name) != \
                    os.path.abspath(self.abspath):
                continue
            self._visit(cur)
        return self.out

    def _emit(self, cur, check: str, message: str) -> None:
        self.out.append(
            Finding(self.src.path, cur.location.line, check, message)
        )

    def _visit(self, cur) -> None:  # noqa: C901 - one dispatch per check
        K = self.ci.CursorKind
        kind = cur.kind
        if kind == K.CALL_EXPR:
            self._check_calls(cur)
        elif kind == K.CXX_FOR_RANGE_STMT:
            self._check_range_for(cur)
        elif kind in (K.VAR_DECL, K.FIELD_DECL):
            self._check_decl_types(cur)
        elif kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                      K.FUNCTION_TEMPLATE) and cur.is_definition():
            if self._is_hot(cur):
                self._check_hot(cur)

    # -- D-family ------------------------------------------------------------

    def _check_calls(self, cur) -> None:
        name = cur.spelling
        if name == "now":
            ref = cur.referenced
            parent = ref.semantic_parent.spelling if ref is not None and \
                ref.semantic_parent is not None else ""
            if parent in ("steady_clock", "system_clock",
                          "high_resolution_clock"):
                self._emit(cur, catalog.D001,
                           f"wall-clock read std::chrono::{parent}::now(); "
                           "route through the simulated clock")
        elif name in ("clock_gettime", "gettimeofday"):
            self._emit(cur, catalog.D001,
                       f"wall-clock read {name}(); route through the "
                       "simulated clock")
        elif name == "async" and self.scope.startswith("src/") and \
                _in_std(cur.referenced):
            self._emit_threading(cur, name)
        elif name in ("rand", "srand") and _in_std_or_global(cur.referenced):
            self._emit(cur, catalog.D002,
                       f"{name}() draws from hidden global state; use a "
                       "seeded engine owned by the caller")

    def _check_decl_types(self, cur) -> None:
        t = cur.type.get_canonical().spelling
        if "random_device" in t:
            self._emit(cur, catalog.D002,
                       "std::random_device is ambient entropy; take a "
                       "seeded engine from the caller")
        for u in UNORDERED:
            marker = f"{u}<"
            idx = t.find(marker)
            if idx == -1:
                continue
            if self.scope.startswith(catalog.D004_SCOPES):
                key = t[idx + len(marker):].split(",")[0]
                if "*" in key:
                    self._emit(cur, catalog.D004,
                               f"pointer-keyed std::{u} in a "
                               "determinism-critical scope; key by a "
                               "stable id")
            break
        if self.scope.startswith("src/"):
            # The spelled type catches aliases (std::binary_semaphore), the
            # canonical one typedefs of the primitives.
            for spelled in (cur.type.spelling, t):
                name = _std_name(spelled)
                if name in catalog.THREADING:
                    self._emit_threading(cur, name)
                    break

    def _emit_threading(self, cur, name: str) -> None:
        self._emit(cur, catalog.T002,
                   f"threading primitive std::{name}; src/ is "
                   "single-threaded (DESIGN §6) and starts no thread")

    def _check_range_for(self, cur) -> None:
        # Child order of CXXForRangeStmt varies across libclang versions;
        # probe each child until one's type is an unordered container (the
        # range initializer), then stop — the body would double-report.
        for child in cur.get_children():
            t = child.type.get_canonical().spelling
            if any(f"{u}<" in t for u in UNORDERED):
                name = next((tok.spelling for tok in child.get_tokens()
                             if tok.kind.name == "IDENTIFIER"), "<expr>")
                self._emit(cur, catalog.D003,
                           f"iteration over unordered container '{name}'; "
                           "sort the keys first, or allow() as commutative")
                break
            if t and "(" not in t and child.kind.is_statement():
                break  # reached the loop body without matching

    # -- H-family ------------------------------------------------------------

    def _is_hot(self, cur) -> bool:
        K = self.ci.CursorKind
        return any(c.kind == K.ANNOTATE_ATTR and c.spelling == "dk_hot"
                   for c in cur.get_children())

    def _check_hot(self, cur) -> None:
        K = self.ci.CursorKind
        for node in cur.walk_preorder():
            if node.location.file is None or os.path.abspath(
                    node.location.file.name) != os.path.abspath(self.abspath):
                continue
            if node.kind == K.CXX_NEW_EXPR:
                if not _is_placement_new(node):
                    self._emit(node, catalog.H001,
                               "heap traffic in a DK_HOT function "
                               "(new-expression allocates); pool it or "
                               "hoist it off the hot path")
            elif node.kind == K.CXX_DELETE_EXPR:
                self._emit(node, catalog.H001,
                           "heap traffic in a DK_HOT function (delete "
                           "frees heap storage); pool it or hoist it off "
                           "the hot path")
            elif node.kind == K.CALL_EXPR:
                name = node.spelling
                if name in MALLOC_FAMILY and _in_std_or_global(
                        node.referenced):
                    self._emit(node, catalog.H001,
                               f"heap traffic in a DK_HOT function "
                               f"({name}() allocates); pool it or hoist "
                               "it off the hot path")
                elif name in ("make_unique", "make_shared"):
                    self._emit(node, catalog.H001,
                               f"heap traffic in a DK_HOT function "
                               f"(std::{name} allocates); pool it or "
                               "hoist it off the hot path")
                elif name in ("operator new", "operator new[]"):
                    self._emit(node, catalog.H001,
                               "heap traffic in a DK_HOT function "
                               "(operator new allocates); pool it or "
                               "hoist it off the hot path")
                elif name in ("operator delete", "operator delete[]"):
                    self._emit(node, catalog.H001,
                               "heap traffic in a DK_HOT function (delete "
                               "frees heap storage); pool it or hoist it "
                               "off the hot path")
            elif node.kind in (K.VAR_DECL, K.FIELD_DECL):
                t = node.type.get_canonical().spelling
                if t.startswith("std::function<"):
                    self._emit(node, catalog.H002,
                               "std::function in a DK_HOT function; use "
                               "EventFn or a template parameter")
            elif node.kind == K.LAMBDA_EXPR:
                self._check_lambda(node)

    def _check_lambda(self, node) -> None:
        toks = list(node.get_tokens())
        if not toks or toks[0].spelling != "[":
            return
        depth, intro = 0, []
        for t in toks:
            intro.append(t.spelling)
            if t.spelling == "[":
                depth += 1
            elif t.spelling == "]":
                depth -= 1
                if depth == 0:
                    break
        inner = intro[1:-1]
        line = node.location.line
        if inner[:1] in (["="], ["&"]) and inner[1:2] in ([], ["]"], [","]):
            self.out.append(Finding(
                self.src.path, line, catalog.H003,
                f"capture-default [{inner[0]}] in a DK_HOT function; name "
                "each capture so its size is visible"))
        if "*" in inner[:1] and inner[1:2] == ["this"]:
            self.out.append(Finding(
                self.src.path, line, catalog.H003,
                "[*this] copies the whole object into a DK_HOT lambda; "
                "capture `this` or the needed fields"))
        by_value = 0
        for item in ",".join(inner).split(","):
            item = item.strip()
            if not item or item in ("=", "&", "this") or \
                    item.startswith("&"):
                continue
            if "=" in item:
                if "move" in item or "make_unique" in item or \
                        "make_shared" in item:
                    self.out.append(Finding(
                        self.src.path, line, catalog.H003,
                        "init-capture moves a non-trivial object into a "
                        "DK_HOT lambda; it will spill to the pool"))
                continue
            if item == "*this":
                continue
            by_value += 1
        if by_value > 4:
            self.out.append(Finding(
                self.src.path, line, catalog.H003,
                f"{by_value} by-value captures in a DK_HOT lambda "
                "(limit 4); the capture likely exceeds EventFn's inline "
                "buffer"))


def _std_name(type_spelling: str) -> str:
    """'std::atomic<unsigned long>' -> 'atomic'; '' when not a std:: type."""
    t = _INLINE_NS.sub("::", type_spelling.removeprefix("const "))
    if not t.startswith("std::"):
        return ""
    return t[len("std::"):].split("<", 1)[0]


def _in_std(ref) -> bool:
    return ref is not None and ref.semantic_parent is not None and \
        ref.semantic_parent.spelling == "std"


def _in_std_or_global(ref) -> bool:
    if ref is None:
        return True  # unresolved: assume libc
    parent = ref.semantic_parent
    if parent is None:
        return True
    return parent.spelling in ("std", "") or parent.kind.name == \
        "TRANSLATION_UNIT"


def _is_placement_new(node) -> bool:
    # Placement new's first tokens are `new ( addr )` before the type; a
    # plain new-expression goes straight to the type. `::new (p) T` too.
    toks = [t.spelling for t in node.get_tokens()][:4]
    if toks[:1] == ["::"]:
        toks = toks[1:]
    return len(toks) >= 2 and toks[0] == "new" and toks[1] == "(" and \
        "nothrow" not in toks
