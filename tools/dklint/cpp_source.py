"""Lexical model of a C++ translation unit and of the tree it lives in.

The tokenizer understands comments, string/char literals (including raw
strings), digit separators and preprocessor lines well enough that no check
ever fires on text inside a literal or a comment — the classic failure mode
of grep-based linting.
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import NamedTuple

from catalog import ALLOW_FILE_WINDOW, S001, Finding, validate_check_id

EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")

# ---------------------------------------------------------------------------
# Tokenizer


class Token(NamedTuple):
    kind: str  # "ident" | "punct" | "number" | "string" | "char"
    text: str
    line: int  # 1-based


# One alternative per lexeme; whitespace matches none, so finditer skips it.
# A pp-number takes the C++14 digit separator (50'000) as one token; an
# apostrophe anywhere else opens a character literal. String and character
# literals left open stop at the end of their line. A '#' only ever starts a
# directive in valid C++, which runs to the end of its line (continuations
# included) and stops before a comment so the comment is recorded.
_TOKEN = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?(?:\*/|\Z))
  | (?P<raw>(?:u8|[uUL])?R"(?P<delim>[^()\\ \t\n]{0,16})\(
            .*?(?:\)(?P=delim)"|\Z))
  | (?P<string>(?:u8|[uUL])?"(?:\\.|[^"\\\n])*"?)
  | (?P<char>'(?:\\.|[^'\\\n])*'?)
  | (?P<number>\.?[0-9](?:[eEpP][+-]|'\w|[\w.])*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<directive>\#(?:"(?:\\.|[^"\\\n])*"?|\\.|/(?![/*])|[^\n\\/"])*)
  | (?P<punct><<=|>>=|\.\.\.|->\*|::|->|<<|>>|<=|>=|==|!=|&&|\|\||\+\+|--
              |\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\*|\S)
    """,
    re.DOTALL | re.VERBOSE,
)
_QUOTED_INCLUDE = re.compile(r'include\s*"([^"]+)"')


class SourceFile:
    """Tokens, comments and preprocessor directives of one file."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path  # repo-relative, forward slashes
        self.tokens: list[Token] = []
        # line -> comment texts beginning on that line
        self.comments: dict[int, list[str]] = {}
        # (line, text after the '#') of every directive, comments removed
        self.directives: list[tuple[int, str]] = []
        pos, line = 0, 1
        for m in _TOKEN.finditer(text):
            start = m.start()
            line += text.count("\n", pos, start)
            pos = start
            kind = m.lastgroup
            if kind == "comment":
                self.comments.setdefault(line, []).append(m.group())
            elif kind == "directive":
                self.directives.append((line, m.group()[1:].strip()))
            elif kind == "raw":
                self.tokens.append(Token("string", "<raw>", line))
            else:
                self.tokens.append(Token(kind, m.group(), line))

    def quoted_includes(self) -> list[tuple[int, str]]:
        """(line, path) of every ``#include "path"``, in file order."""
        return [(line, m.group(1)) for line, text in self.directives
                if (m := _QUOTED_INCLUDE.match(text))]


class SourceTree:
    """The C++ files under a repository root, each read and lexed once."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._files: dict[str, SourceFile] = {}

    def file(self, path: str) -> SourceFile:
        """`path` absolute, or relative to the root."""
        ap = path if os.path.isabs(path) else os.path.join(self.root, path)
        rel = os.path.relpath(ap, self.root).replace(os.sep, "/")
        src = self._files.get(rel)
        if src is None:
            with open(ap, encoding="utf-8", errors="replace") as f:
                src = SourceFile(rel, f.read())
            self._files[rel] = src
        return src

    def walk(self, path: str) -> list[SourceFile]:
        """Every C++ file under `path` (a file, or a directory walked in
        sorted order); a missing directory yields nothing."""
        ap = path if os.path.isabs(path) else os.path.join(self.root, path)
        if os.path.isfile(ap):
            return [self.file(ap)]
        out = []
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames.sort()
            out.extend(self.file(os.path.join(dirpath, name))
                       for name in sorted(filenames)
                       if name.endswith(EXTENSIONS))
        return out


# ---------------------------------------------------------------------------
# Suppressions

_ALLOW = re.compile(
    r"dklint:\s*(allow|allow-file)\(([^)]*)\)\s*(.*)", re.DOTALL
)
# A reason must follow an em/en dash or a double hyphen, and be non-empty.
_REASON = re.compile(r"^[—–]|^--")


@dataclasses.dataclass
class Suppressions:
    """Parsed allow()/allow-file() directives for one file."""

    # check -> set of covered lines (the comment's own line and the next
    # non-comment line, so both trailing and preceding placements work)
    line_allows: dict[str, set[int]]
    file_allows: set[str]
    malformed: list[Finding]  # DK-S001 findings

    def covers(self, check: str, line: int) -> bool:
        return check in self.file_allows or line in self.line_allows.get(
            check, ())


def parse_suppressions(src: SourceFile) -> Suppressions:
    line_allows: dict[str, set[int]] = {}
    file_allows: set[str] = set()
    malformed: list[Finding] = []
    for start_line in sorted(src.comments):
        for comment in src.comments[start_line]:
            m = _ALLOW.search(comment)
            if m is None:
                continue
            kind, ids_text, tail = m.groups()
            checks = [c.strip() for c in ids_text.split(",") if c.strip()]
            reason_ok = bool(_REASON.search(tail.strip())) and len(
                tail.strip()
            ) > 4
            if not reason_ok:
                malformed.append(
                    Finding(
                        src.path,
                        start_line,
                        S001,
                        f"suppression '{kind}({ids_text})' has no reason; "
                        "append '— <why this is safe>'",
                    )
                )
            bad = [c for c in checks if not validate_check_id(c)]
            for c in bad:
                malformed.append(
                    Finding(
                        src.path,
                        start_line,
                        S001,
                        f"suppression names unknown or retired check '{c}'",
                    )
                )
            checks = [c for c in checks if validate_check_id(c)]
            if kind == "allow-file":
                if start_line <= ALLOW_FILE_WINDOW:
                    file_allows.update(checks)
                else:
                    malformed.append(
                        Finding(
                            src.path,
                            start_line,
                            S001,
                            "allow-file() must appear in the first "
                            f"{ALLOW_FILE_WINDOW} lines",
                        )
                    )
                continue
            comment_span = range(
                start_line, start_line + comment.count("\n") + 1
            )
            covered = set(comment_span)
            covered |= _next_statement_lines(src, comment_span.stop - 1)
            for c in checks:
                line_allows.setdefault(c, set()).update(covered)
    return Suppressions(line_allows, file_allows, malformed)


def _next_statement_lines(src: SourceFile, after: int) -> set[int]:
    """Lines of the statement (or declaration) that begins on the first code
    line strictly after `after`, so a suppression above a statement covers
    all of it even when the offending token sits on a wrapped line."""
    toks = src.tokens
    start = next((i for i, t in enumerate(toks) if t.line > after), None)
    if start is None:
        return {after + 1}
    lines = {toks[start].line}
    depth = 0
    for t in toks[start:]:
        lines.add(t.line)
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        if (t.text == ";" and depth <= 0) or (t.text == "{" and depth == 1):
            break
    return lines
