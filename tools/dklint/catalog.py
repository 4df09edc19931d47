"""Check catalog: stable IDs, descriptions, and the Finding record.

Every check has a stable ``DK-<family><number>`` ID. IDs are never reused or
renumbered; retired checks keep their slot. The catalog is the single source
of truth for the checks, the suppression parser and the fixture runner —
docs/STATIC_ANALYSIS.md is generated prose over this table.
"""

from __future__ import annotations

import dataclasses

# ---------------------------------------------------------------------------
# Check identifiers


D001 = "DK-D001"  # wall-clock read
D002 = "DK-D002"  # ambient randomness
D003 = "DK-D003"  # iteration over unordered containers
D004 = "DK-D004"  # pointer-keyed hashed container in deterministic scopes
H001 = "DK-H001"  # heap traffic inside a DK_HOT function
# DK-H002 (std::function inside a DK_HOT function) is retired: every DK_HOT
# function is in src/, where DK-C006 bans std::function outright.
H003 = "DK-H003"  # risky lambda capture inside a DK_HOT function
# DK-T001 (unguarded member of a mutex-bearing class) is retired: src/ has
# no mutex left to guard, and DK-T002 keeps it that way.
T002 = "DK-T002"  # threading primitive in single-threaded src/
C001 = "DK-C001"  # naked assert() or <cassert>
C002 = "DK-C002"  # header whose first directive is not #pragma once
C003 = "DK-C003"  # .cpp whose first include is not its own header
C004 = "DK-C004"  # unsorted project includes
C005 = "DK-C005"  # attach_* point with a non-canonical first parameter
C006 = "DK-C006"  # std::function in src/
C007 = "DK-C007"  # header nothing but its own .cpp includes
C008 = "DK-C008"  # config field nothing assigns by name
C009 = "DK-C009"  # const_cast in src/
S001 = "DK-S001"  # suppression comment without a reason

CHECKS: dict[str, str] = {
    D001: "wall-clock read (std::chrono::*_clock::now); simulation state "
    "must come from the simulated clock",
    D002: "ambient randomness (std::random_device, rand, srand); use a "
    "seeded engine owned by the caller",
    D003: "iteration over std::unordered_{map,set}; order feeds output — "
    "sort the keys or suppress as commutative",
    D004: "pointer-keyed hashed container in a determinism-critical scope "
    "(src/sim, src/rados, src/net); ASLR leaks into iteration order",
    H001: "heap allocation inside a DK_HOT function (new/malloc/"
    "make_unique/make_shared); placement new is exempt",
    H003: "risky lambda capture inside a DK_HOT function (capture-default, "
    "wide by-value set, *this, or non-trivial init-capture)",
    T002: "threading primitive in src/ (threads, async, atomics, mutexes "
    "and locks, condition variables, stop tokens, latches, barriers, "
    "semaphores); src/ is single-threaded (DESIGN §6)",
    C001: "assert() or <cassert> in src/; use DK_CHECK (DK_DCHECK on hot "
    "paths) so release builds count violations",
    C002: "header in src/ whose first preprocessor directive is not "
    "#pragma once",
    C003: ".cpp in src/ whose first project include is not its own header",
    C004: "project (\"...\") includes of a src/ file not alphabetically "
    "sorted (a .cpp's own header first)",
    C005: "attach_metrics/attach_validator declared without "
    "MetricsRegistry& / PipelineValidator& as its first parameter",
    C006: "std::function in src/; callbacks are dk::sim::UniqueFn "
    "(zero-alloc, move-only)",
    C007: "header in src/ that no file in src/, bench/, examples/ or "
    "perfbench/ includes but its own .cpp; wire it in or delete it",
    C008: "field of a src/ *Config/*Params/*Spec struct that nothing in "
    "src/, bench/, examples/, perfbench/ or tests/ assigns by name",
    C009: "const_cast in src/; page bytes change only through "
    "PageRef::writable(), which forgets the page's remembered CRC",
    S001: "dklint suppression without a reason, or naming an unknown or "
    "retired check; every allow() needs a —-separated justification",
}

# std:: names DK-T002 flags in src/. src/ is single-threaded (DESIGN §6):
# the simulator and everything it drives run on one thread.
THREADING = frozenset({
    "thread", "jthread", "async",
    "atomic", "atomic_ref", "atomic_flag",
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock",
    "condition_variable", "condition_variable_any",
    "stop_token", "stop_source",
    "latch", "barrier", "counting_semaphore", "binary_semaphore",
})

# Scopes (relative path prefixes) where DK-D004 applies. Hashing a pointer is
# fine in diagnostics; in these subsystems iteration order may feed scheduling
# or wire order, where ASLR would break bit-reproducibility.
D004_SCOPES = ("src/sim", "src/rados", "src/net")

# Suppression comment grammar:
#   // dklint: allow(DK-XXXX[, DK-YYYY]) — reason
#   // dklint: allow-file(DK-XXXX[, DK-YYYY]) — reason
# A suppression covers its own line and the statement that follows it
# (same-line or preceding-comment placement); allow-file covers the whole
# translation unit and is only honored within the first 80 lines.
ALLOW_FILE_WINDOW = 80


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a check ID anchored to file:line."""

    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    check: str  # a key of CHECKS
    message: str
    suppressed: bool = False  # matched an allow() — reported only in audits

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.check}: {self.message}"


def validate_check_id(check: str) -> bool:
    return check in CHECKS
