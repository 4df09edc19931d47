"""Check catalog: stable IDs, descriptions, and the Finding record.

Every check has a stable ``DK-<family><number>`` ID. IDs are never reused or
renumbered; retired checks keep their slot. The catalog is the single source
of truth shared by both analysis backends, the baseline machinery, and the
fixture runner — docs/STATIC_ANALYSIS.md is generated prose over this table.
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
H002 = "DK-H002"  # std::function inside a DK_HOT function
H003 = "DK-H003"  # risky lambda capture inside a DK_HOT function
# DK-T001 (unguarded member of a mutex-bearing class) is retired: src/ has
# no mutex left to guard, and DK-T002 keeps it that way.
T002 = "DK-T002"  # threading primitive in single-threaded src/
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
    H002: "std::function inside a DK_HOT function; use EventFn or a "
    "template parameter",
    H003: "risky lambda capture inside a DK_HOT function (capture-default, "
    "wide by-value set, *this, or non-trivial init-capture)",
    T002: "threading primitive in src/ (threads, async, atomics, mutexes "
    "and locks, condition variables, stop tokens, latches, barriers, "
    "semaphores); src/ is single-threaded (DESIGN §6)",
    S001: "dklint suppression without a reason; every allow() needs a "
    "—-separated justification",
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

# Suppression comment grammar (shared by both backends):
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
    baselined: bool = False  # matched the checked-in baseline

    def key(self) -> tuple[str, str]:
        """Identity used for expectation matching and dedup."""
        return (self.check, f"{self.path}:{self.line}")

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.check}: {self.message}"


def validate_check_id(check: str) -> bool:
    return check in CHECKS
