"""Verdicts, failure descriptions, and run statistics for KEQ."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.keq.proof import EquivalenceProof


class Verdict(enum.Enum):
    VALIDATED = "validated"
    NOT_VALIDATED = "not-validated"
    TIMEOUT = "timeout"

    @property
    def ok(self) -> bool:
        return self is Verdict.VALIDATED


#: Campaign failure taxonomy (the paper's Section 5 failure categories,
#: plus ``crash`` for infrastructure failures the paper tallies under
#: "other").  The tuple order is the canonical rendering order — every
#: campaign report iterates it directly so merged output never depends on
#: dict/Counter insertion order.
FAILURE_CLASS_TIMEOUT = "timeout"
FAILURE_CLASS_OOM = "oom"
FAILURE_CLASS_INADEQUATE_SYNC = "inadequate_sync"
FAILURE_CLASS_CRASH = "crash"
FAILURE_CLASSES = (
    FAILURE_CLASS_TIMEOUT,
    FAILURE_CLASS_OOM,
    FAILURE_CLASS_INADEQUATE_SYNC,
    FAILURE_CLASS_CRASH,
)


class FailureReason(enum.Enum):
    UNMATCHED_LEFT = "left successor matched no synchronization point"
    UNMATCHED_RIGHT = "right successor matched no synchronization point"
    CONSTRAINT = "equality constraint not provable"
    MEMORY = "memory contents differ"
    PATH_CONDITION = "path conditions not equivalent"
    UNBOUND_NAME = "state reads a name the point does not constrain"
    STEP_BUDGET = "symbolic execution step budget exhausted"
    SOLVER_UNKNOWN = "solver budget exhausted"
    UNSUPPORTED = "program leaves the supported semantics fragment"


@dataclass
class CheckFailure:
    point: str  # source synchronization point name
    reason: FailureReason
    detail: str = ""

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"[{self.point}] {self.reason.value}{suffix}"


@dataclass
class KeqStats:
    points_checked: int = 0
    pairs_matched: int = 0
    steps_left: int = 0
    steps_right: int = 0
    solver_queries: int = 0
    wall_time: float = 0.0
    #: shared query-cache traffic (see repro.smt.cache).
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class KeqReport:
    verdict: Verdict
    failures: list[CheckFailure] = field(default_factory=list)
    stats: KeqStats = field(default_factory=KeqStats)
    #: the equivalence witness of a VALIDATED check run with
    #: ``KeqOptions.record_proof`` (None otherwise).
    proof: EquivalenceProof | None = None

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    def summary(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        lines += [f"  {failure}" for failure in self.failures]
        lines.append(
            f"  points={self.stats.points_checked}"
            f" pairs={self.stats.pairs_matched}"
            f" steps={self.stats.steps_left}+{self.stats.steps_right}"
            f" queries={self.stats.solver_queries}"
            f" cache={self.stats.cache_hits}/"
            f"{self.stats.cache_hits + self.stats.cache_misses}"
            f" wall={self.stats.wall_time:.3f}s"
        )
        return "\n".join(lines)
