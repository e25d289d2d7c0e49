"""End-to-end translation validation of one function (paper Figure 5).

``validate_function`` runs the full pipeline: ISel (with hints) → VC
generation (synchronization points) → KEQ, and classifies the outcome into
the categories of the paper's Figure 6:

- ``SUCCEEDED`` — KEQ proved the translation correct;
- ``TIMEOUT`` — a resource budget ran out (the paper's 3-hour wall-clock
  limit, reproduced deterministically as symbolic-execution step budgets
  and SAT conflict budgets);
- ``OOM`` — the synchronization-point specification exceeded the parser
  memory budget (the paper's K-parser out-of-memory failures, which
  happened while *parsing the sync point specifications*; reproduced as a
  deterministic cap on the specification size);
- ``OTHER`` — inadequate synchronization points (the paper's liveness
  -mismatch failures) and any remaining infrastructure failure;
- ``MISCOMPILED`` — KEQ definitively refuted equivalence (only reachable
  with a bug-injected ISel; zero functions in the paper's GCC run);
- ``UNSUPPORTED`` — outside the supported language fragment (the paper's
  5572-4732=840 excluded functions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.isel import IselError, IselOptions
from repro.keq import (
    FailureReason,
    Keq,
    KeqOptions,
    KeqReport,
    Verdict,
)
from repro.keq.report import FAILURE_CLASS_INADEQUATE_SYNC
from repro.llvm import ir
from repro.llvm.semantics import LlvmSemantics, SemanticsError
from repro.smt import QueryCache, QueryStats, Solver
from repro.targets import DEFAULT_TARGET, get_target
from repro.vcgen import SpecOverBudget, VcGenError, generate_sync_points


class Category:
    SUCCEEDED = "succeeded"
    TIMEOUT = "timeout"
    OOM = "oom"
    OTHER = "other"
    MISCOMPILED = "miscompiled"
    UNSUPPORTED = "unsupported"


@dataclass
class TvOptions:
    isel: IselOptions = field(default_factory=IselOptions)
    keq: KeqOptions = field(default_factory=KeqOptions)
    imprecise_liveness: bool = False
    #: cap on the sync-point specification size (see Category.OOM).
    parser_memory_budget: int | None = 4000
    #: target ISA name (see :mod:`repro.targets`); rides inside the
    #: options object so batch/parallel/campaign/service workers all
    #: validate against the same machine language without any extra
    #: plumbing, and enters dedup fingerprints via ``repr(options)``.
    target: str = DEFAULT_TARGET

    @staticmethod
    def for_campaign(
        wall_budget_seconds: float = 30.0, target: str = DEFAULT_TARGET
    ) -> "TvOptions":
        """Batch-campaign defaults: the paper's per-function wall-clock
        limit (scaled from 3 hours on a Xeon to seconds here)."""
        return TvOptions(
            keq=KeqOptions(wall_budget_seconds=wall_budget_seconds), target=target
        )


@dataclass
class TvOutcome:
    function: str
    category: str
    #: target ISA this outcome was validated against.
    target: str = DEFAULT_TARGET
    report: KeqReport | None = None
    detail: str = ""
    seconds: float = 0.0
    code_size: int = 0  # LLVM instruction count
    sync_points: int = 0
    #: per-function solver counters (merged batch-wide by BatchResult).
    solver_stats: QueryStats | None = None
    #: outcome replayed from a representative with an identical body instead
    #: of being validated (see :mod:`repro.tv.dedup`); ``dedup_of`` names it.
    deduped: bool = False
    dedup_of: str = ""
    #: campaign failure taxonomy bucket (one of
    #: :data:`repro.keq.report.FAILURE_CLASSES`), ``None`` for outcomes
    #: that are not failures (succeeded / unsupported / miscompiled).
    failure_class: str | None = None

    @property
    def ok(self) -> bool:
        return self.category == Category.SUCCEEDED

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        if self.deduped:
            suffix += f" [deduped: {self.dedup_of}]"
        return f"@{self.function}: {self.category}" + suffix


def _code_size(function: ir.Function) -> int:
    return sum(1 for _ in function.instructions())


def validate_function(
    module: ir.Module,
    function_name: str,
    options: TvOptions | None = None,
    cache: QueryCache | None = None,
) -> TvOutcome:
    """Validate one function; ``cache`` is an optional shared solver-level
    query cache (see :mod:`repro.smt.cache`) reused across functions."""
    options = options or TvOptions()
    target = get_target(options.target)
    if cache is not None:
        # Namespace cached query keys by target so vx86/vriscv obligations
        # can never alias across a shared cache store.
        cache = cache.for_target(target.name)
    function = module.function(function_name)
    size = _code_size(function)
    started = time.perf_counter()
    solver = Solver(
        conflict_budget=options.keq.solver_conflict_budget, cache=cache
    )

    def done(
        category: str, report=None, detail="", points=0, failure_class=None
    ) -> TvOutcome:
        if failure_class is None and category in (
            Category.TIMEOUT,
            Category.OOM,
        ):
            failure_class = category  # taxonomy names match these two
        return TvOutcome(
            function_name,
            category,
            target=target.name,
            report=report,
            detail=detail,
            seconds=time.perf_counter() - started,
            code_size=size,
            sync_points=points,
            solver_stats=solver.stats,
            failure_class=failure_class,
        )

    # 1. Instruction selection + hint generation.
    try:
        machine, hints = target.select_function(module, function, options.isel)
    except IselError as error:
        return done(Category.UNSUPPORTED, detail=str(error))

    # 2. Verification condition generation; a spec over the parser memory
    # budget is counted, never built.
    try:
        points = generate_sync_points(
            module,
            function,
            machine,
            hints,
            imprecise_liveness=options.imprecise_liveness,
            target=target.name,
            parser_memory_budget=options.parser_memory_budget,
        )
    except VcGenError as error:
        return done(
            Category.OTHER,
            detail=str(error),
            failure_class=FAILURE_CLASS_INADEQUATE_SYNC,
        )
    except SpecOverBudget as over:
        return done(Category.OOM, detail=str(over), points=over.points)

    # 3. KEQ — language-parametric: the right side is whatever semantics
    # the target registry hands back, through the same entry points.
    left = LlvmSemantics(module)
    right = target.semantics({machine.name: machine})
    keq = Keq(left, right, target.acceptability(), options.keq, solver=solver)
    try:
        report = keq.check_equivalence(points)
    except SemanticsError as error:
        return done(Category.UNSUPPORTED, detail=str(error), points=len(points))
    if report.verdict is Verdict.VALIDATED:
        return done(Category.SUCCEEDED, report, points=len(points))
    if report.verdict is Verdict.TIMEOUT:
        return done(Category.TIMEOUT, report, points=len(points))
    if any(f.reason is FailureReason.UNBOUND_NAME for f in report.failures):
        return done(
            Category.OTHER,
            report,
            detail="inadequate synchronization points",
            points=len(points),
            failure_class=FAILURE_CLASS_INADEQUATE_SYNC,
        )
    if any(f.reason is FailureReason.UNSUPPORTED for f in report.failures):
        return done(Category.UNSUPPORTED, report, points=len(points))
    return done(
        Category.MISCOMPILED,
        report,
        detail="; ".join(str(f) for f in report.failures[:3]),
        points=len(points),
    )
