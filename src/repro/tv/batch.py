"""Batch validation over a corpus of functions (the GCC experiment, §5.1)."""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from statistics import mean, median

from repro.llvm import ir
from repro.smt import QueryCache, QueryStats
from repro.tv.driver import Category, TvOptions, TvOutcome, validate_function


@dataclass
class BatchResult:
    outcomes: list[TvOutcome] = field(default_factory=list)
    #: solver counters merged across every validated function.
    solver_stats: QueryStats = field(default_factory=QueryStats)
    #: cross-function dedup stats (see :mod:`repro.tv.dedup`): number of
    #: identical-body classes, and how many outcomes were replayed instead
    #: of validated.
    dedup_classes: int = 0
    deduped_functions: int = 0

    @property
    def supported(self) -> list[TvOutcome]:
        return [o for o in self.outcomes if o.category != Category.UNSUPPORTED]

    @property
    def category_counts(self) -> Counter:
        """Outcome tally — one O(n) pass, not one per category queried."""
        return Counter(o.category for o in self.outcomes)

    @property
    def failure_class_counts(self) -> Counter:
        """Failure tally over the campaign taxonomy (see
        :data:`repro.keq.report.FAILURE_CLASSES`).  Render it by iterating
        that tuple, never the Counter itself, so output order is stable."""
        return Counter(
            o.failure_class for o in self.outcomes if o.failure_class
        )

    def count(self, category: str) -> int:
        return self.category_counts[category]

    def success_rate(self) -> float:
        counts = self.category_counts
        supported = len(self.outcomes) - counts[Category.UNSUPPORTED]
        if not supported:
            return 0.0
        return counts[Category.SUCCEEDED] / supported

    def times(self) -> list[float]:
        return [o.seconds for o in self.supported]

    def sizes(self) -> list[int]:
        return [o.code_size for o in self.supported]

    def merge_stats(self) -> None:
        """Recompute ``solver_stats`` from the per-outcome counters."""
        merged = QueryStats()
        for outcome in self.outcomes:
            if outcome.solver_stats is not None:
                merged.merge(outcome.solver_stats)
        self.solver_stats = merged

    def figure6_rows(self) -> list[tuple[str, int]]:
        """The rows of the paper's Figure 6."""
        counts = self.category_counts
        supported = len(self.outcomes) - counts[Category.UNSUPPORTED]
        return [
            ("Succeeded", counts[Category.SUCCEEDED]),
            ("Failed due to timeout", counts[Category.TIMEOUT]),
            ("Failed due to out-of-memory", counts[Category.OOM]),
            (
                "Other",
                counts[Category.OTHER] + counts[Category.MISCOMPILED],
            ),
            ("Total", supported),
        ]

    @property
    def targets(self) -> tuple[str, ...]:
        """Target ISAs stamped on the outcomes (normally exactly one)."""
        return tuple(sorted({o.target for o in self.outcomes}))

    def summary(self) -> str:
        lines = []
        if self.outcomes:
            lines.append(f"target: {','.join(self.targets)}")
        lines.append("Result                         #Functions")
        for label, value in self.figure6_rows():
            lines.append(f"{label:<30} {value}")
        times = self.times()
        if times:
            lines.append(
                f"time: mean={mean(times):.3f}s median={median(times):.3f}s"
                f" max={max(times):.3f}s"
            )
        lines.append(f"success rate: {100 * self.success_rate():.2f}%")
        stats = self.solver_stats
        if stats.queries:
            lookups = stats.cache_hits + stats.cache_misses
            rate = 100 * stats.cache_hits / lookups if lookups else 0.0
            lines.append(
                f"solver: queries={stats.queries} sat_calls={stats.sat_calls}"
                f" sat_calls_sat={stats.sat_calls_sat}"
                f" sat_calls_unsat={stats.sat_calls_unsat}"
                f" witnessed={stats.witnessed}"
                f" refuted={stats.refuted}"
                f" cache_hits={stats.cache_hits}"
                f" cache_misses={stats.cache_misses}"
                f" hit-rate={rate:.1f}%"
            )
        lines.extend(solver_counter_lines(stats))
        if self.deduped_functions:
            lines.append(
                f"dedup: {self.dedup_classes} classes,"
                f" {self.deduped_functions} outcomes replayed"
            )
        return "\n".join(lines)


def solver_counter_lines(stats: QueryStats) -> list[str]:
    """The ``session:`` summary line, present only when incremental
    sessions ran (batch summaries and ``campaign status`` share this
    renderer)."""
    lines = []
    if stats.incremental_checks:
        lines.append(
            f"session: checks={stats.incremental_checks}"
            f" clauses_reused={stats.clauses_reused}"
            f" evicted={stats.clauses_evicted}"
        )
    return lines


def merge_results(results) -> BatchResult:
    """Fold many :class:`BatchResult`\\ s (e.g. one per campaign shard) into
    one.

    Deterministic regardless of shard completion order: outcomes are sorted
    by function name, so two merges of the same shard set render
    byte-identical summaries no matter which shard finished first.
    """
    merged = BatchResult()
    for result in results:
        merged.outcomes.extend(result.outcomes)
        merged.dedup_classes += result.dedup_classes
        merged.deduped_functions += result.deduped_functions
    merged.outcomes.sort(key=lambda outcome: outcome.function)
    merged.merge_stats()
    return merged


def replay_outcomes(
    outcomes: list[TvOutcome], replay: dict[str, str]
) -> list[TvOutcome]:
    """Materialise deduped outcomes: for every ``duplicate -> representative``
    pair, append a marked copy of the representative's outcome (zero time,
    no solver stats — the work happened once)."""
    by_name = {outcome.function: outcome for outcome in outcomes}
    replayed = list(outcomes)
    for duplicate, representative in replay.items():
        source = by_name.get(representative)
        if source is None:
            continue
        replayed.append(
            dataclasses.replace(
                source,
                function=duplicate,
                seconds=0.0,
                solver_stats=None,  # no solver work: don't double-count
                deduped=True,
                dedup_of=representative,
            )
        )
    return replayed


def run_batch(
    module: ir.Module,
    options: TvOptions | None = None,
    function_names: list[str] | None = None,
    overrides: dict[str, TvOptions] | None = None,
    cache: QueryCache | None = None,
    cache_dir: str | None = None,
) -> BatchResult:
    """Validate every function of a module (or the listed subset).

    ``overrides`` supplies per-function options (used by the corpus runner
    to validate designated functions with the imprecise liveness variant).
    One :class:`~repro.smt.cache.QueryCache` is shared across the whole
    batch — pass ``cache`` to reuse an existing one, or ``cache_dir`` to
    also persist decided queries across runs.
    """
    result = BatchResult()
    names = function_names if function_names is not None else list(module.functions)
    overrides = overrides or {}
    if cache is None:
        cache = QueryCache(cache_dir=cache_dir)
    for name in names:
        result.outcomes.append(
            validate_function(module, name, overrides.get(name, options), cache)
        )
    result.merge_stats()
    return result


def corpus_overrides(corpus, base: TvOptions) -> dict[str, TvOptions]:
    """Per-function option overrides for a generated corpus.

    Derived from the *passed* base options — a function designated for the
    imprecise-liveness variant must still inherit every other setting of
    the campaign configuration (budgets, ISel flags, ...).
    """
    overrides: dict[str, TvOptions] = {}
    for spec in corpus.functions:
        if spec.imprecise_liveness:
            overrides[spec.name] = dataclasses.replace(
                base, imprecise_liveness=True
            )
    return overrides


def run_corpus(
    corpus,
    options: TvOptions | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    dedup: bool = True,
) -> BatchResult:
    """Validate a generated corpus (see :mod:`repro.workloads.corpus`).

    ``jobs > 1`` fans the functions out over worker processes via
    :func:`repro.tv.parallel.run_batch_parallel`.  With ``dedup`` (the
    default), functions with identical bodies (see :mod:`repro.tv.dedup`)
    are validated once per class and the outcome is replayed for the rest
    with a ``deduped`` marker.
    """
    module = corpus.build_module()
    base = options or TvOptions.for_campaign()
    overrides = corpus_overrides(corpus, base)
    names = list(module.functions)
    plan = None
    if dedup:
        from repro.tv.dedup import plan_dedup

        plan = plan_dedup(module, names, base, overrides)
        run_names = plan.run_names
    else:
        run_names = names
    if jobs > 1:
        from repro.tv.parallel import run_batch_parallel

        result = run_batch_parallel(
            module,
            base,
            jobs=jobs,
            function_names=run_names,
            overrides=overrides,
            cache_dir=cache_dir,
        )
    else:
        result = run_batch(
            module,
            base,
            function_names=run_names,
            overrides=overrides,
            cache_dir=cache_dir,
        )
    if plan is not None and plan.replay:
        by_name = {
            outcome.function: outcome
            for outcome in replay_outcomes(result.outcomes, plan.replay)
        }
        result.outcomes = [by_name[name] for name in names]
        result.merge_stats()
    if plan is not None:
        result.dedup_classes = plan.classes
        result.deduped_functions = plan.deduped
    return result
