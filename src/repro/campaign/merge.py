"""Folding shard results into one deterministic campaign report.

The merger reads only durable state (manifest + journal), so the same
report can be produced live by the supervisor, after a resume, or by a
later ``status`` invocation — and it is byte-identical regardless of shard
completion order: outcomes are sorted by function name before rendering
and every counter is iterated in a fixed order
(:data:`repro.keq.report.FAILURE_CLASSES`), never in Counter insertion
order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.campaign.journal import JournalState
from repro.keq.report import FAILURE_CLASS_CRASH, FAILURE_CLASSES
from repro.smt import QueryStats
from repro.tv.batch import (
    BatchResult,
    merge_results,
    replay_outcomes,
    solver_counter_lines,
)
from repro.tv.driver import Category, TvOutcome


@dataclass
class ShardSummary:
    """Per-shard accounting row (totals include replayed duplicates)."""

    index: int
    total: int = 0
    done: int = 0
    replayed: int = 0
    quarantined: int = 0
    pending: int = 0
    failure_counts: Counter = field(default_factory=Counter)

    def render(self) -> str:
        failures = " ".join(
            f"{name}={self.failure_counts[name]}"
            for name in FAILURE_CLASSES
            if self.failure_counts[name]
        )
        line = (
            f"shard {self.index}: total={self.total} done={self.done}"
            f" replayed={self.replayed} quarantined={self.quarantined}"
            f" pending={self.pending}"
        )
        return line + (f" failures[{failures}]" if failures else "")


def _accounted_outcomes(
    manifest: dict, state: JournalState
) -> tuple[dict[str, TvOutcome], dict[str, str]]:
    """Terminal outcome per accounted function.

    Quarantined functions get a synthesized ``crash`` outcome; dedup
    duplicates replay their representative's outcome (including a
    quarantined representative's — the duplicate never ran either).
    """
    quarantined = state.quarantined
    outcomes: dict[str, TvOutcome] = {}
    for name in manifest["run_names"]:
        outcome = state.outcome(name)
        if outcome is not None:
            outcomes[name] = outcome
        elif name in quarantined:
            outcomes[name] = TvOutcome(
                name,
                Category.OTHER,
                target=manifest.get("target", "vx86"),
                detail=f"quarantined: {quarantined[name]}",
                failure_class=FAILURE_CLASS_CRASH,
            )
    replay = manifest.get("replay", {})
    materialised = replay_outcomes(list(outcomes.values()), replay)
    return {o.function: o for o in materialised}, quarantined


def merge_campaign(manifest: dict, state: JournalState) -> "CampaignReport":
    """Fold the journal into the final (or current partial) report."""
    outcomes, quarantined = _accounted_outcomes(manifest, state)
    replay = manifest.get("replay", {})
    shards: list[ShardSummary] = []
    shard_results: list[BatchResult] = []
    for index, shard_names in enumerate(manifest["shard_lists"]):
        summary = ShardSummary(index=index, total=len(shard_names))
        shard_outcomes = []
        for name in shard_names:
            outcome = outcomes.get(name)
            if outcome is None:
                summary.pending += 1
                continue
            shard_outcomes.append(outcome)
            if name in quarantined:
                summary.quarantined += 1
            elif name in replay:
                summary.replayed += 1
            else:
                summary.done += 1
            if outcome.failure_class:
                summary.failure_counts[outcome.failure_class] += 1
        shards.append(summary)
        shard_results.append(BatchResult(outcomes=shard_outcomes))
    batch = merge_results(shard_results)
    batch.dedup_classes = manifest.get("dedup_classes", 0)
    batch.deduped_functions = sum(
        1 for name in replay if name in outcomes
    )
    return CampaignReport(
        batch=batch,
        shards=shards,
        quarantined=dict(sorted(quarantined.items())),
        total_functions=len(manifest["functions"]),
        halts=state.halts,
    )


@dataclass
class CampaignReport:
    """The merged campaign outcome (see module docstring for determinism)."""

    batch: BatchResult
    shards: list[ShardSummary]
    quarantined: dict[str, str]
    total_functions: int
    halts: int = 0

    @property
    def accounted(self) -> int:
        return len(self.batch.outcomes)

    @property
    def complete(self) -> bool:
        return self.accounted == self.total_functions

    @property
    def failure_counts(self) -> Counter:
        return self.batch.failure_class_counts

    def function_table(self) -> list[tuple[str, str, str | None, str]]:
        """Stable per-function rows: (name, category, failure class,
        dedup representative).  Sorted by name — the comparison basis for
        'resumed run == uninterrupted run'."""
        return [
            (o.function, o.category, o.failure_class, o.dedup_of)
            for o in self.batch.outcomes  # merge_results sorted these
        ]

    def summary(self, include_timing: bool = True) -> str:
        """Render the campaign report.

        ``include_timing=False`` drops wall-clock and solver-counter lines
        (cache hits and session reuse depend on how the campaign was
        interrupted), leaving exactly the fields that must match between
        an interrupted+resumed campaign and an uninterrupted one.
        """
        status = "complete" if self.complete else "INCOMPLETE"
        lines = [
            f"campaign: {self.accounted}/{self.total_functions}"
            f" functions accounted ({status})"
        ]
        for line in self.batch.summary().splitlines():
            if not include_timing and line.startswith(
                ("time:", "solver:", "session:")
            ):
                continue
            lines.append(line)
        counts = self.failure_counts
        lines.append(
            "failure classes: "
            + " ".join(f"{name}={counts[name]}" for name in FAILURE_CLASSES)
        )
        if self.quarantined:
            for name, reason in self.quarantined.items():
                lines.append(f"quarantined: {name} ({reason})")
        else:
            lines.append("quarantined: none")
        lines.extend(shard.render() for shard in self.shards)
        return "\n".join(lines)


@dataclass
class CampaignStatus:
    """Lightweight progress view (no module rebuild, no outcome objects)."""

    total_functions: int
    run_total: int
    done: int
    replay_ready: int
    quarantined: int
    in_flight: int
    pending: int
    halts: int
    failure_counts: Counter
    shards: list[ShardSummary]
    #: total re-queue events (lease expiries + worker-death retries).
    retries: int = 0
    #: observed worker deaths charged across all functions.
    worker_deaths: int = 0
    #: duplicate results dropped by first-write-wins acceptance.
    duplicates: int = 0
    #: solver counters merged over every journaled outcome.
    solver_stats: QueryStats = field(default_factory=QueryStats)
    #: the target ISA recorded in the campaign manifest.
    target: str = "vx86"

    @property
    def complete(self) -> bool:
        return (
            self.done + self.replay_ready + self.quarantined
            >= self.total_functions
        )

    def render(self) -> str:
        state = "complete" if self.complete else "in progress"
        lines = [
            f"campaign status: {state}",
            f"target: {self.target}",
            f"functions: total={self.total_functions} run-units={self.run_total}",
            f"progress: done={self.done} replayed={self.replay_ready}"
            f" quarantined={self.quarantined} in-flight={self.in_flight}"
            f" pending={self.pending}",
            "failure classes: "
            + " ".join(
                f"{name}={self.failure_counts[name]}"
                for name in FAILURE_CLASSES
            ),
            f"retries: requeues={self.retries}"
            f" worker-deaths={self.worker_deaths}"
            f" duplicate-results={self.duplicates}"
            f" quarantined={self.quarantined}",
        ]
        lines.extend(solver_counter_lines(self.solver_stats))
        if self.halts:
            lines.append(f"halts: {self.halts}")
        lines.extend(shard.render() for shard in self.shards)
        return "\n".join(lines)


def build_status(manifest: dict, state: JournalState) -> CampaignStatus:
    report = merge_campaign(manifest, state)
    replay = manifest.get("replay", {})
    in_flight = len(state.orphans())
    accounted_names = {o.function for o in report.batch.outcomes}
    done = sum(
        1
        for name in manifest["run_names"]
        if name in accounted_names and name not in report.quarantined
    )
    replay_ready = sum(1 for name in replay if name in accounted_names)
    pending = report.total_functions - len(accounted_names)
    return CampaignStatus(
        total_functions=report.total_functions,
        run_total=len(manifest["run_names"]),
        done=done,
        replay_ready=replay_ready,
        quarantined=len(report.quarantined),
        in_flight=in_flight,
        pending=pending,
        halts=state.halts,
        failure_counts=report.failure_counts,
        shards=report.shards,
        retries=state.retries,
        worker_deaths=state.worker_deaths,
        duplicates=state.duplicates,
        solver_stats=report.batch.solver_stats,
        target=manifest.get("target", "vx86"),
    )
