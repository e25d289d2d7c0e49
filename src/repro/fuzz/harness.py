"""The differential fuzzing campaign driver (``repro fuzz``).

One iteration draws a fresh batch of terms from the seeded generator and
routes them through every applicable oracle; violations are shrunk to
1-minimal counterexamples and reported with their canonical printing, so
``repro.smt.printer.from_canonical`` can replay them in a fresh process.

Everything is deterministic in ``(seed, iterations, config)`` — the CI
smoke job runs a fixed seed, and a failure message *is* a reproduction
recipe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fuzz.generator import GenConfig, TermGenerator
from repro.fuzz.lowering_oracle import check_cross_target_exec
from repro.fuzz.oracles import (
    Violation,
    brute_force_eligible,
    check_brute_force,
    check_cache_consistency,
    check_function_session_vs_fresh,
    check_implication_forms,
    check_model_soundness,
    check_simplify_eval,
)
from repro.fuzz.shrink import shrink
from repro.smt import terms as t
from repro.smt.printer import canonical, to_str
from repro.smt.terms import Term

#: cache-consistency oracle cadence: one batch check per this many
#: iterations.  Each batch formula is solved five times (uncached, cold,
#: warm, starved-uncached, starved-cached), so the batch stays small.
CACHE_CHECK_EVERY = 10
CACHE_BATCH_SIZE = 8

#: restricted shape for brute-force-eligible formulas: few, narrow variables.
_BRUTE_CONFIG = GenConfig(
    widths=(1, 8),
    max_depth=4,
    vars_per_width=1,
    bool_vars=1,
    allow_select=False,
)


@dataclass
class ShrunkViolation:
    """A confirmed oracle violation, reduced to a minimal counterexample."""

    oracle: str
    detail: str
    original: tuple[Term, ...]
    shrunk: tuple[Term, ...]
    iteration: int

    def render(self) -> str:
        lines = [
            f"oracle violated: {self.oracle} (iteration {self.iteration})",
            f"  {self.detail}",
            "  minimal counterexample:",
        ]
        for index, witness in enumerate(self.shrunk):
            label = f"  [{index}] " if len(self.shrunk) > 1 else "  "
            lines.append(f"{label}{to_str(witness)}")
            lines.append(f"{label}canonical: {canonical(witness)}")
        lines.append(
            "  replay with: repro.smt.printer.from_canonical(<canonical>)"
        )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one campaign: counters plus any shrunk violations."""

    seed: int
    iterations: int
    elapsed_seconds: float = 0.0
    oracle_runs: dict[str, int] = field(default_factory=dict)
    violations: list[ShrunkViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def iterations_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.iterations / self.elapsed_seconds

    def summary(self) -> str:
        mix = " ".join(
            f"{name}={count}" for name, count in sorted(self.oracle_runs.items())
        )
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"fuzz seed={self.seed} iterations={self.iterations} "
            f"[{status}] {self.elapsed_seconds:.2f}s "
            f"({self.iterations_per_second():.1f} it/s) oracles: {mix}"
        )


def run_fuzz(
    seed: int,
    iterations: int,
    config: GenConfig | None = None,
    shrink_failures: bool = True,
    max_violations: int = 3,
) -> FuzzReport:
    """Run the differential campaign; stop early after ``max_violations``."""
    config = config or GenConfig(allow_select=True)
    generator = TermGenerator(seed, config)
    brute_generator = TermGenerator(seed ^ 0x5EED, _BRUTE_CONFIG)
    report = FuzzReport(seed=seed, iterations=0)
    pending_cache_batch: list[Term] = []
    started = time.perf_counter()

    def record(violation: Violation | None, iteration: int) -> None:
        name = violation.oracle if violation else None
        if violation is None:
            return
        witnesses = violation.witnesses
        shrunk = (
            shrink(witnesses, violation.predicate)
            if shrink_failures and witnesses
            else witnesses
        )
        report.violations.append(
            ShrunkViolation(
                oracle=name,
                detail=violation.detail,
                original=witnesses,
                shrunk=shrunk,
                iteration=iteration,
            )
        )

    def ran(name: str) -> None:
        report.oracle_runs[name] = report.oracle_runs.get(name, 0) + 1

    for iteration in range(iterations):
        report.iterations = iteration + 1

        # 1. simplify/eval agreement on a bitvector term and a formula.
        width = config.widths[iteration % len(config.widths)]
        bv = generator.bv_term(width)
        ran("simplify-eval")
        record(check_simplify_eval(bv), iteration)
        formula = generator.formula()
        ran("simplify-eval")
        record(check_simplify_eval(formula), iteration)

        # 2. every SAT model must satisfy its formula.
        ran("model-soundness")
        record(check_model_soundness(formula), iteration)

        # 3. solver vs brute-force enumeration on a small-variable formula.
        small = brute_generator.formula()
        if brute_force_eligible(small):
            ran("solver-vs-enumeration")
            record(check_brute_force(small), iteration)

        # 4. positive vs negative implication forms on a sibling partition.
        antecedent = generator.bool_term(3)
        conditions = [generator.bool_term(2) for _ in range(2)]
        ran("positive-vs-negative-form")
        record(check_implication_forms(antecedent, conditions), iteration)

        # 5. function-scoped sessions (sync-point prefixes as assumption
        #    sets, retracted/re-assumed/permuted between points) vs fresh
        #    solving, with every session model replayed: the antecedent
        #    and the iteration's formula (large, with selects) are the
        #    sync-point prefixes, the first condition the per-point delta.
        ran("function-session-vs-fresh")
        record(
            check_function_session_vs_fresh(
                [antecedent, formula], conditions[:1]
            ),
            iteration,
        )

        # 6. cross-target lowering execution: one generated LLVM
        #    function co-executed against its vx86 and vriscv lowerings
        #    on concrete inputs.  Every fifth iteration — each round
        #    runs instruction selection twice and three interpreters.
        if iteration % 5 == 2:
            ran("cross-target-exec")
            record(
                check_cross_target_exec(seed * 100_003 + iteration),
                iteration,
            )

        # 7. cache outcome-identity over the recent query batch.
        pending_cache_batch.append(formula)
        pending_cache_batch.append(small)
        if (iteration + 1) % CACHE_CHECK_EVERY == 0:
            ran("cache-consistency")
            batch = tuple(pending_cache_batch[-CACHE_BATCH_SIZE:])
            record(check_cache_consistency(batch), iteration)
            pending_cache_batch.clear()

        if len(report.violations) >= max_violations:
            break

    report.elapsed_seconds = time.perf_counter() - started
    return report
