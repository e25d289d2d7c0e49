"""Machine-checkable equivalence proofs.

The paper lists three TV components; the proof system "generates a
machine-checkable equivalence proof, and checks the proof for
correctness".  When :class:`~repro.keq.symbolic.KeqOptions` sets
``record_proof``, KEQ records every discharged obligation — each one an
*unsatisfiability claim* over a closed formula — together with the pair
structure they justify.  :class:`ProofChecker` then re-verifies the proof
with a fresh solver, fully independently of the search that produced it.

The proof object is self-contained: re-checking does not re-run symbolic
execution, only the logical obligations (plus structural sanity: every
executable point contributed a check, and each claim is well-formed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.smt import Result, Solver
from repro.smt.printer import to_str
from repro.smt.terms import Term


@dataclass(frozen=True)
class Obligation:
    """One discharged proof obligation: ``claim_unsat`` is unsatisfiable."""

    kind: str  # "pc-implication" | "constraint" | "memory" | "feasibility"
    source_point: str
    target_point: str
    claim_unsat: Term
    description: str = ""

    def render(self) -> str:
        return (
            f"[{self.kind}] {self.source_point} -> {self.target_point}: "
            f"UNSAT({to_str(self.claim_unsat, max_depth=6)})"
            + (f"  ({self.description})" if self.description else "")
        )


@dataclass(frozen=True)
class MatchedPair:
    """A successor pair and the synchronization point covering it."""

    source_point: str
    target_point: str
    left_state: str
    right_state: str


@dataclass
class EquivalenceProof:
    """The witness KEQ produces for a VALIDATED verdict."""

    left_program: str
    right_program: str
    point_names: list[str] = field(default_factory=list)
    executable_points: list[str] = field(default_factory=list)
    matched_pairs: list[MatchedPair] = field(default_factory=list)
    obligations: list[Obligation] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"equivalence proof: {self.left_program} ~ {self.right_program}",
            f"  synchronization points: {', '.join(self.point_names)}",
            f"  matched pairs: {len(self.matched_pairs)}",
            f"  obligations: {len(self.obligations)}",
        ]
        lines += [f"    {o.render()}" for o in self.obligations[:20]]
        if len(self.obligations) > 20:
            lines.append(f"    ... {len(self.obligations) - 20} more")
        return "\n".join(lines)


@dataclass
class CheckOutcome:
    ok: bool
    failures: list[str] = field(default_factory=list)
    obligations_checked: int = 0


class ProofChecker:
    """Independent re-verification of an :class:`EquivalenceProof`."""

    def __init__(self, solver: Solver | None = None):
        self.solver = solver or Solver()

    def check(self, proof: EquivalenceProof) -> CheckOutcome:
        outcome = CheckOutcome(ok=True)
        # Structural sanity: every executable point must have produced at
        # least one matched pair or at least one obligation (a point whose
        # successors are all vacuous still records feasibility claims).
        covered = {pair.source_point for pair in proof.matched_pairs}
        covered |= {o.source_point for o in proof.obligations}
        for point in proof.executable_points:
            if point not in covered:
                outcome.ok = False
                outcome.failures.append(
                    f"executable point {point} has no recorded evidence"
                )
        for obligation in proof.obligations:
            result = self.solver.check_sat(obligation.claim_unsat)
            outcome.obligations_checked += 1
            if result is not Result.UNSAT:
                outcome.ok = False
                outcome.failures.append(
                    f"obligation failed re-check: {obligation.render()}"
                )
        return outcome

