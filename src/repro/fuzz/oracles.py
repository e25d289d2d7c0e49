"""Differential/metamorphic oracles cross-checking the SMT stack's layers.

Every oracle takes generated terms and answers "do two independent layers
of the stack agree?".  A disagreement is returned as a :class:`Violation`
carrying the witness terms and a *pure* predicate the shrinker can re-run
on mutated witnesses.  The layers cross-checked:

- ``simplify`` against concrete evaluation (``smt.eval``) under
  deterministic environments;
- ``Solver.check_sat`` against brute-force enumeration for small variable
  counts;
- every SAT model against ``evaluate`` (the bit-blaster + CDCL pipeline
  against the reference interpreter);
- the negative-form and positive-form implication proofs (the paper's
  Section 3 optimization) against each other on generated sibling
  partitions;
- cached re-runs against uncached runs — the cache's soundness contract
  (outcome identity, including under *smaller* replay budgets), machine-
  checked;
- *function-scoped* sessions (:meth:`repro.smt.solver.Solver.session`) —
  one session spanning several sync-point assumption sets, with
  retraction, revisits, and permuted assumption order — against fresh
  solving on the plain conjunctions: same SAT/UNSAT verdicts, and every
  session model must satisfy its conjunction.

Oracles never raise on stack bugs — they return violations — but they are
allowed to raise on harness bugs (e.g. mis-sorted generated terms), which
tier-1 tests would catch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.fuzz.generator import deterministic_env, deterministic_select
from repro.smt import terms as t
from repro.smt.eval import EvalError, evaluate
from repro.smt.printer import to_str
from repro.smt.simplify import simplify
from repro.smt.solver import Result, Solver
from repro.smt.terms import BOOL, Term


@dataclass
class Violation:
    """An oracle disagreement: the seed of a shrink-and-report cycle."""

    oracle: str
    detail: str
    #: the terms demonstrating the failure (shrunk positionally).
    witnesses: tuple[Term, ...]
    #: pure predicate: do these (mutated) witnesses still fail this oracle?
    predicate: Callable[[tuple[Term, ...]], bool] = field(repr=False)

    @property
    def term(self) -> Term:
        """The primary witness (most violations have exactly one)."""
        return self.witnesses[0]


#: trials per term for the evaluation-based oracles; trials 0/1 are the
#: all-zeros / all-ones corner assignments.
EVAL_TRIALS = 4

#: brute-force enumeration cap: skip formulas whose free variables span
#: more than this many total bits (2^10 = 1024 evaluations).
BRUTE_FORCE_MAX_BITS = 10
BRUTE_FORCE_MAX_VARS = 3

#: conflict budget for oracle-issued solver queries.  Deterministic, and
#: far above what generated queries need; the rare pathological query
#: returns UNKNOWN, which every oracle treats as "no verdict to compare".
ORACLE_BUDGET = 4_000


def _eval_with_selects(term: Term, env, trial: int):
    return evaluate(term, env, deterministic_select(trial))


# ---------------------------------------------------------------------------
# Oracle 1: simplify(t) agrees with t under random environments
# ---------------------------------------------------------------------------


def _simplify_disagreement(term: Term) -> str | None:
    simplified = simplify(term)
    if simplified is term and term.args == ():
        return None
    if simplified.sort is not term.sort:
        return f"simplify changed sort: {term.sort!r} -> {simplified.sort!r}"
    for trial in range(EVAL_TRIALS):
        env = deterministic_env(term, trial)
        try:
            before = _eval_with_selects(term, env, trial)
            after = _eval_with_selects(simplified, env, trial)
        except EvalError as error:
            return f"evaluation raised: {error}"
        if before != after:
            return (
                f"trial {trial}: original evaluates to {before!r}, "
                f"simplified ({to_str(simplified)}) to {after!r} under {env}"
            )
    return None


def check_simplify_eval(term: Term) -> Violation | None:
    """simplify must preserve meaning under every assignment."""
    detail = _simplify_disagreement(term)
    if detail is None:
        return None
    return Violation(
        oracle="simplify-eval",
        detail=detail,
        witnesses=(term,),
        predicate=lambda ws: _simplify_disagreement(ws[0]) is not None,
    )


# ---------------------------------------------------------------------------
# Oracle 2: check_sat agrees with brute-force enumeration
# ---------------------------------------------------------------------------


def _has_select(term: Term) -> bool:
    seen: set[Term] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op == "select":
            return True
        stack.extend(node.args)
    return False


def brute_force_eligible(formula: Term) -> bool:
    """Small enough to enumerate, and free of uninterpreted selects."""
    if formula.sort is not BOOL or _has_select(formula):
        return False
    variables = t.free_vars(formula)
    if len(variables) > BRUTE_FORCE_MAX_VARS:
        return False
    bits = sum(1 if v.sort is BOOL else v.width for v in variables)
    return bits <= BRUTE_FORCE_MAX_BITS


def brute_force_sat(formula: Term) -> bool:
    """Reference decision procedure: try every assignment."""
    variables = sorted(t.free_vars(formula), key=lambda v: v.name)
    domains = [
        (False, True) if v.sort is BOOL else range(1 << v.width)
        for v in variables
    ]
    names = [v.name for v in variables]
    for values in itertools.product(*domains):
        if evaluate(formula, dict(zip(names, values))) is True:
            return True
    return False


def _brute_force_disagreement(formula: Term) -> str | None:
    if not brute_force_eligible(formula):
        return None
    outcome = Solver(conflict_budget=ORACLE_BUDGET).check_sat(formula)
    if outcome is Result.UNKNOWN:
        return None  # budget exhaustion is not a soundness defect
    expected = Result.SAT if brute_force_sat(formula) else Result.UNSAT
    if outcome is not expected:
        return f"solver said {outcome.value}, enumeration says {expected.value}"
    return None


def check_brute_force(formula: Term) -> Violation | None:
    """The full solver pipeline must agree with exhaustive enumeration."""
    detail = _brute_force_disagreement(formula)
    if detail is None:
        return None
    return Violation(
        oracle="solver-vs-enumeration",
        detail=detail,
        witnesses=(formula,),
        predicate=lambda ws: _brute_force_disagreement(ws[0]) is not None,
    )


# ---------------------------------------------------------------------------
# Oracle 3: every SAT model satisfies its formula
# ---------------------------------------------------------------------------


def _select_nodes(term: Term) -> list[Term]:
    seen: set[Term] = set()
    stack = [term]
    out: list[Term] = []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.op == "select":
            out.append(node)
        stack.extend(node.args)
    return out


def _model_violation(formula: Term, model) -> str | None:
    """Replay a model through the reference interpreter; None if it
    satisfies ``formula``."""
    env: dict[str, int | bool] = {}
    for var in t.free_vars(formula):
        if var.sort is BOOL:
            env[var.name] = model.eval_bool(var)
        else:
            env[var.name] = model.eval_bv(var)
    # Select atoms are uninterpreted: read the model's value for every
    # select the solver actually encoded, keyed by the *evaluated* offset
    # so congruent reads stay consistent.  The solver bit-blasts the
    # *simplified* goal, so its select nodes carry the real assignment and
    # must win; original-only nodes (offset rewritten by simplify) are
    # unconstrained, and any value satisfies the simplified goal, so their
    # fallback readings are harmless.
    select_values: dict[tuple[str, int, int], int] = {}
    for node in _select_nodes(simplify(formula)) + _select_nodes(formula):
        offset = evaluate(node.args[0], env)  # offsets are select-free
        key = (node.attr[0], offset, node.attr[1])
        select_values.setdefault(key, model.eval_bv(node))

    def handler(array: str, offset: int, width: int) -> int:
        return select_values.get((array, offset, width), 0)

    try:
        holds = evaluate(formula, env, handler)
    except EvalError as error:
        return f"model evaluation raised: {error}"
    if holds is not True:
        return f"model {env} (selects {select_values}) does not satisfy formula"
    return None


def _model_disagreement(formula: Term) -> str | None:
    if formula.sort is not BOOL:
        return None
    solver = Solver(conflict_budget=ORACLE_BUDGET)
    outcome = solver.check_sat(formula, need_model=True)
    if outcome is not Result.SAT:
        return None
    model = solver.last_model
    if model is None:
        return "SAT with need_model=True but last_model is None"
    return _model_violation(formula, model)


def check_model_soundness(formula: Term) -> Violation | None:
    """A SAT verdict's model, replayed through the reference interpreter,
    must satisfy the original (pre-simplification) formula."""
    detail = _model_disagreement(formula)
    if detail is None:
        return None
    return Violation(
        oracle="model-soundness",
        detail=detail,
        witnesses=(formula,),
        predicate=lambda ws: _model_disagreement(ws[0]) is not None,
    )


# ---------------------------------------------------------------------------
# Oracle 4: negative-form and positive-form implication proofs agree
# ---------------------------------------------------------------------------


def first_true_partition(conditions: Sequence[Term]) -> list[Term]:
    """Mutually-exclusive, exhaustive partition from arbitrary conditions.

    ``p_i = c_i AND NOT c_1 AND ... AND NOT c_{i-1}`` plus the final
    "none held" cell — the disjoint branch structure of a deterministic
    transition system, which is exactly the setting of the paper's
    positive-form optimization.
    """
    cells: list[Term] = []
    none_so_far = t.TRUE
    for condition in conditions:
        cells.append(t.and_(none_so_far, condition))
        none_so_far = t.and_(none_so_far, t.not_(condition))
    cells.append(none_so_far)
    return cells


def _implication_disagreement(witnesses: tuple[Term, ...]) -> str | None:
    antecedent, *conditions = witnesses
    cells = first_true_partition(conditions)
    for index, phi2 in enumerate(cells):
        siblings = [cell for i, cell in enumerate(cells) if i != index]
        negative = Solver(conflict_budget=ORACLE_BUDGET).check_sat(
            t.and_(antecedent, t.not_(phi2))
        )
        positive = Solver(conflict_budget=ORACLE_BUDGET).check_sat(
            t.and_(antecedent, t.disj(siblings))
        )
        if Result.UNKNOWN in (negative, positive):
            continue
        if negative is not positive:
            return (
                f"cell {index}: negative form {negative.value} but "
                f"positive form {positive.value} (phi2 = {to_str(phi2)})"
            )
    return None


def check_implication_forms(
    antecedent: Term, conditions: Sequence[Term]
) -> Violation | None:
    """prove_implies and prove_implies_positive must agree on partitions.

    The sibling cells partition ``NOT phi2`` exactly, so ``phi1 AND NOT
    phi2`` and ``phi1 AND (OR siblings)`` are equisatisfiable; the two
    proof forms disagreeing means one query was decided wrongly.
    """
    witnesses = (antecedent, *conditions)
    detail = _implication_disagreement(witnesses)
    if detail is None:
        return None
    return Violation(
        oracle="positive-vs-negative-form",
        detail=detail,
        witnesses=witnesses,
        predicate=lambda ws: _implication_disagreement(ws) is not None,
    )


# ---------------------------------------------------------------------------
# Oracle 5: cached re-runs are outcome-identical to uncached runs
# ---------------------------------------------------------------------------

#: replay budget for the small-budget leg of the cache oracle; chosen so
#: some queries genuinely flip to UNKNOWN, exercising the cost gate.
REPLAY_BUDGET = 64


def _uncached_outcomes(formulas: Sequence[Term], budget) -> list[Result]:
    return [
        Solver(conflict_budget=budget).check_sat(formula)
        for formula in formulas
    ]


def _cache_disagreement(formulas: tuple[Term, ...]) -> str | None:
    from repro.smt.cache import QueryCache

    budget = ORACLE_BUDGET
    baseline = _uncached_outcomes(formulas, budget)
    cache = QueryCache()
    cold_solver = Solver(conflict_budget=budget, cache=cache)
    cold = [cold_solver.check_sat(formula) for formula in formulas]
    warm_solver = Solver(conflict_budget=budget, cache=cache)
    warm = [warm_solver.check_sat(formula) for formula in formulas]
    for index, formula in enumerate(formulas):
        if not (baseline[index] is cold[index] is warm[index]):
            return (
                f"formula {index}: uncached {baseline[index].value}, cold "
                f"{cold[index].value}, warm {warm[index].value}"
            )
    # Budget-soundness leg: replaying with a *smaller* budget against the
    # populated cache must match an uncached small-budget run exactly (a
    # rich entry must never mask a legitimate UNKNOWN).
    starved_baseline = _uncached_outcomes(formulas, REPLAY_BUDGET)
    starved_solver = Solver(conflict_budget=REPLAY_BUDGET, cache=cache)
    starved = [starved_solver.check_sat(formula) for formula in formulas]
    for index in range(len(formulas)):
        if starved_baseline[index] is not starved[index]:
            return (
                f"formula {index} under budget {REPLAY_BUDGET}: uncached "
                f"{starved_baseline[index].value}, cached "
                f"{starved[index].value}"
            )
    return None


def check_cache_consistency(formulas: Sequence[Term]) -> Violation | None:
    """The PR 1 soundness contract, machine-checked on generated queries."""
    witnesses = tuple(formulas)
    detail = _cache_disagreement(witnesses)
    if detail is None:
        return None
    return Violation(
        oracle="cache-consistency",
        detail=detail,
        witnesses=witnesses,
        predicate=lambda ws: _cache_disagreement(ws) is not None,
    )


# ---------------------------------------------------------------------------
# Oracle 6: function-scoped sessions agree with fresh solving
# ---------------------------------------------------------------------------


def _function_session_disagreement(
    witnesses: tuple[Term, ...],
) -> str | None:
    """One function-scoped session across sync points vs fresh solving.

    The first two witnesses are *sync-point prefixes* (the path conditions
    of two synchronization points of one function pair); the rest are
    per-point deltas.  The session decides every (prefix, delta) pair with
    the prefix riding as a per-check assumption set — exactly how
    :class:`repro.keq.symbolic.Keq` drives its function-scoped session —
    and each verdict must match one fresh reference solver on the plain
    conjunction (memoised, so a revisited query is solved once).  Every
    model a SAT session check leaves must satisfy the conjunction under
    the reference interpreter: learned-clause leakage between checks
    surfaces as a flipped verdict or an unsatisfying model.

    Point 1 is *revisited after* point 2, so the pass also covers the
    retraction hazard: point 2's retracted assumptions leaking into point
    1's re-checks.  Both visits request a model, which forces a SAT answer
    through CDCL (the revisit's in a clause database holding point 2's
    learned clauses); the other points take the fast paths as KEQ does,
    since a model requested under a large prefix costs a full CDCL search.
    The final point assumes both prefixes and is checked under both
    permutations — the canonical-order contract says permuted assumption
    sets are one query, so the verdicts must match each other and the
    fresh conjunction.
    """
    prefix_a, prefix_b, *deltas = witnesses
    reference = Solver(conflict_budget=ORACLE_BUDGET)
    solver = Solver(conflict_budget=ORACLE_BUDGET)
    points = [
        (prefix_a,),
        (prefix_b,),
        (prefix_a,),  # revisit: point 2's assumptions are retracted now
        (prefix_a, prefix_b),
        (prefix_b, prefix_a),  # same point, permuted assumption order
    ]
    with solver.session() as session:
        for point, assumptions in enumerate(points):
            need_model = point in (0, 2)
            for index, delta in enumerate(deltas):
                where = f"point {point} delta {index}"
                conjunction = t.and_(t.conj(assumptions), delta)
                fresh = reference.check_sat(conjunction)
                incremental = session.check(delta, assumptions, need_model)
                if Result.UNKNOWN in (fresh, incremental):
                    continue  # budget exhaustion is not a soundness defect
                if fresh is not incremental:
                    return (
                        f"{where}: fresh solver {fresh.value}, function "
                        f"session {incremental.value} (assumptions = "
                        f"{[to_str(a) for a in assumptions]}, "
                        f"delta = {to_str(delta)})"
                    )
                if incremental is not Result.SAT:
                    continue
                model = solver.last_model
                if model is None:
                    if need_model:
                        return (
                            f"{where}: session SAT with need_model=True but "
                            f"last_model is None"
                        )
                    continue  # answered by the memo, cache or witness search
                detail = _model_violation(conjunction, model)
                if detail is not None:
                    return f"{where}: session {detail}"
    return None


def check_function_session_vs_fresh(
    prefixes: Sequence[Term], deltas: Sequence[Term]
) -> Violation | None:
    """Function-scoped sessions (sync-point prefixes as assumption sets,
    retracted and re-assumed between points) must be outcome-identical to
    fresh per-query solving, and their models must hold."""
    witnesses = (*prefixes, *deltas)
    detail = _function_session_disagreement(witnesses)
    if detail is None:
        return None
    return Violation(
        oracle="function-session-vs-fresh",
        detail=detail,
        witnesses=witnesses,
        predicate=lambda ws: _function_session_disagreement(ws) is not None,
    )
