"""Portfolio escalation: race the reversed conjunction against a baseline
that could not decide cheaply.

One CDCL search is hostage to its encoding order: VSIDS starts from the
order in which the Tseitin encoding meets the goal's conjuncts, so a query
that conjoins a hard obligation with an easily refuted one decides in a
few dozen conflicts when the refutable conjunct comes first, and after
thousands when it comes last.  Of the diversified configurations this
reproduction once raced, the only one that ever won for a structural
reason was the baseline configuration on the *reversed* conjunction
(EXPERIMENTS.md), so that is the one escalation kept.

:func:`run_portfolio` runs the baseline alone until it decides or has spent
``probe`` conflicts (*triage*: most obligations decide well inside
:data:`DEFAULT_PROBE_CONFLICTS`).  A query still undecided escalates: the
reversed form joins, and the two interleave in doubling conflict slices
until one decides or both exhaust the caller's budget.  A SAT answer only
wins once its model replays through the reference evaluator, and UNKNOWN
needs both runners exhausted, so escalation can refine a single-solver
UNKNOWN but never flip a decided verdict.  Everything is deterministic —
the winner, the verdict and every counter are a function of the query
alone — as the campaign layers' byte-identical reports require.

Each runner's budget equals the caller's full conflict budget, so "both
exhausted" is never cheaper than the single-solver UNKNOWN it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.eval import EvalError, evaluate
from repro.smt.sat import SatResult, SatSolver
from repro.smt.terms import Term

#: conflicts granted to a runner in its first slice; doubles every round.
#: A slice is a cap, not a fixed spend — a runner that decides sooner
#: returns immediately.  Each new slice restarts the restart schedule
#: from its base, which measurably helps heavy queries (fresh early
#: restarts re-aim the search) at the price of mild re-descent churn on
#: queries that just overflow a slice boundary.
INITIAL_SLICE = 256
#: slice doubling stops here (keeps ``give`` bounded for huge budgets)
_MAX_SLICE_SHIFT = 16

#: default triage probe: conflicts the baseline alone gets before a query
#: escalates.  Most KEQ obligations decide in well under this (the
#: keq-campaign median is tens of conflicts, the p99 well under a
#: thousand), so easy queries cost exactly one baseline run while the
#: genuinely hard tail still reaches the reversed form.  Tuned on the
#: solver-bound keq corpus: 512 let borderline queries (decided just past
#: the probe) escalate and pay for the reversed form's opening slices.  A
#: constant — never derived from wall clock or load — so campaign resume
#: and byte-identity hold.
DEFAULT_PROBE_CONFLICTS = 2048

#: runner names (the winner attribution of :class:`PortfolioResult`)
BASELINE = "baseline"
REVERSED = "reversed-form"


@dataclass
class PortfolioResult:
    """Outcome of one escalation plus the runners' summed counters."""

    result: SatResult
    winner: str | None = None
    #: blaster of the winning runner (model reads) — SAT only
    winner_blaster: BitBlaster | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    #: runners that ran out of budget (both of them, on UNKNOWN)
    exhausted: tuple[str, ...] = ()
    #: the baseline probe alone decided the query
    probe_decided: bool = False
    #: the probe exhausted and the reversed form joined
    escalated: bool = False


def verify_model(goal: Term, blaster: BitBlaster) -> bool:
    """Replay a runner's SAT model through the reference evaluator.

    The runners' encodings differ, so this is the cheap cross-check that
    an encoding-level bug can never corrupt a verdict.  Select atoms are
    uninterpreted: their values are read back from the blaster keyed by
    the evaluated offset, mirroring the fuzz oracles.
    """
    env: dict[str, int | bool] = {}
    for var in t.free_vars(goal):
        if var.sort is t.BOOL:
            env[var.name] = blaster.model_bool(var)
        else:
            env[var.name] = blaster.model_bv(var)
    selects: dict[tuple[str, int, int], int] = {}
    stack = [goal]
    seen: set[Term] = set()
    try:
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node.op == "select":
                offset = evaluate(node.args[0], env)  # offsets are select-free
                key = (node.attr[0], offset, node.attr[1])
                selects.setdefault(key, blaster.model_bv(node))
            stack.extend(node.args)

        def handler(array: str, offset: int, width: int) -> int:
            return selects.get((array, offset, width), 0)

        return evaluate(goal, env, handler) is True
    except EvalError:
        return False


class _Runner:
    """One search's live solver state."""

    def __init__(self, name: str, goal: Term, reversed_form: bool = False):
        self.name = name
        self.sat = SatSolver()
        self.blaster = BitBlaster(self.sat)
        encoded = goal
        if reversed_form and goal.op == "and":
            encoded = t.conj(list(reversed(goal.args)))
        self.blaster.assert_term(encoded)
        self.spent = 0
        self.rounds = 0
        self.exhausted = False

    def run_slice(self, conflict_budget: int | None) -> SatResult:
        give = INITIAL_SLICE << min(self.rounds, _MAX_SLICE_SHIFT)
        if conflict_budget is not None:
            give = min(give, conflict_budget - self.spent)
            if give <= 0:
                self.exhausted = True
                return SatResult.UNKNOWN
        self.rounds += 1
        before = self.sat.stats.conflicts
        outcome = self.sat.solve(conflict_budget=give)
        self.spent += self.sat.stats.conflicts - before
        if (
            outcome is SatResult.UNKNOWN
            and conflict_budget is not None
            and self.spent >= conflict_budget
        ):
            self.exhausted = True
        return outcome


def run_portfolio(
    goal: Term, conflict_budget: int | None, probe: int = DEFAULT_PROBE_CONFLICTS
) -> PortfolioResult:
    """Decide ``goal`` with the baseline, escalating to the reversed form.

    ``goal`` is the full bit-blasting goal (simplified formula plus theory
    lemmas) exactly as the single-solver path would assert it.

    ``probe > 0``: the baseline runs alone, under its normal slice
    schedule, until it decides (``probe_decided``) or has spent at least
    ``probe`` conflicts; then the reversed form joins (``escalated``).
    Its opening slices run before the baseline's next (doubled) one, and
    the baseline keeps the probe's solver — learned clauses, slice
    schedule and budget accounting carry over — so its trajectory, and
    hence the verdict including UNKNOWN, matches an always-race run.
    ``probe == 0`` races both runners from the start.
    """
    if probe < 0:
        raise ValueError(f"probe budget must be >= 0, got {probe}")
    baseline = _Runner(BASELINE, goal)
    if probe > 0:
        while not baseline.exhausted and baseline.spent < probe:
            outcome = baseline.run_slice(conflict_budget)
            if _decisive(baseline, outcome, goal):
                result = _finish([baseline], outcome, baseline)
                result.probe_decided = True
                return result
        runners = [_Runner(REVERSED, goal, reversed_form=True), baseline]
    else:
        runners = [baseline, _Runner(REVERSED, goal, reversed_form=True)]
    result = _race(runners, goal, conflict_budget)
    result.escalated = probe > 0
    return result


def _race(
    runners: list[_Runner], goal: Term, conflict_budget: int | None
) -> PortfolioResult:
    """Interleave the runners' slices until one decides or all exhaust."""
    while True:
        for runner in runners:
            if runner.exhausted:
                continue
            outcome = runner.run_slice(conflict_budget)
            if _decisive(runner, outcome, goal):
                return _finish(runners, outcome, runner)
        if all(runner.exhausted for runner in runners):
            return _finish(runners, SatResult.UNKNOWN, None)


def _decisive(runner: _Runner, outcome: SatResult, goal: Term) -> bool:
    """True when a runner's answer decides the query.

    A SAT whose model fails replay is *not* definitive — the runner is
    dropped instead of trusted (soundness over speed).
    """
    if outcome is SatResult.UNKNOWN:
        return False
    if outcome is SatResult.SAT and not verify_model(goal, runner.blaster):
        runner.exhausted = True
        return False
    return True


def _finish(
    runners: list[_Runner], outcome: SatResult, winner: _Runner | None
) -> PortfolioResult:
    result = PortfolioResult(result=outcome)
    for runner in runners:
        result.conflicts += runner.sat.stats.conflicts
        result.decisions += runner.sat.stats.decisions
        result.propagations += runner.sat.stats.propagations
    result.exhausted = tuple(
        runner.name for runner in runners if runner.exhausted
    )
    if winner is not None:
        result.winner = winner.name
        if outcome is SatResult.SAT:
            result.winner_blaster = winner.blaster
    return result
