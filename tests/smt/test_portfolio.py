"""Portfolio escalation: verdict identity, UNKNOWN-iff-both-exhausted, wins."""

import pytest

from repro.smt import terms as t
from repro.smt.bitblast import BitBlaster
from repro.smt.portfolio import BASELINE, REVERSED, _Runner, run_portfolio
from repro.smt.sat import SatResult, SatSolver, SolverConfig
from repro.smt.solver import QueryStats, Result, Solver


def const(value, width=8):
    return t.bv_const(value & ((1 << width) - 1), width)


def bv(name, width=8):
    return t.bv_var(name, width)


def _shiftadd(x, c, width):
    acc = t.bv_const(0, width)
    bit = 0
    while c:
        if c & 1:
            acc = t.add(acc, t.shl(x, t.bv_const(bit, width)))
        c >>= 1
        bit += 1
    return acc


def _miter(width, c, name="x"):
    """``x*C != shiftadd(x, C)``: UNSAT, needs real multiplier search."""
    x = t.bv_var(name, width)
    return t.ne(t.mul(x, t.bv_const(c, width)), _shiftadd(x, c, width))


#: a hard head conjoined with a refutable tail: the unlucky orientation
def _hard_head_query():
    return t.and_(_miter(10, 0x15D, "x"), _miter(6, 0x2D, "z"))


class TestMemberTable:
    def test_member_zero_is_exact_baseline(self):
        """The baseline runner is the single solver: default configuration
        on the goal as given, so it searches step for step alike."""
        goal = _miter(6, 0x2D)
        runner = _Runner(BASELINE, goal)
        assert runner.sat._config == SolverConfig()
        single = SatSolver()
        BitBlaster(single).assert_term(goal)
        assert runner.sat.solve() is single.solve() is SatResult.UNSAT
        assert runner.sat.stats == single.stats

    def test_reversed_form_member_keeps_default_config(self):
        """Form diversity must not be washed out by a seed nudge: the
        reversed-form runner is the baseline configuration on the
        reversed conjunction (a seeded variant loses the easy-tail win)."""
        runner = _Runner(REVERSED, _hard_head_query(), reversed_form=True)
        assert runner.sat._config == SolverConfig()

    def test_member_names_unique(self):
        assert BASELINE != REVERSED


class TestRaceVerdicts:
    def test_sat_verdict_with_verified_model(self):
        x, y = bv("x"), bv("y")
        goal = t.and_(t.eq(t.mul(x, y), const(56)), t.ult(x, y))
        outcome = run_portfolio(goal, 10_000)
        assert outcome.result is SatResult.SAT
        assert outcome.winner is not None
        assert outcome.winner_blaster is not None

    def test_unsat_verdict(self):
        outcome = run_portfolio(_miter(6, 0x2D), 10_000)
        assert outcome.result is SatResult.UNSAT
        assert outcome.winner is not None
        assert outcome.winner_blaster is None

    def test_matches_single_solver_on_decided(self):
        x = bv("x")
        cases = [
            t.eq(t.mul(x, x), const(49)),
            _miter(5, 0xB),
            t.and_(t.ult(x, const(4)), t.ult(const(9), x)),
        ]
        for goal in cases:
            single = Solver(conflict_budget=50_000).check_sat(goal)
            raced = Solver(conflict_budget=50_000, portfolio=True).check_sat(
                goal
            )
            assert raced is single

    def test_unknown_only_when_every_member_exhausts(self):
        # The width-10 multiplier-equivalence miter needs ~2000 conflicts
        # in either form: a 2-conflict budget decides nothing.
        outcome = run_portfolio(_miter(10, 0x15D), 2, probe=0)
        assert outcome.result is SatResult.UNKNOWN
        assert outcome.winner is None
        assert set(outcome.exhausted) == {BASELINE, REVERSED}

    def test_reversed_form_wins_hard_head_conjunction(self):
        """The signature portfolio win: the refutable conjunct is last in
        encoding order, so the baseline grinds the hard head while the
        reversed form refutes the tail in its first slice."""
        # A small probe: the hard head survives it (the full default probe
        # would grind this mid-size head out before ever escalating).
        outcome = run_portfolio(_hard_head_query(), 100_000, probe=256)
        assert outcome.result is SatResult.UNSAT
        assert outcome.escalated
        assert outcome.winner == REVERSED
        # Probe plus race still decided well before the single-solver
        # conflict count (the miter head alone needs thousands).
        assert outcome.conflicts < 2_000


class TestSolverIntegration:
    def test_easy_query_decided_by_probe(self):
        # The width-5 miter needs ~30 conflicts: the triage probe decides
        # it without ever escalating, so no win is attributed.
        solver = Solver(conflict_budget=50_000, portfolio=True)
        assert solver.check_sat(_miter(5, 0xB)) is Result.UNSAT
        stats = solver.stats
        assert stats.portfolio_queries == 1
        assert stats.portfolio_probe_decided == 1
        assert stats.portfolio_escalations == 0
        assert stats.portfolio_reversed_wins == 0

    def test_portfolio_counters_populate(self):
        # A starved budget: the baseline exhausts it inside the probe on
        # the hard head (a single solver returns UNKNOWN), the query
        # escalates, and the reversed form refutes the tail.
        assert Solver(conflict_budget=300).check_sat(_hard_head_query()) is (
            Result.UNKNOWN
        )
        solver = Solver(conflict_budget=300, portfolio=True)
        assert solver.check_sat(_hard_head_query()) is Result.UNSAT
        stats = solver.stats
        assert stats.portfolio_queries == 1
        assert stats.portfolio_probe_decided == 0
        assert stats.portfolio_escalations == 1
        assert stats.portfolio_reversed_wins == 1

    def test_portfolio_flag_is_a_bool(self):
        # Portfolio widths were integers once, and 1 meant "off".
        for width in (0, 1, 4):
            with pytest.raises(TypeError):
                Solver(portfolio=width)

    def test_portfolio_never_stores_to_shared_cache(self):
        from repro.smt.cache import QueryCache

        cache = QueryCache()
        solver = Solver(conflict_budget=50_000, portfolio=True, cache=cache)
        assert solver.check_sat(_miter(5, 0xB)) is Result.UNSAT
        assert cache.stats.stores == 0

    def test_session_escalates_unknown_to_portfolio(self):
        x = bv("x", 10)
        prefix = t.ult(x, t.bv_const(1000, 10))
        # Starved scoped solver: the session check itself is UNKNOWN,
        # then the escalation (same budget, fresh runners) runs.
        delta = _miter(10, 0x15D)
        solver = Solver(conflict_budget=2, portfolio=True)
        with solver.session([prefix]) as session:
            outcome = session.check(delta)
        assert solver.stats.portfolio_queries == 1
        assert outcome in (Result.UNKNOWN, Result.SAT, Result.UNSAT)

    def test_sessions_keep_scoped_solver_when_decided(self):
        x = bv("x")
        solver = Solver(portfolio=True)
        with solver.session([t.ult(x, const(10))]) as session:
            assert session.check(t.ult(const(3), x)) is Result.SAT
        assert solver.stats.portfolio_queries == 0


class TestTriage:
    """Adaptive triage: probe-alone decisions, escalation, verdict identity."""

    def test_probe_decided_flags_on_easy_query(self):
        outcome = run_portfolio(_miter(5, 0xB), 50_000, probe=512)
        assert outcome.result is SatResult.UNSAT
        assert outcome.probe_decided
        assert not outcome.escalated
        assert outcome.winner == BASELINE

    def test_escalation_flags_on_hard_query(self):
        outcome = run_portfolio(_hard_head_query(), 100_000, probe=512)
        assert outcome.result is SatResult.UNSAT
        assert outcome.escalated
        assert not outcome.probe_decided
        assert outcome.winner == REVERSED

    def test_probe_zero_never_sets_flags(self):
        outcome = run_portfolio(_miter(5, 0xB), 50_000, probe=0)
        assert outcome.result is SatResult.UNSAT
        assert not outcome.probe_decided
        assert not outcome.escalated

    def test_triage_verdict_identical_to_always_race(self):
        # The probe reuses the baseline runner's slice schedule, so both
        # runners' search trajectories — and hence the verdict, including
        # UNKNOWN — match a race from the start exactly.
        x, y = bv("x"), bv("y")
        cases = [
            (t.and_(t.eq(t.mul(x, y), const(56)), t.ult(x, y)), 50_000),
            (_miter(5, 0xB), 50_000),
            (_hard_head_query(), 100_000),
            (_miter(10, 0x15D), 2),  # starved: UNKNOWN both ways
            (_miter(10, 0x15D), 700),  # starved mid-escalation
        ]
        for goal, budget in cases:
            always = run_portfolio(goal, budget, probe=0)
            triaged = run_portfolio(goal, budget, probe=512)
            assert triaged.result is always.result, (goal, budget)
            assert set(triaged.exhausted) == set(always.exhausted)

    def test_unknown_on_escalation_reports_all_members_exhausted(self):
        outcome = run_portfolio(_miter(10, 0x15D), 700, probe=512)
        assert outcome.result is SatResult.UNKNOWN
        assert outcome.escalated
        assert set(outcome.exhausted) == {BASELINE, REVERSED}

    def test_invalid_probe_rejected(self):
        with pytest.raises(ValueError):
            run_portfolio(_miter(5, 0xB), 100, probe=-1)

    def test_stats_counters_merge(self):
        left = QueryStats(portfolio_reversed_wins=2)
        right = QueryStats(
            portfolio_probe_decided=3,
            portfolio_escalations=1,
            portfolio_reversed_wins=1,
        )
        left.merge(right)
        assert left.portfolio_probe_decided == 3
        assert left.portfolio_escalations == 1
        assert left.portfolio_reversed_wins == 3


class TestMemberSoundness:
    """The reversed form alone agrees with the baseline."""

    @pytest.mark.parametrize("member", [REVERSED])
    def test_member_agrees_with_baseline(self, member):
        x, y = bv("x"), bv("y")
        goals = [
            t.eq(t.mul(x, y), const(56)),
            _miter(5, 0xB),
            t.and_(t.eq(t.mul(x, x), const(49)), t.ult(x, const(200))),
            t.and_(t.ult(x, const(4)), t.ult(const(9), x)),
        ]
        for goal in goals:
            baseline = _Runner(BASELINE, goal).sat
            expected = baseline.solve(conflict_budget=50_000)
            runner = _Runner(member, goal, reversed_form=True)
            got = runner.sat.solve(conflict_budget=50_000)
            assert got is expected, goal
