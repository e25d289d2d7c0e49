"""SolverSession: incremental checks vs fresh check_sat.

The contract: ``session.check(delta, assumptions)`` is semantically
``check_sat(conj([*assumptions, delta]))`` — same verdicts, same cache
keys — while reusing one SAT solver and bit-blaster across checks.
"""

import pytest

from repro.smt import terms as t
from repro.smt.cache import QueryCache
from repro.smt.solver import Result, Solver, SolverSession

W = 8


def bv(name):
    return t.bv_var(name, W)


def const(value):
    return t.bv_const(value, W)


def distributive_miter(factor, width=4):
    """``x·(y + c) ≠ x·y + x·c``: UNSAT, but nonlinear, so no word-level
    rewrite decides it and only bit-level multiplier reasoning shows it."""
    x, y = t.bv_var("mx", width), t.bv_var("my", width)
    c = t.bv_const(factor, width)
    return t.ne(t.mul(x, t.add(y, c)), t.add(t.mul(x, y), t.mul(x, c)))


def xor_and_chain(leaf, depth):
    """``bvxor(bvand(·, m_i), k)`` applied ``depth`` times over ``leaf``."""
    term = leaf
    for i in range(depth):
        term = t.bvxor(t.bvand(term, const(0xF0 | i)), const(0x5A))
    return term


class TestSessionVerdicts:
    def test_unsat_delta_under_assumptions(self):
        x, y = bv("x"), bv("y")
        # y = x*(x+1) is always even; asserting its low bit is 1 is UNSAT.
        prefix = t.eq(y, t.mul(x, t.add(x, const(1))))
        solver = Solver()
        with solver.session() as session:
            delta = t.eq(t.extract(y, 0, 0), t.bv_const(1, 1))
            assert session.check(delta, [prefix]) is Result.UNSAT
            sat_delta = t.eq(t.extract(y, 0, 0), t.bv_const(0, 1))
            assert session.check(sat_delta, [prefix]) is Result.SAT

    def test_matches_fresh_solver(self):
        x, y = bv("x"), bv("y")
        prefix = t.eq(y, t.mul(x, x))
        deltas = [
            t.eq(y, const(16)),
            t.ult(y, const(2)),
            t.eq(t.bvand(y, const(1)), const(1)),
            t.eq(t.add(y, y), const(3)),
        ]
        session_solver = Solver()
        fresh_results = [
            Solver().check_sat(t.and_(prefix, delta)) for delta in deltas
        ]
        with session_solver.session() as session:
            incremental = [session.check(delta, [prefix]) for delta in deltas]
        assert incremental == fresh_results

    def test_per_check_assumptions(self):
        x = bv("x")
        solver = Solver()
        with solver.session() as session:
            even = t.eq(t.extract(x, 0, 0), t.bv_const(0, 1))
            odd = t.eq(t.extract(x, 0, 0), t.bv_const(1, 1))
            assert session.check(odd, assumptions=[even]) is Result.UNSAT
            assert session.check(odd) is Result.SAT
            assert session.check(even, assumptions=[even]) is Result.SAT

    def test_interleaved_sat_unsat(self):
        """Learned clauses from UNSAT checks must not leak into later SAT
        checks of the same session (the contamination bug at façade level)."""
        x, y = bv("x"), bv("y")
        prefix = t.eq(y, t.add(x, const(1)))
        solver = Solver()
        with solver.session() as session:
            assert session.check(t.eq(y, x), [prefix]) is Result.UNSAT
            assert session.check(t.eq(y, const(5)), [prefix]) is Result.SAT
            # x = 255 wraps
            assert session.check(t.ult(y, x), [prefix]) is Result.SAT
            assert (
                session.check(t.and_(t.eq(x, const(0)), t.ult(y, x)), [prefix])
                is Result.UNSAT
            )
            assert session.check(t.eq(x, const(0)), [prefix]) is Result.SAT


class TestSessionModels:
    def test_model_satisfies_combined_goal(self):
        x, y = bv("x"), bv("y")
        prefix = t.eq(y, t.mul(x, x))
        solver = Solver()
        with solver.session() as session:
            delta = t.ult(const(3), y)
            assert session.check(delta, [prefix], need_model=True) is Result.SAT
            model = solver.last_model
            assert model is not None
            xv, yv = model.eval_bv(x), model.eval_bv(y)
            assert (xv * xv) & 0xFF == yv
            assert 3 < yv

    def test_trivial_goal_yields_model(self):
        solver = Solver()
        with solver.session() as session:
            assert session.check(t.TRUE, need_model=True) is Result.SAT
            assert solver.last_model is not None


class TestSessionStats:
    def test_incremental_counters(self):
        x, y = bv("x"), bv("y")
        prefix = t.eq(y, t.mul(x, t.add(x, const(1))))
        solver = Solver()
        with solver.session() as session:
            for i in range(3):
                # y is a product of consecutive integers, hence even; each
                # odd target is UNSAT and needs bit-level mult reasoning.
                session.check(t.eq(y, const(2 * i + 1)), [prefix])
        stats = solver.stats
        assert stats.incremental_checks == 3
        assert stats.queries == 3
        # The second and third checks re-encode the shared y*y subterm from
        # the blaster cache.
        assert stats.encode_cache_hits > 0

    def test_fresh_path_unaffected(self):
        x = bv("x")
        solver = Solver()
        solver.check_sat(t.eq(x, const(3)))
        assert solver.stats.incremental_checks == 0


class TestSessionMaintenance:
    """A learned store past ``MAX_LEARNED`` gets one maintenance pass (root
    simplification, then eviction) before the next check's solve."""

    def test_answers_match_fresh_across_evictions(self, monkeypatch):
        monkeypatch.setattr(SolverSession, "MAX_LEARNED", 4)
        x = t.bv_var("mx", 4)
        solver = Solver()
        maintained = 0
        with solver.session() as session:
            for factor in (0xB, 0xD, 0x7, 0x5):
                bound = t.ult(x, t.bv_const(factor, 4))
                goal = distributive_miter(factor)
                evicted_before = solver.stats.clauses_evicted
                answer = session.check(goal, [bound])
                assert answer is Solver().check_sat(t.conj([bound, goal]))
                assert answer is Result.UNSAT
                maintained += solver.stats.clauses_evicted > evicted_before
        assert solver.stats.sat_calls == 4  # every miter reached CDCL
        assert solver.stats.clauses_evicted > 0
        assert maintained > 0


class TestSessionCacheInterplay:
    def test_shared_namespace_with_fresh_path(self):
        """A goal decided through a session must memo-hit when the same
        conjunction is later issued through check_sat, and vice versa."""
        x, y = bv("x"), bv("y")
        prefix = t.eq(y, t.mul(x, x))
        delta = t.eq(t.bvand(t.mul(y, x), const(7)), const(5))
        solver = Solver()
        with solver.session() as session:
            first = session.check(delta, [prefix])
        fast_before = solver.stats.fast_path
        again = solver.check_sat(t.and_(prefix, delta))
        assert again is first
        assert solver.stats.fast_path == fast_before + 1  # memo hit

    def test_session_checks_never_store_to_shared_cache(self):
        """Session answers lean on previously learned clauses, so their
        conflict count can undershoot what a fresh solver needs; storing
        that optimistic cost would break cached-vs-uncached outcome
        identity under small budgets.  Sessions consult but never store."""
        x, y = bv("x"), bv("y")
        prefix = t.eq(y, t.mul(x, x))
        delta = t.eq(t.bvand(t.mul(y, x), const(7)), const(5))
        cache = QueryCache()
        first_solver = Solver(cache=cache)
        with first_solver.session() as session:
            first = session.check(delta, [prefix])
        assert first is not Result.UNKNOWN
        assert cache.stats.stores == 0
        # A second solver sharing the cache re-solves fresh and agrees.
        second_solver = Solver(cache=cache)
        assert second_solver.check_sat(t.and_(prefix, delta)) is first
        assert second_solver.stats.cache_hits == 0
        # The fresh run's answer *does* land in the cache.
        assert cache.stats.stores == 1

    def test_unknown_not_cached(self):
        x, y = bv("x"), bv("y")
        # A multiplication equation with a tiny budget: UNKNOWN.
        goal = t.eq(t.mul(t.mul(x, y), t.add(x, y)), const(123))
        prefix = t.not_(t.eq(x, y))
        cache = QueryCache()
        starved = Solver(conflict_budget=1, cache=cache)
        with starved.session() as session:
            outcome = session.check(goal, [prefix])
        if outcome is Result.UNKNOWN:
            assert cache.stats.stores == 0

    def test_unknown_is_the_one_search_running_out_of_budget(self):
        # x·(y + 0xB) equals x·y + x·0xB for every x, y: UNSAT, so neither
        # the witness search nor a one-conflict CDCL search can decide it.
        goal = distributive_miter(0xB)
        starved = Solver(conflict_budget=1)
        with starved.session() as session:
            assert session.check(goal) is Result.UNKNOWN
        stats = starved.stats
        assert (stats.sat_calls, stats.unknowns) == (1, 1)
        assert stats.sat_calls_sat == stats.sat_calls_unsat == 0
        assert stats.conflicts == 1
        # A fresh solver with the budget to finish proves it.
        assert Solver().check_sat(goal) is Result.UNSAT


class TestSyncPointRetraction:
    """Assumption sets ride per sync point; retracting one must fully
    release its constraints for every later point."""

    def test_retracted_assumptions_do_not_constrain_later_points(self):
        x = bv("x")
        low = t.ult(x, const(5))
        high = t.ult(const(10), x)
        solver = Solver()
        with solver.session() as session:
            # Point 1: under "x < 5" the goal "x > 10" is UNSAT — and the
            # refutation happens at assumption levels, the case where a
            # careless learner would bake "x < 5" into the clause DB.
            assert session.check(high, assumptions=[low]) is Result.UNSAT
            # Point 2: "x < 5" is retracted; x = 200 must be reachable.
            assert session.check(high) is Result.SAT
            assert (
                session.check(t.eq(x, const(200)), assumptions=[high])
                is Result.SAT
            )
            # Point 3: revisit point 1's assumption set — still UNSAT.
            assert session.check(high, assumptions=[low]) is Result.UNSAT

    def test_alternating_contradictory_points(self):
        x = bv("x")
        even = t.eq(t.extract(x, 0, 0), t.bv_const(0, 1))
        odd = t.eq(t.extract(x, 0, 0), t.bv_const(1, 1))
        solver = Solver()
        with solver.session() as session:
            for _ in range(3):
                assert session.check(odd, assumptions=[even]) is Result.UNSAT
                assert session.check(even, assumptions=[even]) is Result.SAT
                assert session.check(even, assumptions=[odd]) is Result.UNSAT
                assert session.check(odd, assumptions=[odd]) is Result.SAT


class TestAssumptionOrderCanonicalization:
    """Permuted assumption sets are one query: one memo key, one verdict."""

    def test_permuted_assumptions_hit_same_memo_entry(self):
        x, y = bv("x"), bv("y")
        a = t.ult(x, const(50))
        b = t.ult(y, x)
        delta = t.eq(t.bvand(t.add(x, y), const(31)), const(17))
        solver = Solver()
        with solver.session() as session:
            first = session.check(delta, assumptions=(a, b))
            fast_before = solver.stats.fast_path
            second = session.check(delta, assumptions=(b, a))
        assert second is first
        assert solver.stats.fast_path == fast_before + 1  # memo hit

    def test_permuted_assumptions_share_query_cache_entry(self):
        """Sessions consult (but never store to) the shared cache, and
        permuted assumption sets canonicalize to the one cache key a fresh
        solve of the same conjunction stored under."""
        x, y = bv("x"), bv("y")
        a = t.ult(x, const(50))
        b = t.ult(y, x)
        delta = t.eq(t.bvand(t.mul(x, y), const(31)), const(17))
        cache = QueryCache()
        seeder = Solver(cache=cache)
        first = seeder.check_sat(t.conj([a, b, delta]))
        assert cache.stats.stores == 1
        for order in ((a, b), (b, a)):
            solver = Solver(cache=cache)
            with solver.session() as session:
                assert session.check(delta, assumptions=order) is first
            assert solver.stats.cache_hits == 1
        assert cache.stats.stores == 1  # the sessions added nothing

    def test_order_and_duplicates_normalize(self):
        from repro.smt.solver import check_query

        x = bv("x")
        delta = t.eq(x, const(20))
        shallow = (t.ult(x, const(50)), t.ult(const(10), x))
        # Two assumptions that differ only below the depth ``str`` prints.
        deep = tuple(
            t.ult(xor_and_chain(bv(leaf), 20), const(7)) for leaf in ("a", "b")
        )
        assert str(deep[0]) == str(deep[1])
        for a, b in (shallow, deep):
            ordered, query = check_query(delta, [a, b, a])
            assert len(ordered) == 2
            assert check_query(delta, [b, a, b]) == (ordered, query)


class TestSessionEquivalenceSweep:
    """Randomized-ish structural sweep: session == fresh on many goals."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep(self, seed):
        x, y = bv("x"), bv("y")
        prefix = t.eq(
            t.add(t.mul(x, const(seed + 2)), y), const(17 * (seed + 1))
        )
        deltas = [
            t.ult(x, const((seed * 37 + 11) & 0xFF)),
            t.eq(t.bvxor(x, y), const((seed * 91 + 3) & 0xFF)),
            t.slt(y, t.add(x, const(seed))),
            t.eq(t.mul(x, y), const((seed * 53) & 0xFF)),
        ]
        fresh = [
            Solver().check_sat(t.and_(prefix, delta)) for delta in deltas
        ]
        solver = Solver()
        with solver.session() as session:
            incremental = [session.check(delta, [prefix]) for delta in deltas]
        assert incremental == fresh
