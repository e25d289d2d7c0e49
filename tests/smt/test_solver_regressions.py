"""Regression tests for solver/cache bugs found by inspection (ISSUE 2).

Each test documents a bug and failed before its fix.  The differential
fuzzing harness (:mod:`repro.fuzz`) now guards the cache and model bugs
systematically; the lemma-order test guards determinism across
interpreters, which no fuzz oracle observes.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

from repro.smt import QueryCache, Result, Solver, t
from repro.smt import solver as solver_mod


class TestTrivialTrueModel:
    """check_sat(need_model=True) must populate a model when the goal
    simplifies to TRUE (previously returned SAT with last_model=None)."""

    def test_literal_true(self):
        solver = Solver()
        assert solver.check_sat(t.TRUE, need_model=True) is Result.SAT
        assert solver.last_model is not None

    def test_goal_simplifying_to_true(self):
        solver = Solver()
        a = t.bv_var("a", 32)
        goal = t.eq(t.add(a, t.zero(32)), a)  # simplifies to TRUE
        assert solver.check_sat(goal, need_model=True) is Result.SAT
        assert solver.stats.fast_path == 1  # stayed on the fast path
        model = solver.last_model
        assert model is not None
        # The witness must actually satisfy the (trivially true) goal and
        # be readable through arbitrary terms, like a bit-blasted model.
        assert model.eval_bool(goal) is True
        assert model.eval_bv(a) == 0
        assert model.eval_bool(t.bool_var("p")) is False
        assert model.eval_bv(t.select("mem", t.bv_const(3, 32))) == 0

    def test_without_need_model_unchanged(self):
        solver = Solver()
        assert solver.check_sat(t.TRUE) is Result.SAT
        assert solver.last_model is None


class TestCacheMissAccounting:
    """A cache entry bypassed only because ``need_model`` was requested is
    not a miss; it must land in ``cache_hits_unused``."""

    def test_shared_entry_rejected_for_model_is_not_a_miss(self):
        cache = QueryCache()
        a = t.bv_var("acc", 8)
        goal = t.ult(a, t.bv_const(10, 8))
        assert Solver(cache=cache).check_sat(goal) is Result.SAT
        solver = Solver(cache=cache)
        assert solver.check_sat(goal, need_model=True) is Result.SAT
        assert solver.last_model is not None
        assert solver.stats.cache_misses == 0
        assert solver.stats.cache_hits_unused == 1

    def test_memo_fallthrough_for_model_is_not_a_miss(self):
        cache = QueryCache()
        solver = Solver(cache=cache)
        a = t.bv_var("acc2", 8)
        goal = t.ult(a, t.bv_const(10, 8))
        assert solver.check_sat(goal) is Result.SAT
        misses_before = solver.stats.cache_misses
        assert solver.check_sat(goal, need_model=True) is Result.SAT
        assert solver.stats.cache_misses == misses_before
        assert solver.stats.cache_hits_unused == 1

    def test_true_miss_still_counted(self):
        cache = QueryCache()
        solver = Solver(cache=cache)
        a = t.bv_var("acc3", 8)
        assert solver.check_sat(t.ult(a, t.bv_const(10, 8))) is Result.SAT
        assert solver.stats.cache_misses == 1
        assert solver.stats.cache_hits_unused == 0

    def test_merge_carries_hits_unused(self):
        left = solver_mod.QueryStats(cache_hits_unused=2)
        right = solver_mod.QueryStats(cache_hits_unused=3)
        left.merge(right)
        assert left.cache_hits_unused == 5
        # Every field merges (by summation), not just the ones a
        # hand-written merge remembered.
        fields = dataclasses.fields(solver_mod.QueryStats)
        left = solver_mod.QueryStats(
            **{field.name: index + 1 for index, field in enumerate(fields)}
        )
        right = solver_mod.QueryStats(
            **{field.name: 100 * (index + 1) for index, field in enumerate(fields)}
        )
        left.merge(right)
        for index, field in enumerate(fields):
            assert getattr(left, field.name) == 101 * (index + 1), field.name


class TestStoreRefreshesRecency:
    """QueryCache.store must refresh LRU recency even when an
    equal-or-better entry already exists."""

    def test_restore_protects_hot_entry_from_eviction(self):
        cache = QueryCache(max_entries=2)
        hot = t.eq(t.bv_var("h", 8), t.bv_const(1, 8))
        cold = t.eq(t.bv_var("c", 8), t.bv_const(2, 8))
        new = t.eq(t.bv_var("n", 8), t.bv_const(3, 8))
        cache.store(hot, Result.SAT, 5)
        cache.store(cold, Result.SAT, 5)
        # Re-store `hot` at the same cost: entry kept, recency refreshed.
        cache.store(hot, Result.SAT, 5)
        cache.store(new, Result.SAT, 5)  # evicts the LRU entry
        assert cache.lookup(hot, None) is Result.SAT  # survived (was hot)
        assert cache.lookup(cold, None) is None  # evicted

    def test_restore_does_not_clobber_cheaper_cost(self):
        cache = QueryCache()
        goal = t.eq(t.bv_var("k", 8), t.bv_const(1, 8))
        cache.store(goal, Result.SAT, 2)
        cache.store(goal, Result.SAT, 900)
        assert cache.lookup(goal, 2) is Result.SAT


class TestLemmaOrderIsInterpreterIndependent:
    """Comparison lemmas used to be emitted in hash order.  Term hashes mix
    in sort identities (memory addresses) and string hashes, so the CNF,
    and with it every SAT counter, changed from one interpreter to the
    next even for the same query."""

    SCRIPT = textwrap.dedent(
        """
        import hashlib
        from repro.smt import Solver, t
        from repro.smt.sat import SatSolver

        clauses = []
        add_clause = SatSolver.add_clause

        def recording(self, literals):
            clauses.append(tuple(literals))
            return add_clause(self, literals)

        SatSolver.add_clause = recording

        def shift_add(x, factor, width):
            acc, bit = t.bv_const(0, width), 0
            while factor:
                if factor & 1:
                    acc = t.add(acc, t.shl(x, t.bv_const(bit, width)))
                factor >>= 1
                bit += 1
            return acc

        # x*c and its shift-add form are equal, so no y fits strictly
        # between them: UNSAT, but only through the bit-level circuits.
        x, y = t.bv_var("x", 6), t.bv_var("y", 6)
        sandwiches = []
        for factor in (0x2D, 0x1B, 0x35):
            product = t.mul(x, t.bv_const(factor, 6))
            expanded = shift_add(x, factor, 6)
            sandwiches.append(t.and_(t.slt(product, y), t.slt(y, expanded)))
            sandwiches.append(t.and_(t.ult(expanded, y), t.ult(y, product)))
        solver = Solver()
        result = solver.check_sat(t.or_(*sandwiches))
        stats = solver.stats
        digest = hashlib.sha256(repr(clauses).encode()).hexdigest()
        print(result, stats.conflicts, stats.decisions, stats.propagations, digest)
        """
    )

    def _run(self, hash_seed: str) -> str:
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(
            os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED=hash_seed
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_same_cnf_and_counters_under_different_hash_seeds(self):
        first = self._run("1")
        second = self._run("2")
        assert first.startswith("Result.UNSAT"), first
        assert first == second


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
