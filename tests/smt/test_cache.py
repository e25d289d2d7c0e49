"""Tests for the solver-level query cache (memory LRU + persistent store)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.smt import QueryCache, Result, Solver, t
from repro.smt.cache import FAST_PATH_COST
from repro.smt.printer import canonical


def _sat_query():
    a = t.bv_var("a", 16)
    b = t.bv_var("b", 16)
    return t.eq(t.mul(a, b), t.bv_const(12345, 16))


def _cdcl_sat_query(width):
    """A SAT query only CDCL decides: its witnesses are square roots of a
    constant, values the bounded witness search never probes."""
    root = 0x9E3779B1 & t.mask(width)
    x = t.bv_var(f"r{width}", width)
    return t.eq(t.mul(x, x), t.bv_const(root * root, width))


def _unsat_query():
    a = t.bv_var("a", 8)
    return t.and_(t.ult(a, t.bv_const(3, 8)), t.ult(t.bv_const(5, 8), a))


class TestCanonical:
    def test_distinguishes_variable_widths(self):
        narrow = t.bv_var("x", 8)
        wide = t.bv_var("x", 16)
        assert canonical(narrow) != canonical(wide)

    def test_never_elides_deep_terms(self):
        term = t.bv_var("x", 8)
        for index in range(64):
            term = t.bvor(term, t.bv_var(f"y{index}", 8))
        assert "..." not in canonical(term)
        assert "y63" in canonical(term)

    def test_shares_repeated_subterms(self):
        x = t.bv_var("x", 32)
        y = t.bv_var("y", 32)
        product = t.mul(x, y)
        doubled = t.add(product, product)
        assert canonical(doubled).count("mul") == 1

    def test_identical_structure_identical_printing(self):
        assert canonical(_sat_query()) == canonical(_sat_query())


class TestMemoryCache:
    def test_same_query_twice_hits(self):
        cache = QueryCache()
        first = Solver(cache=cache)
        assert first.check_sat(_sat_query()) is Result.SAT
        assert first.stats.cache_hits == 0
        second = Solver(cache=cache)
        assert second.check_sat(_sat_query()) is Result.SAT
        assert second.stats.cache_hits == 1
        assert second.stats.sat_calls == 0

    def test_unsat_cached_too(self):
        cache = QueryCache()
        assert Solver(cache=cache).check_sat(_unsat_query()) is Result.UNSAT
        second = Solver(cache=cache)
        assert second.check_sat(_unsat_query()) is Result.UNSAT
        assert second.stats.cache_hits == 1

    def test_unknown_is_never_cached(self):
        cache = QueryCache()
        # Directly: store() must drop UNKNOWN silently.
        goal = _sat_query()
        cache.store(goal, Result.UNKNOWN, 0)
        assert cache.lookup(goal, None) is None
        # End to end: a budget-starved solver must not poison the cache.
        starved = Solver(conflict_budget=1, cache=cache)
        hard = _cdcl_sat_query(32)  # no witness the search probes: CDCL
        outcome = starved.check_sat(hard)
        if outcome is Result.UNKNOWN:
            stored = [
                entry for entry in cache._lru.values()
                if entry[0] is Result.UNKNOWN
            ]
            assert stored == []

    def test_simplification_equivalent_queries_share_entry(self):
        # zext(a) <u zext(b) rewrites to a <u b only inside simplify(), so
        # the two inputs are syntactically different but share one entry.
        cache = QueryCache()
        a = t.bv_var("a", 16)
        b = t.bv_var("b", 16)
        plain = t.ult(a, b)
        widened = t.ult(t.zext(a, 32), t.zext(b, 32))
        assert plain is not widened
        assert Solver(cache=cache).check_sat(plain) is Result.SAT
        second = Solver(cache=cache)
        assert second.check_sat(widened) is Result.SAT
        assert second.stats.cache_hits == 1

    def test_lru_evicts_oldest(self):
        cache = QueryCache(max_entries=2)
        queries = [
            t.eq(t.bv_var(f"v{i}", 8), t.bv_const(i, 8)) for i in range(3)
        ]
        for query in queries:
            cache.store(query, Result.SAT, 0)
        assert cache.lookup(queries[0], None) is None
        assert cache.lookup(queries[2], None) is Result.SAT

    def test_need_model_bypasses_cached_sat(self):
        cache = QueryCache()
        a = t.bv_var("m", 8)
        goal = t.ult(a, t.bv_const(10, 8))
        assert Solver(cache=cache).check_sat(goal) is Result.SAT
        solver = Solver(cache=cache)
        assert solver.check_sat(goal, need_model=True) is Result.SAT
        assert solver.last_model is not None
        assert solver.last_model.eval_bv(a) < 10


class TestBudgetSoundness:
    def test_entry_from_smaller_budget_is_reusable(self):
        cache = QueryCache()
        goal = _sat_query()
        cache.store(goal, Result.SAT, 10)
        assert cache.lookup(goal, 100) is Result.SAT
        assert cache.lookup(goal, None) is Result.SAT

    def test_entry_from_larger_budget_rejected(self):
        # Uncached, a budget-B run would return UNKNOWN for a query that
        # needs more than B conflicts; the cache must not turn that into
        # an answer.
        cache = QueryCache()
        goal = _sat_query()
        cache.store(goal, Result.SAT, 5000)
        assert cache.lookup(goal, 100) is None
        assert cache.stats.budget_rejections == 1

    def test_fast_path_entries_usable_under_any_budget(self):
        cache = QueryCache()
        goal = _sat_query()
        cache.store(goal, Result.SAT, FAST_PATH_COST)
        assert cache.lookup(goal, 1) is Result.SAT

    def test_end_to_end_budget_starved_solver_rejects_rich_entry(self):
        # Find a query the solver decides only through CDCL search, then
        # check a conflict-starved solver sharing the cache still returns
        # UNKNOWN (outcome-identity with the uncached run).
        cache = QueryCache()
        rich = Solver(conflict_budget=200_000, cache=cache)
        goal = _cdcl_sat_query(24)
        outcome = rich.check_sat(goal)
        if rich.stats.sat_calls == 0 or outcome is Result.UNKNOWN:
            pytest.skip("query decided on a fast path; cannot starve it")
        conflicts = rich.stats.conflicts  # the one query's search
        if conflicts == 0:
            pytest.skip("query decided without conflicts")
        starved = Solver(conflict_budget=conflicts, cache=cache)
        assert starved.check_sat(goal) is Result.UNKNOWN
        assert starved.stats.cache_hits == 0


class TestPersistentCache:
    def test_written_by_one_cache_read_by_another(self, tmp_path):
        directory = str(tmp_path / "qc")
        goal = _sat_query()
        writer = Solver(cache=QueryCache(cache_dir=directory))
        assert writer.check_sat(goal) is Result.SAT
        fresh = QueryCache(cache_dir=directory)
        reader = Solver(cache=fresh)
        assert reader.check_sat(goal) is Result.SAT
        assert reader.stats.cache_hits == 1
        assert fresh.stats.disk_hits == 1

    def test_read_by_fresh_process(self, tmp_path):
        directory = str(tmp_path / "qc")
        writer = Solver(cache=QueryCache(cache_dir=directory))
        assert writer.check_sat(_sat_query()) is Result.SAT
        script = textwrap.dedent(
            """
            from repro.smt import QueryCache, Result, Solver, t

            a = t.bv_var("a", 16)
            b = t.bv_var("b", 16)
            goal = t.eq(t.mul(a, b), t.bv_const(12345, 16))
            cache = QueryCache(cache_dir={directory!r})
            solver = Solver(cache=cache)
            assert solver.check_sat(goal) is Result.SAT
            assert solver.stats.cache_hits == 1, solver.stats
            assert cache.stats.disk_hits == 1, cache.stats
            print("fresh-process hit ok")
            """
        ).format(directory=directory)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fresh-process hit ok" in proc.stdout

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        directory = str(tmp_path / "qc")
        cache = QueryCache(cache_dir=directory)
        goal = _sat_query()
        cache.store(goal, Result.SAT, 3)
        path = cache._path_for(cache.key_for(goal))
        with open(path, "w") as handle:
            handle.write("{not json")
        fresh = QueryCache(cache_dir=directory)
        assert fresh.lookup(goal, None) is None

    def test_unknown_on_disk_ignored(self, tmp_path):
        directory = str(tmp_path / "qc")
        cache = QueryCache(cache_dir=directory)
        goal = _sat_query()
        cache.store(goal, Result.SAT, 3)
        path = cache._path_for(cache.key_for(goal))
        with open(path, "w") as handle:
            handle.write('{"result": "unknown", "cost": 0}')
        fresh = QueryCache(cache_dir=directory)
        assert fresh.lookup(goal, None) is None

    def test_disk_keeps_cheapest_cost(self, tmp_path):
        directory = str(tmp_path / "qc")
        goal = _sat_query()
        first = QueryCache(cache_dir=directory)
        first.store(goal, Result.SAT, 500)
        second = QueryCache(cache_dir=directory)
        second.store(goal, Result.SAT, 2)
        third = QueryCache(cache_dir=directory)
        third.store(goal, Result.SAT, 900)  # must not clobber cost 2
        fresh = QueryCache(cache_dir=directory)
        assert fresh.lookup(goal, 2) is Result.SAT


class TestConcurrentWriters:
    """The disk layer under concurrent campaign-shard workers: atomic
    publication, no temp-file litter, torn/stale artefacts read as misses."""

    def test_no_temp_files_left_after_stores(self, tmp_path):
        directory = str(tmp_path / "qc")
        cache = QueryCache(cache_dir=directory)
        cache.store(_sat_query(), Result.SAT, 3)
        cache.store(_unsat_query(), Result.UNSAT, 5)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_stale_temp_file_is_ignored_and_overwritten_store_works(
        self, tmp_path
    ):
        # A worker SIGKILLed mid-write leaves a private *.tmp behind; it
        # must never satisfy a lookup, and later stores proceed normally.
        directory = str(tmp_path / "qc")
        cache = QueryCache(cache_dir=directory)
        goal = _sat_query()
        path = cache._path_for(cache.key_for(goal))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".garbage.tmp", "w") as handle:
            handle.write('{"result": "sat"')  # torn
        assert cache.lookup(goal, None) is None
        cache.store(goal, Result.SAT, 3)
        fresh = QueryCache(cache_dir=directory)
        assert fresh.lookup(goal, None) is Result.SAT

    def test_parallel_writers_share_one_directory(self, tmp_path):
        """Several processes hammer the same cache_dir — same key and
        distinct keys — and every published entry must be whole."""
        directory = str(tmp_path / "qc")
        script = textwrap.dedent(
            """
            import sys
            from repro.smt import QueryCache, Result, t

            worker = int(sys.argv[1])
            cache = QueryCache(cache_dir={directory!r})
            shared = t.eq(
                t.mul(t.bv_var("a", 16), t.bv_var("b", 16)),
                t.bv_const(12345, 16),
            )
            private = t.eq(
                t.bv_var("p", 16), t.bv_const(1000 + worker, 16)
            )
            for _ in range(25):
                cache.store(shared, Result.SAT, 3 + worker)
                cache.store(private, Result.SAT, worker)
            print("writer done")
            """
        ).format(directory=directory)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(worker)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for worker in range(4)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "writer done" in out
        # No torn temp files anywhere, and every entry reads back whole.
        assert list(tmp_path.rglob("*.tmp")) == []
        fresh = QueryCache(cache_dir=directory)
        assert fresh.lookup(_sat_query(), None) is Result.SAT
        for worker in range(4):
            goal = t.eq(
                t.bv_var("p", 16), t.bv_const(1000 + worker, 16)
            )
            assert fresh.lookup(goal, None) is Result.SAT


class TestTargetNamespacing:
    """Per-target views over one shared store (``for_target``): obligations
    from different target ISAs must never alias, even through a shared
    ``--cache-dir``."""

    def test_same_namespace_returns_self(self):
        cache = QueryCache()
        assert cache.for_target("") is cache
        view = cache.for_target("vriscv")
        assert view.for_target("vriscv") is view

    def test_views_do_not_alias_in_memory(self):
        cache = QueryCache()
        goal = _cdcl_sat_query(16)
        first = Solver(cache=cache.for_target("vx86"))
        assert first.check_sat(goal) is Result.SAT
        # Identical formula under the other target: decided fresh.
        second = Solver(cache=cache.for_target("vriscv"))
        assert second.check_sat(goal) is Result.SAT
        assert second.stats.cache_hits == 0
        assert second.stats.sat_calls == 1
        # Same target: served from the shared store.
        third = Solver(cache=cache.for_target("vx86"))
        assert third.check_sat(goal) is Result.SAT
        assert third.stats.cache_hits == 1

    def test_views_do_not_alias_on_disk(self, tmp_path):
        directory = str(tmp_path / "qc")
        goal = _sat_query()
        writer = Solver(cache=QueryCache(cache_dir=directory).for_target("vx86"))
        assert writer.check_sat(goal) is Result.SAT
        fresh = QueryCache(cache_dir=directory)
        cross = Solver(cache=fresh.for_target("vriscv"))
        assert cross.check_sat(goal) is Result.SAT
        assert cross.stats.cache_hits == 0
        same = Solver(cache=QueryCache(cache_dir=directory).for_target("vx86"))
        assert same.check_sat(goal) is Result.SAT
        assert same.stats.cache_hits == 1

    def test_keys_prefixed_memo_shared(self):
        cache = QueryCache()
        goal = _sat_query()
        raw = cache.key_for(goal)
        namespaced = cache.for_target("vriscv").key_for(goal)
        assert namespaced == f"vriscv\x1f{raw}"
        # The canonicalisation memo is shared across views: one entry.
        assert len(cache._key_memo) == 1

    def test_views_share_statistics(self):
        cache = QueryCache()
        view = cache.for_target("vriscv")
        assert view.stats is cache.stats
