"""Tests for the parallel batch driver (fan-out, hard kill, determinism)."""

import dataclasses
import time

import pytest

from repro.keq import KeqOptions
from repro.llvm import parse_module
from repro.tv import Category, TvOptions, validate_function
from repro.tv.batch import corpus_overrides, run_batch, run_corpus
from repro.tv.parallel import default_validate, run_batch_parallel, task_text
from repro.workloads import FunctionShape, gcc_like_corpus, generate_module


def _outcome_keys(result):
    return [(o.function, o.category) for o in result.outcomes]


# -- worker hooks: must be module-level so spawn children can import them ----


def hang_on_marked(module, name, options, cache):
    """Sleeps forever on functions named ``*hang*`` (hard-kill exercise)."""
    if "hang" in name:
        time.sleep(3600)
    return default_validate(module, name, options, cache)


def crash_on_marked(module, name, options, cache):
    if "crash" in name:
        raise RuntimeError("injected validation crash")
    return default_validate(module, name, options, cache)


def die_on_marked(module, name, options, cache):
    if "die" in name:
        import os

        os._exit(17)  # simulate a segfault/OOM-kill: no exception, no reply
    return default_validate(module, name, options, cache)


class TestJobsOneIdentity:
    def test_jobs1_equals_sequential_on_corpus(self):
        corpus = gcc_like_corpus(scale=8, seed=7)
        module = corpus.build_module()
        base = TvOptions()  # no wall budget: outcomes are step-budget exact
        overrides = corpus_overrides(corpus, base)
        sequential = run_batch(module, base, overrides=overrides)
        parallel = run_batch_parallel(
            module, base, jobs=1, overrides=overrides
        )
        assert _outcome_keys(parallel) == _outcome_keys(sequential)
        for seq, par in zip(sequential.outcomes, parallel.outcomes):
            assert seq.detail == par.detail
            assert seq.sync_points == par.sync_points
            assert seq.code_size == par.code_size

    def test_jobs2_preserves_input_order(self):
        corpus = gcc_like_corpus(scale=8, seed=7)
        module = corpus.build_module()
        base = TvOptions()
        overrides = corpus_overrides(corpus, base)
        sequential = run_batch(module, base, overrides=overrides)
        parallel = run_batch_parallel(
            module, base, jobs=2, overrides=overrides
        )
        assert _outcome_keys(parallel) == _outcome_keys(sequential)

    def test_merged_solver_stats(self):
        module = generate_module(
            [
                ("a", FunctionShape(loops=0, diamonds=1), 1),
                ("b", FunctionShape(loops=1), 2),
            ]
        )
        result = run_batch_parallel(module, jobs=1)
        assert result.solver_stats.queries > 0


class TestJobsClamp:
    """Oversubscription fix: jobs are clamped to the core count, and a
    single effective worker short-circuits to the sequential runner."""

    def test_jobs4_on_one_core_runs_sequentially(self, monkeypatch, caplog):
        import logging

        import repro.tv.parallel as parallel_module

        corpus = gcc_like_corpus(scale=6, seed=5)
        module = corpus.build_module()
        base = TvOptions()
        calls = {}
        real_run_batch = parallel_module.run_batch

        def spy_run_batch(*args, **kwargs):
            calls["sequential"] = True
            return real_run_batch(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)
        monkeypatch.setattr(parallel_module, "run_batch", spy_run_batch)
        with caplog.at_level(logging.INFO, logger="repro.tv.parallel"):
            result = run_batch_parallel(module, base, jobs=4)
        assert calls.get("sequential") is True
        assert any(
            "clamping jobs=4" in r.getMessage() for r in caplog.records
        )
        sequential = run_batch(module, base)
        assert _outcome_keys(result) == _outcome_keys(sequential)

    def test_jobs4_on_one_core_no_slower_than_sequential(self, monkeypatch):
        """The acceptance criterion behind BENCH_parallel.json's 0.24x row:
        with the clamp, --jobs 4 never pays spawn/re-parse overhead on a
        box that cannot run workers concurrently."""
        import repro.tv.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)
        corpus = gcc_like_corpus(scale=6, seed=5)
        module = corpus.build_module()
        base = TvOptions()
        started = time.perf_counter()
        sequential = run_batch(module, base)
        sequential_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        clamped = run_batch_parallel(module, base, jobs=4)
        clamped_elapsed = time.perf_counter() - started
        assert _outcome_keys(clamped) == _outcome_keys(sequential)
        # Identical code path modulo noise; the old pool was ~4x slower.
        assert clamped_elapsed < sequential_elapsed * 2 + 0.5

    def test_injected_validate_keeps_requested_fanout(self, monkeypatch):
        """Test hooks exercising pool mechanics (hang/crash/die) must not
        be rerouted to the sequential runner by the clamp."""
        import repro.tv.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)

        def fail_run_batch(*args, **kwargs):
            raise AssertionError("sequential fallback must not trigger")

        monkeypatch.setattr(parallel_module, "run_batch", fail_run_batch)
        module = generate_module(
            [("ok_one", FunctionShape(loops=0, diamonds=0), 1)]
        )
        result = run_batch_parallel(
            module, TvOptions(), jobs=2, validate=crash_on_marked
        )
        assert result.outcomes[0].category == Category.SUCCEEDED


class TestHardKill:
    def test_hung_function_times_out_without_stalling_pool(self):
        module = generate_module(
            [
                ("ok_one", FunctionShape(loops=0, diamonds=0), 1),
                ("hang_me", FunctionShape(loops=0, diamonds=0), 2),
                ("ok_two", FunctionShape(loops=0, diamonds=0), 3),
            ]
        )
        options = TvOptions(keq=KeqOptions(wall_budget_seconds=0.2))
        started = time.perf_counter()
        result = run_batch_parallel(
            module,
            options,
            jobs=2,
            validate=hang_on_marked,
            grace_factor=1.0,
            grace_slack=0.5,
        )
        elapsed = time.perf_counter() - started
        by_name = {o.function: o for o in result.outcomes}
        assert by_name["hang_me"].category == Category.TIMEOUT
        assert "hard wall-clock kill" in by_name["hang_me"].detail
        assert by_name["ok_one"].category == Category.SUCCEEDED
        assert by_name["ok_two"].category == Category.SUCCEEDED
        assert elapsed < 60  # the pool drained instead of stalling

    def test_crashing_function_is_other_with_traceback(self):
        module = generate_module(
            [
                ("ok_one", FunctionShape(loops=0, diamonds=0), 1),
                ("crash_me", FunctionShape(loops=0, diamonds=0), 2),
            ]
        )
        result = run_batch_parallel(
            module, TvOptions(), jobs=1, validate=crash_on_marked
        )
        by_name = {o.function: o for o in result.outcomes}
        assert by_name["crash_me"].category == Category.OTHER
        assert "injected validation crash" in by_name["crash_me"].detail
        assert by_name["ok_one"].category == Category.SUCCEEDED

    def test_dead_worker_is_other_and_pool_recovers(self):
        module = generate_module(
            [
                ("die_hard", FunctionShape(loops=0, diamonds=0), 1),
                ("ok_one", FunctionShape(loops=0, diamonds=0), 2),
                ("ok_two", FunctionShape(loops=0, diamonds=0), 3),
            ]
        )
        result = run_batch_parallel(
            module, TvOptions(), jobs=1, validate=die_on_marked
        )
        by_name = {o.function: o for o in result.outcomes}
        assert by_name["die_hard"].category == Category.OTHER
        assert "worker process died" in by_name["die_hard"].detail
        # The worker is reaped before its exit status is read.
        assert "exitcode=17" in by_name["die_hard"].detail
        assert by_name["ok_one"].category == Category.SUCCEEDED
        assert by_name["ok_two"].category == Category.SUCCEEDED


class TestParallelCorpusAndCache:
    def test_run_corpus_parallel_matches_sequential(self):
        corpus = gcc_like_corpus(scale=6, seed=5)
        base = TvOptions()
        sequential = run_corpus(corpus, base)
        parallel = run_corpus(corpus, base, jobs=2)
        assert _outcome_keys(parallel) == _outcome_keys(sequential)

    def test_parallel_workers_share_persistent_cache(self, tmp_path):
        corpus = gcc_like_corpus(scale=6, seed=5)
        base = TvOptions()
        directory = str(tmp_path / "qc")
        cold = run_corpus(corpus, base, jobs=2, cache_dir=directory)
        warm = run_corpus(corpus, base, jobs=2, cache_dir=directory)
        assert _outcome_keys(warm) == _outcome_keys(cold)
        assert warm.solver_stats.cache_hits > 0
        assert (
            warm.solver_stats.cache_hits >= cold.solver_stats.cache_hits
        )


class TestAffinityAwareSizing:
    """Pools are sized by the scheduler affinity mask, not the machine's
    core count: ``os.cpu_count() or 1`` over-reports under container
    cpusets (the old bug), so the clamp goes through
    repro.util.available_cpus."""

    def test_clamp_respects_affinity_mask_not_cpu_count(
        self, monkeypatch, caplog
    ):
        import logging

        import repro.tv.parallel as parallel_module
        import repro.util as util_module

        # A 64-core machine whose cpuset grants this process one core.
        monkeypatch.setattr(util_module.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            util_module.os,
            "sched_getaffinity",
            lambda pid: {0},
            raising=False,
        )
        corpus = gcc_like_corpus(scale=4, seed=5)
        module = corpus.build_module()
        with caplog.at_level(logging.INFO, logger="repro.tv.parallel"):
            run_batch_parallel(module, TvOptions(), jobs=4)
        assert any(
            "clamping jobs=4 to cpu_count=1" in r.getMessage()
            for r in caplog.records
        )


def _verdict(outcome):
    stats = dataclasses.asdict(outcome.solver_stats)
    del stats["time_seconds"]
    return (
        outcome.category,
        outcome.detail,
        outcome.sync_points,
        outcome.failure_class,
        stats,
    )


class TestTaskText:
    """A task carries only its function and the globals (``task_text``).
    That is sound because validation reads nothing else of the module: a
    call is a ``CALLING`` cut state and no step reads a callee's body."""

    @pytest.mark.parametrize("target", ["vx86", "vriscv"])
    def test_own_text_validates_as_the_whole_module(self, target):
        corpus = gcc_like_corpus(scale=24, seed=2021)
        module = corpus.build_module()
        base = TvOptions(target=target)
        overrides = corpus_overrides(corpus, base)
        for name in module.functions:
            options = overrides.get(name, base)
            own = parse_module(task_text(module, name))
            assert list(own.functions) == [name]
            whole = validate_function(module, name, options)
            alone = validate_function(own, name, options)
            assert _verdict(alone) == _verdict(whole), name
