"""Worker-pool mechanics, tested once against :class:`WorkerPool`.

The batch runner, the campaign supervisor and the service worker client
all run their workers through this pool; their own suites
(``tests/tv/test_parallel.py``, ``tests/campaign/test_recovery.py``,
``tests/service/test_service_loopback.py``) are the integration checks.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

import repro.tv.parallel as parallel_module
from repro.keq import KeqOptions
from repro.tv import Category, TvOptions
from repro.tv.parallel import (
    Worker,
    WorkerPool,
    default_validate,
    run_batch_parallel,
)
from repro.workloads import FunctionShape, generate_module


def marked_validate(module, name, options, cache):
    """Hangs on ``hang*`` names, SIGKILLs its own worker on ``sigkill*``
    names and raises on ``raise*`` names; all act before validation, so
    those names need no function."""
    if name.startswith("hang"):
        time.sleep(3600)
    if name.startswith("sigkill"):
        os.kill(os.getpid(), signal.SIGKILL)
    if name.startswith("raise"):
        raise RuntimeError("validation blew up")
    return default_validate(module, name, options, cache)


#: The text every task here carries: the whole test module serves every
#: name, the marked ones included.
TEXT = str(
    generate_module(
        [
            ("ok_one", FunctionShape(loops=0, diamonds=0), 1),
            ("ok_two", FunctionShape(loops=0, diamonds=0), 2),
        ]
    )
)


@dataclass
class Task:
    name: str


class Factory:
    """Zero-argument worker factory that records every spawn.

    With ``dead_on_arrival`` the first worker is SIGKILLed and reaped
    before the pool sees it, so its first ``assign`` hits a broken pipe.
    """

    def __init__(self, dead_on_arrival=False, options=None, overrides=None):
        self.dead_on_arrival = dead_on_arrival
        self.options = TvOptions() if options is None else options
        self.overrides = overrides or {}
        self.spawned = []

    def __call__(self):
        worker = Worker(self.options, self.overrides, None, marked_validate)
        if self.dead_on_arrival and not self.spawned:
            worker.process.kill()
            worker.process.join()
        self.spawned.append(worker)
        return worker


def drain(pool, seconds=60.0):
    events = []
    deadline = time.monotonic() + seconds
    while pool.busy:
        assert time.monotonic() < deadline, "pool never drained"
        events.extend(pool.poll())
    return events


def kinds(events):
    return [(event.kind, event.task.name) for event in events]


class TestEvents:
    def test_sigkill_mid_task_is_a_died_event(self):
        factory = Factory()
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("sigkill_me"), TEXT, None)
            events = drain(pool)
        assert kinds(events) == [("died", "sigkill_me")]
        outcome = events[0].outcome
        assert outcome.category == Category.OTHER
        assert outcome.detail == "worker process died (exitcode=-9)"
        assert outcome.failure_class == "crash"

    def test_hang_past_hard_budget_is_overdue_timeout(self):
        factory = Factory()
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("hang_me"), TEXT, 2.0)
            pid = factory.spawned[0].process.pid
            events = drain(pool)
            assert kinds(events) == [("overdue", "hang_me")]
            # Killed and reaped, not merely abandoned.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        outcome = events[0].outcome
        assert outcome.category == Category.TIMEOUT
        assert outcome.detail == "hard wall-clock kill (worker unresponsive)"
        assert outcome.failure_class == "timeout"
        assert outcome.seconds >= 2.0

    def test_done_event_carries_the_worker_outcome(self):
        factory = Factory()
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("ok_one"), TEXT, None)
            events = drain(pool)
        assert kinds(events) == [("done", "ok_one")]
        assert events[0].outcome.category == Category.SUCCEEDED


VRISCV = TvOptions(target="vriscv")


class TestTargetStamp:
    """Every outcome the pool or the worker loop builds itself carries the
    target its task was validated against, not the default."""

    def test_died_and_overdue_outcomes(self):
        factory = Factory(options=VRISCV)
        with WorkerPool(factory, 2, clamp=False) as pool:
            pool.assign(Task("sigkill_me"), TEXT, None)
            pool.assign(Task("hang_me"), TEXT, 1.0)
            events = drain(pool)
        assert sorted(kinds(events)) == [
            ("died", "sigkill_me"),
            ("overdue", "hang_me"),
        ]
        assert [event.outcome.target for event in events] == ["vriscv"] * 2

    def test_override_options_name_the_target(self):
        factory = Factory(overrides={"sigkill_me": VRISCV})
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("sigkill_me"), TEXT, None)
            events = drain(pool)
        assert kinds(events) == [("died", "sigkill_me")]
        assert events[0].outcome.target == "vriscv"

    def test_validation_exception_outcome(self):
        factory = Factory(options=VRISCV)
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("raise_me"), TEXT, None)
            events = drain(pool)
        assert kinds(events) == [("done", "raise_me")]
        outcome = events[0].outcome
        assert outcome.category == Category.OTHER
        assert outcome.failure_class == "crash"
        assert "validation blew up" in outcome.detail
        assert outcome.target == "vriscv"

    def test_reparse_failure_outcome(self):
        """An unparsable text fails its own task only: the same worker
        then validates the next task, whose text is good."""
        factory = Factory(options=VRISCV)
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("ok_one"), "not a module", None)
            events = drain(pool)
            pool.assign(Task("ok_two"), TEXT, None)
            events += drain(pool)
        assert kinds(events) == [("done", "ok_one"), ("done", "ok_two")]
        failed, validated = (event.outcome for event in events)
        assert failed.category == Category.OTHER
        assert failed.failure_class == "crash"
        assert failed.detail.startswith("module re-parse failed")
        assert failed.target == "vriscv"
        assert validated.category == Category.SUCCEEDED
        assert validated.target == "vriscv"
        assert len(factory.spawned) == 1


class TestSlots:
    def test_assign_time_death_is_silent(self):
        """A worker dead before it takes the task is replaced and the task
        runs on the fresh one: no event, nothing charged to the task."""
        factory = Factory(dead_on_arrival=True)
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("ok_one"), TEXT, None)
            events = drain(pool)
        assert kinds(events) == [("done", "ok_one")]
        assert events[0].outcome.category == Category.SUCCEEDED
        assert len(factory.spawned) == 2

    def test_slot_is_refilled_only_for_a_task(self):
        factory = Factory()
        with WorkerPool(factory, 1, clamp=False) as pool:
            pool.assign(Task("sigkill_first"), TEXT, None)
            assert kinds(drain(pool)) == [("died", "sigkill_first")]
            assert len(factory.spawned) == 1
            pool.assign(Task("ok_one"), TEXT, None)
            assert kinds(drain(pool)) == [("done", "ok_one")]
            assert len(factory.spawned) == 2
            # A death on the last task spawns no replacement.
            pool.assign(Task("sigkill_last"), TEXT, None)
            assert kinds(drain(pool)) == [("died", "sigkill_last")]
        assert len(factory.spawned) == 2

    def test_all_slots_start_together_then_idle_workers_go_first(self):
        factory = Factory()
        with WorkerPool(factory, 2, clamp=False) as pool:
            pool.assign(Task("sigkill_me"), TEXT, None)
            assert len(factory.spawned) == 2
            pool.assign(Task("ok_one"), TEXT, None)
            assert sorted(kinds(drain(pool))) == [
                ("died", "sigkill_me"),
                ("done", "ok_one"),
            ]
            pool.assign(Task("ok_two"), TEXT, None)
            assert kinds(drain(pool)) == [("done", "ok_two")]
        assert len(factory.spawned) == 2

    def test_size_is_clamped_to_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 2)
        spawn = None  # sizing spawns nothing
        assert WorkerPool(spawn, 8, clamp=True).size == 2
        assert WorkerPool(spawn, 8, clamp=False).size == 8
        assert WorkerPool(spawn, None, clamp=False).size == 2
        assert WorkerPool(spawn, 8, clamp=False, tasks=3).size == 3
        assert WorkerPool(spawn, 0, clamp=False, tasks=0).size == 1


class TestCleanup:
    def test_shutdown_and_kill_are_safe_to_repeat(self):
        factory = Factory()
        stopped, killed = factory(), factory()
        stopped.shutdown()
        stopped.shutdown()
        stopped.kill()
        killed.kill()
        killed.kill()
        killed.shutdown()
        assert multiprocessing.active_children() == []

    def test_close_stops_idle_workers_before_joining_any(self, monkeypatch):
        """By the time ``close`` shuts the first idle worker down, the other
        has its stop already: it exits without a shutdown of its own."""
        factory = Factory()
        exited_early = []
        original = Worker.shutdown

        def shutdown(worker):
            for other in factory.spawned:
                if other is not worker and not other.conn.closed:
                    other.process.join(timeout=10.0)
                    exited_early.append(other.process.exitcode == 0)
            original(worker)

        monkeypatch.setattr(Worker, "shutdown", shutdown)
        with WorkerPool(factory, 2, clamp=False) as pool:
            pool.assign(Task("ok_one"), TEXT, None)
            pool.assign(Task("ok_two"), TEXT, None)
            drain(pool)
        assert exited_early == [True]
        assert multiprocessing.active_children() == []

    def test_close_after_a_kill_keeps_the_original_error(self):
        factory = Factory()
        with pytest.raises(RuntimeError, match="caller failed"):
            with WorkerPool(factory, 1, clamp=False) as pool:
                pool.assign(Task("hang_me"), TEXT, None)
                factory.spawned[0].kill()
                raise RuntimeError("caller failed")
        assert multiprocessing.active_children() == []

    def test_failing_replacement_spawn_propagates(self, monkeypatch):
        """The batch's hard kill empties the slot before the replacement is
        spawned, so a failing spawn surfaces as itself, not as a second
        ``kill()`` of the closed worker."""
        spawns = []

        class SecondSpawnFails(Worker):
            def __init__(self, *args):
                spawns.append(args)
                if len(spawns) == 2:
                    raise RuntimeError("spawn failed")
                super().__init__(*args)

        monkeypatch.setattr(parallel_module, "Worker", SecondSpawnFails)
        module = generate_module(
            [
                ("hang_me", FunctionShape(loops=0, diamonds=0), 1),
                ("ok_one", FunctionShape(loops=0, diamonds=0), 2),
            ]
        )
        with pytest.raises(RuntimeError, match="spawn failed"):
            run_batch_parallel(
                module,
                TvOptions(keq=KeqOptions(wall_budget_seconds=1.0)),
                jobs=1,
                validate=marked_validate,
                grace_factor=1.0,
                grace_slack=1.0,
            )
        assert len(spawns) == 2
        assert multiprocessing.active_children() == []
