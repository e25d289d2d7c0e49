"""Parallel batch validation (the campaign driver's fan-out layer).

The GCC-style campaign is embarrassingly parallel: every function is
validated independently, so the batch fans out over worker *processes*
(symbolic execution and CDCL are pure Python — threads would serialize on
the GIL).  The design constraints:

- **Spawn safety.**  :class:`repro.smt.terms.Term` objects are interned in
  a per-process table; shipping them across a pipe would either break the
  ``is``-equality invariant or smuggle one process's table into another.
  Workers therefore receive the module *as text* and re-parse it — the
  printer/parser round-trip is exact (see ``ConstGep.__str__``) and
  validation outcomes are structure-deterministic, so a worker reproduces
  precisely the sequential result.
- **Deterministic ordering.**  Results are re-assembled by task index;
  the returned :class:`BatchResult` lists outcomes in input order no
  matter which worker finished first.
- **Hard kill-and-reap.**  The per-function ``wall_budget_seconds`` is
  enforced cooperatively inside KEQ, but a worker stuck outside a budget
  check (or in a pathological parse) would stall the pool.  The
  dispatcher tracks a hard deadline per in-flight task; an overdue worker
  is terminated, its task recorded as ``Category.TIMEOUT``, and a fresh
  worker spawned in its place.  A worker that dies (crash, OOM-kill)
  similarly yields ``Category.OTHER`` with the exit detail, and the pool
  keeps draining.

Each worker keeps one :class:`repro.smt.cache.QueryCache` for its
lifetime; with ``cache_dir`` set, decided queries are shared across
workers and across runs through the persistent store.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import dataclass

from repro.keq.report import FAILURE_CLASS_CRASH, FAILURE_CLASS_TIMEOUT
from repro.llvm import ir
from repro.tv.batch import BatchResult, run_batch
from repro.tv.driver import Category, TvOptions, TvOutcome, validate_function
from repro.util import available_cpus

logger = logging.getLogger(__name__)

#: Hard-kill deadline: the cooperative wall budget, plus headroom for one
#: budget-check interval and the module re-parse.
_GRACE_FACTOR = 1.5
_GRACE_SLACK = 5.0

#: Dispatcher poll interval while waiting for results (seconds).
_POLL_SECONDS = 0.05


def default_validate(module, name, options, cache):
    """The validation callable workers run; replaceable via ``validate``
    (used by tests to inject hanging/crashing workloads)."""
    return validate_function(module, name, options, cache)


def _worker_main(conn, module_text, options, overrides, cache_dir, validate):
    """Worker loop: re-parse the module, then serve tasks off the pipe."""
    from repro.llvm import parse_module
    from repro.smt import QueryCache

    validate = validate or default_validate
    try:
        module = parse_module(module_text)
    except Exception:
        detail = traceback.format_exc(limit=8)
        module = None
    cache = QueryCache(cache_dir=cache_dir)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, index, name = message
        if module is None:
            outcome = TvOutcome(
                name,
                Category.OTHER,
                detail=f"module re-parse failed:\n{detail}",
                failure_class=FAILURE_CLASS_CRASH,
            )
        else:
            try:
                outcome = validate(
                    module, name, overrides.get(name, options), cache
                )
            except BaseException:
                outcome = TvOutcome(
                    name,
                    Category.OTHER,
                    detail=traceback.format_exc(limit=12),
                    failure_class=FAILURE_CLASS_CRASH,
                )
        try:
            conn.send(("done", index, outcome))
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Task:
    index: int
    name: str


class Worker:
    """One spawned worker process plus its duplex pipe and current task."""

    def __init__(self, ctx, module_text, options, overrides, cache_dir, validate):
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, module_text, options, overrides, cache_dir, validate),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.task: _Task | None = None
        self.started: float = 0.0
        self.deadline: float | None = None

    def assign(self, task: _Task, hard_budget: float | None) -> None:
        self.task = task
        self.started = time.perf_counter()
        self.deadline = (
            self.started + hard_budget if hard_budget is not None else None
        )
        self.conn.send(("task", task.index, task.name))

    def overdue(self, now: float) -> bool:
        return (
            self.task is not None
            and self.deadline is not None
            and now > self.deadline
        )

    def shutdown(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.process.close()

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)
        self.conn.close()
        self.process.close()


def hard_budget(
    options: TvOptions | None,
    grace_factor: float = _GRACE_FACTOR,
    grace_slack: float = _GRACE_SLACK,
) -> float | None:
    wall = (options or TvOptions()).keq.wall_budget_seconds
    if wall is None:
        return None
    return wall * grace_factor + grace_slack


def run_batch_parallel(
    module: ir.Module,
    options: TvOptions | None = None,
    jobs: int | None = None,
    function_names: list[str] | None = None,
    overrides: dict[str, TvOptions] | None = None,
    cache_dir: str | None = None,
    validate=None,
    grace_factor: float = _GRACE_FACTOR,
    grace_slack: float = _GRACE_SLACK,
) -> BatchResult:
    """Validate every function of a module across ``jobs`` worker processes.

    Mirrors :func:`repro.tv.batch.run_batch` (same arguments, same
    deterministic outcome order; ``jobs=1`` is outcome-identical), adding
    the fan-out, the hard per-function kill described in the module
    docstring, and cross-process cache sharing via ``cache_dir``.
    ``validate`` replaces the per-function validation callable in the
    workers; it must be an importable module-level function.
    """
    names = function_names if function_names is not None else list(module.functions)
    overrides = overrides or {}
    cores = available_cpus()
    if jobs is None:
        jobs = cores
    elif validate is None and jobs > cores:
        # Workers run pure-Python CPU-bound search: oversubscribing cores
        # only adds scheduler thrash (BENCH_parallel.json measured jobs=4 at
        # 0.24x sequential on a 1-core box).  Injected ``validate`` hooks
        # (test harnesses exercising pool mechanics) keep the requested
        # fan-out.
        logger.info(
            "clamping jobs=%d to cpu_count=%d (avoiding oversubscription)",
            jobs,
            cores,
        )
        jobs = cores
    jobs = max(1, min(jobs, len(names) or 1))
    if jobs == 1 and validate is None:
        # One effective worker gains nothing from the pool but pays spawn
        # and re-parse costs; run_batch is outcome-identical.
        logger.info("single effective worker: validating sequentially")
        return run_batch(
            module,
            options,
            function_names=names,
            overrides=overrides,
            cache_dir=cache_dir,
        )
    module_text = str(module)
    ctx = mp.get_context("spawn")

    pending = deque(_Task(i, name) for i, name in enumerate(names))
    outcomes: dict[int, TvOutcome] = {}
    workers: list[Worker] = []

    def spawn() -> Worker:
        return Worker(ctx, module_text, options, overrides, cache_dir, validate)

    def budget_for(task: _Task) -> float | None:
        return hard_budget(
            overrides.get(task.name, options), grace_factor, grace_slack
        )

    try:
        workers = [spawn() for _ in range(jobs)]
        while len(outcomes) < len(names):
            for worker in list(workers):
                if worker.task is None and pending:
                    task = pending.popleft()
                    try:
                        worker.assign(task, budget_for(task))
                    except (BrokenPipeError, OSError):
                        # The worker died before taking work: requeue the
                        # task and replace the worker.
                        pending.appendleft(task)
                        worker.task = None
                        worker.kill()
                        workers.remove(worker)
                        workers.append(spawn())
            ready = mp_connection.wait(
                [w.conn for w in workers if w.task is not None],
                timeout=_POLL_SECONDS,
            )
            replacements: list[Worker] = []
            dead: list[Worker] = []
            for worker in workers:
                if worker.task is None:
                    continue
                task = worker.task
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # The worker died mid-task (crash, OOM-kill, ...).
                        # The pipe closes before the process is reaped.
                        worker.process.join(timeout=1.0)
                        exitcode = worker.process.exitcode
                        worker.kill()
                        outcomes[task.index] = TvOutcome(
                            task.name,
                            Category.OTHER,
                            detail=f"worker process died (exitcode={exitcode})",
                            seconds=time.perf_counter() - worker.started,
                            failure_class=FAILURE_CLASS_CRASH,
                        )
                        dead.append(worker)
                        if pending:
                            replacements.append(spawn())
                        continue
                    _, index, outcome = message
                    outcomes[index] = outcome
                    worker.task = None
                    continue
                if worker.overdue(time.perf_counter()):
                    # Hung worker: hard kill-and-reap, classify as TIMEOUT.
                    worker.kill()
                    outcomes[task.index] = TvOutcome(
                        task.name,
                        Category.TIMEOUT,
                        detail="hard wall-clock kill (worker unresponsive)",
                        seconds=time.perf_counter() - worker.started,
                        failure_class=FAILURE_CLASS_TIMEOUT,
                    )
                    dead.append(worker)
                    if pending:
                        replacements.append(spawn())
            for worker in dead:
                workers.remove(worker)
            workers.extend(replacements)
            if not workers and len(outcomes) < len(names):
                workers = [spawn() for _ in range(min(jobs, len(pending) or 1))]
    finally:
        for worker in workers:
            if worker.task is not None:
                worker.kill()
            else:
                worker.shutdown()

    result = BatchResult(outcomes=[outcomes[i] for i in range(len(names))])
    result.merge_stats()
    return result
