"""Parallel batch validation and the supervised worker pool.

The GCC-style campaign is embarrassingly parallel: every function is
validated independently, so work fans out over worker *processes*
(symbolic execution and CDCL are pure Python — threads would serialize on
the GIL).  The design constraints:

- **Spawn safety.**  :class:`repro.smt.terms.Term` objects are interned in
  a per-process table; shipping them across a pipe would either break the
  ``is``-equality invariant or smuggle one process's table into another.
  Each task therefore carries its function *as text* (:func:`task_text`:
  the module's globals and that one function) and the worker parses it —
  the printer/parser round-trip is exact (see ``ConstGep.__str__``) and
  validation reads only the function, the globals and the options (a call
  is a ``CALLING`` cut state; no step reads a callee's body, DESIGN.md
  §6), so a worker reproduces precisely the sequential result.  A worker
  is spawned with only the options, the overrides, the cache directory
  and the validate hook, so its spawn arguments fit the spawn pipe and
  every worker boots at once.
- **Deterministic ordering.**  :func:`run_batch_parallel` returns its
  outcomes in input order no matter which worker finished first.
- **Hard kill-and-reap.**  The per-function ``wall_budget_seconds`` is
  enforced cooperatively inside KEQ, but a worker stuck outside a budget
  check (or in a pathological parse) would stall the pool.  The pool
  tracks a hard deadline per in-flight task; an overdue worker is
  terminated and its task recorded as ``Category.TIMEOUT``.  A worker that
  dies (crash, OOM-kill) similarly yields ``Category.OTHER`` with the exit
  detail, and the pool keeps draining.

:class:`WorkerPool` owns that lifecycle for every driver: the batch runner
here, the campaign supervisor (:mod:`repro.campaign.supervisor`) and the
service worker client (:mod:`repro.service.worker`) keep only their
policy for what an event means.

Each worker keeps one :class:`repro.smt.cache.QueryCache` for its
lifetime; with ``cache_dir`` set, decided queries are shared across
workers and across runs through the persistent store.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
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
#: budget-check interval and the parse of the task's own text.
_GRACE_FACTOR = 1.5
_GRACE_SLACK = 5.0

#: Pool poll interval while waiting for results (seconds).
_POLL_SECONDS = 0.05


def default_validate(module, name, options, cache):
    """The validation callable workers run; replaceable via ``validate``
    (used by tests to inject hanging/crashing workloads)."""
    return validate_function(module, name, options, cache)


def _task_options(options, overrides, name) -> TvOptions:
    """The options ``name`` validates under: its override, else the base
    options, else the defaults."""
    return overrides.get(name, options) or TvOptions()


def task_text(module: ir.Module, name: str) -> str:
    """The text a task carries: the LLVM text of a module holding
    ``module``'s globals and its function ``name``, nothing else."""
    return str(
        ir.Module(globals=module.globals, functions={name: module.function(name)})
    )


def _crash(name, target, detail) -> TvOutcome:
    return TvOutcome(
        name,
        Category.OTHER,
        target=target,
        detail=detail,
        failure_class=FAILURE_CLASS_CRASH,
    )


def _worker_main(conn, options, overrides, cache_dir, validate):
    """Worker loop: serve tasks off the pipe, parsing each task's text."""
    from repro.llvm import parse_module
    from repro.smt import QueryCache

    validate = validate or default_validate
    cache = QueryCache(cache_dir=cache_dir)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, name, text = message
        target = _task_options(options, overrides, name).target
        try:
            module = parse_module(text)
        except Exception:
            detail = traceback.format_exc(limit=8)
            outcome = _crash(name, target, f"module re-parse failed:\n{detail}")
        else:
            try:
                outcome = validate(
                    module, name, overrides.get(name, options), cache
                )
            except BaseException:
                outcome = _crash(name, target, traceback.format_exc(limit=12))
        try:
            conn.send(("done", outcome))
        except (BrokenPipeError, OSError):
            return


class Worker:
    """One spawned worker process plus its duplex pipe and current task."""

    def __init__(self, options, overrides, cache_dir, validate):
        ctx = mp.get_context("spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, options, overrides, cache_dir, validate),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        # Kept so the outcomes the pool builds itself name the target.
        self.options = options
        self.overrides = overrides
        self.task = None
        self.started: float = 0.0
        self.deadline: float | None = None
        self._stop_sent = False

    def assign(self, task, text: str, hard_budget: float | None) -> None:
        """Send ``task.name`` and its :func:`task_text` to the worker and
        start the task's clock."""
        self.conn.send(("task", task.name, text))
        self.task = task
        self.started = time.perf_counter()
        self.deadline = (
            self.started + hard_budget if hard_budget is not None else None
        )

    def overdue(self, now: float) -> bool:
        return (
            self.task is not None
            and self.deadline is not None
            and now > self.deadline
        )

    def request_stop(self) -> None:
        """Ask the worker to stop without waiting for it; :meth:`shutdown`
        reaps it.  Sends at most once, and nothing to a closed worker."""
        if self.conn.closed or self._stop_sent:
            return
        self._stop_sent = True
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass

    def shutdown(self) -> None:
        """Ask the worker to stop, terminating it if it does not.

        A no-op once the worker was shut down or killed."""
        if self.conn.closed:
            return
        self.request_stop()
        self.conn.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.process.close()

    def kill(self) -> None:
        """Terminate the worker (SIGKILL if SIGTERM is not enough) and
        reap it.  A no-op once the worker was shut down or killed."""
        if self.conn.closed:
            return
        self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)
        self.conn.close()
        self.process.close()


@dataclass
class PoolEvent:
    """What became of one assigned task (see :meth:`WorkerPool.poll`).

    ``kind`` is ``"done"`` (the worker sent ``outcome``), ``"died"`` (its
    process exited mid-task; ``outcome`` is the ``Category.OTHER`` record
    with the exit code) or ``"overdue"`` (hard-killed past its deadline;
    ``outcome`` is ``Category.TIMEOUT``).
    """

    kind: str
    task: object
    outcome: TvOutcome


class WorkerPool:
    """A fixed number of worker slots and the whole worker lifecycle.

    Callers hand tasks (objects with a ``name``: the function to validate),
    each with its :func:`task_text`, to :meth:`assign` and act on the
    :class:`PoolEvent` s :meth:`poll` yields.  ``spawn`` is a zero-argument :class:`Worker` factory.  The
    first assignment starts a worker in every slot; after that, a slot
    emptied by a death or a hard kill is refilled only when a task is
    assigned to it, so it stays empty while there is no work for it.

    ``jobs`` (None: every available CPU) is clamped to
    :func:`repro.util.available_cpus` when ``clamp`` is set and to
    ``tasks`` when that is known.
    """

    def __init__(
        self, spawn, jobs: int | None, clamp: bool, tasks: int | None = None
    ):
        cores = available_cpus()
        if jobs is None:
            jobs = cores
        elif clamp and jobs > cores:
            # Workers run pure-Python CPU-bound search: oversubscribing
            # cores only adds scheduler thrash (BENCH_parallel.json measured
            # jobs=4 at 0.24x sequential on a 1-core box).
            logger.info(
                "clamping jobs=%d to cpu_count=%d (avoiding oversubscription)",
                jobs,
                cores,
            )
            jobs = cores
        if tasks is not None:
            jobs = min(jobs, tasks or 1)
        self.size = max(1, jobs)
        self._spawn = spawn
        self._slots: list[Worker | None] = [None] * self.size
        self._started = False

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _busy(self) -> list[Worker]:
        return [w for w in self._slots if w is not None and w.task is not None]

    @property
    def busy(self) -> int:
        """Slots running a task."""
        return len(self._busy())

    @property
    def free(self) -> int:
        """Slots a task can be assigned to."""
        return self.size - self.busy

    def assign(self, task, text: str, hard_budget: float | None) -> None:
        """Start ``task`` (its function's :func:`task_text` is ``text``) in a
        free slot, spawning a worker if it is empty.

        A worker that died before taking the task is replaced and the task
        handed to the fresh one: that is not the task's fault, so it
        raises no event.
        """
        if not self._started:
            # Start every worker before any task runs: a worker starting
            # up beside a running task competes with it for the CPU.
            self._started = True
            for slot in range(self.size):
                self._slots[slot] = self._spawn()
        free = [
            i for i, w in enumerate(self._slots) if w is None or w.task is None
        ]
        # An idle worker first: spawn only when none is left.
        slot = next((i for i in free if self._slots[i] is not None), free[0])
        while True:
            worker = self._slots[slot]
            if worker is None:
                worker = self._slots[slot] = self._spawn()
            try:
                worker.assign(task, text, hard_budget)
                return
            except (BrokenPipeError, OSError):
                self._slots[slot] = None
                worker.kill()

    def poll(self, timeout: float | None = None, wait=mp_connection.wait):
        """Wait up to ``timeout`` seconds (default ``_POLL_SECONDS``) for a
        busy worker to answer, then yield a :class:`PoolEvent` for every
        answered, dead or overdue one.  With nothing busy, just sleep.

        ``wait`` is :func:`multiprocessing.connection.wait` or a stand-in
        with its signature.
        """
        timeout = _POLL_SECONDS if timeout is None else timeout
        busy = self._busy()
        if not busy:
            time.sleep(timeout)
            return
        ready = wait([w.conn for w in busy], timeout)
        for slot, worker in enumerate(self._slots):
            if worker is None or worker.task is None:
                continue
            if worker.conn in ready:
                try:
                    _, outcome = worker.conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task (crash, OOM-kill, ...).  The
                    # pipe closes before the process is reaped.
                    worker.process.join(timeout=1.0)
                    yield self._retire(
                        slot,
                        "died",
                        Category.OTHER,
                        f"worker process died (exitcode={worker.process.exitcode})",
                        FAILURE_CLASS_CRASH,
                    )
                    continue
                task, worker.task = worker.task, None
                yield PoolEvent("done", task, outcome)
            elif worker.overdue(time.perf_counter()):
                yield self._retire(
                    slot,
                    "overdue",
                    Category.TIMEOUT,
                    "hard wall-clock kill (worker unresponsive)",
                    FAILURE_CLASS_TIMEOUT,
                )

    def _retire(self, slot, kind, category, detail, failure_class) -> PoolEvent:
        """Kill the worker in ``slot``, empty the slot, and report its task."""
        worker = self._slots[slot]
        self._slots[slot] = None
        worker.kill()
        task = worker.task
        options = _task_options(worker.options, worker.overrides, task.name)
        outcome = TvOutcome(
            task.name,
            category,
            target=options.target,
            detail=detail,
            seconds=time.perf_counter() - worker.started,
            failure_class=failure_class,
        )
        return PoolEvent(kind, task, outcome)

    def close(self) -> None:
        """Stop every worker: idle ones gracefully, busy ones by kill.

        Every idle worker is asked to stop before any is joined, so their
        exits (interpreter teardown) overlap."""
        workers = [w for w in self._slots if w is not None]
        self._slots = [None] * self.size
        for worker in workers:
            if worker.task is None:
                worker.request_stop()
        for worker in workers:
            if worker.task is not None:
                worker.kill()
            else:
                worker.shutdown()


def hard_budget(
    options: TvOptions | None,
    grace_factor: float = _GRACE_FACTOR,
    grace_slack: float = _GRACE_SLACK,
) -> float | None:
    wall = (options or TvOptions()).keq.wall_budget_seconds
    if wall is None:
        return None
    return wall * grace_factor + grace_slack


@dataclass
class _Task:
    index: int
    name: str


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
    pool = WorkerPool(
        lambda: Worker(options, overrides, cache_dir, validate),
        jobs,
        # Injected ``validate`` hooks (test harnesses exercising pool
        # mechanics) keep the requested fan-out.
        clamp=validate is None,
        tasks=len(names),
    )
    if pool.size == 1 and validate is None:
        # One effective worker gains nothing from the pool but pays spawn
        # and parse costs; run_batch is outcome-identical.
        logger.info("single effective worker: validating sequentially")
        return run_batch(
            module,
            options,
            function_names=names,
            overrides=overrides,
            cache_dir=cache_dir,
        )
    pending = deque(_Task(i, name) for i, name in enumerate(names))
    outcomes: dict[int, TvOutcome] = {}
    with pool:
        while pending or pool.busy:
            while pending and pool.free:
                task = pending.popleft()
                pool.assign(
                    task,
                    task_text(module, task.name),
                    hard_budget(
                        overrides.get(task.name, options),
                        grace_factor,
                        grace_slack,
                    ),
                )
            for event in pool.poll():
                outcomes[event.task.index] = event.outcome
    result = BatchResult(outcomes=[outcomes[i] for i in range(len(names))])
    result.merge_stats()
    return result
