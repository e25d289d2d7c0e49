"""Timed spans around the public entry points of each pipeline layer.

The benchmark measures layers from outside the program: :func:`install`
replaces one public function or method per layer with a wrapper that
records a span (layer name, start, end, parent span, and the function
being validated) plus a few counters read off the arguments and results.
Nothing inside ``src/repro`` is edited; the wrappers live only in the
traced interpreter.

A layer's *self time* is its span's duration minus the time covered by
its child spans.  Spans nest strictly (validation is single-threaded per
process), so the children of a span are exactly the spans whose parent
index points at it.  Direct recursion into the same layer (the bit-blaster
encoding a term's arguments, ``simplify`` nested in ``simplify``) is
folded into the outermost span.

Spans stay in memory and are written out once, when the process ends the
measured run (:meth:`Recorder.dump`); campaign workers write theirs when
they exit (see ``hooks.py``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import types
from collections import defaultdict

#: Environment variable telling campaign workers to trace (see hooks.py).
TRACE_ENV = "PERFBENCH_TRACE"

#: Span layer names, in pipeline order (the order of the per-layer table).
LAYERS = (
    "run",
    "calibrate",
    "workloads.build",
    "campaign.prepare",
    "campaign.workers",
    "campaign.wait",
    "campaign.journal",
    "campaign.merge",
    "tv.dedup.plan",
    "tv.validate",
    "isel",
    "vcgen",
    "keq",
    "smt.solver",
    "smt.simplify",
    "smt.cache",
    "smt.bitblast",
    "smt.sat",
)


class Recorder:
    """Spans and counters of one process.

    A span is the list ``[layer, start, end, parent, request]``: ``parent``
    is the index of the enclosing span (-1 at top level) and ``request``
    the function under validation, shared by every span of that function.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.request = ""

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time the ``with`` block as one span of ``layer``."""
        span = [layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, layer: str, fn, before=None, after=None, request=None):
        """``fn`` wrapped in a span of ``layer``.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(token, args, result)``, which runs once the span has closed
        (so counter bookkeeping is charged to the caller, not the layer).
        ``request(args)`` names the function a top-level span validates.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            previous = self.request
            if request is not None:
                self.request = request(args)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self.request = previous
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- output ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data form of everything recorded (one process)."""
        from repro.smt import terms

        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": dict(self.counters),
            "interned": terms.interned_count(),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)


# -- installation ----------------------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper`` (``from x import f`` copies the binding into the importer)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_method(rec, cls, name, layer, **hooks) -> None:
    setattr(cls, name, rec.wrap(layer, getattr(cls, name), **hooks))


def _patch_function(rec, original, layer, **hooks) -> None:
    _replace_everywhere(original, rec.wrap(layer, original, **hooks))


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points so they record into ``rec``.

    Must run in a fresh interpreter before any validation: the wrappers
    replace module bindings and class attributes process-wide.
    """
    # import_module, not ``import a.b as c``: packages re-export functions
    # under their submodules' names (``repro.smt.simplify``).
    supervisor = importlib.import_module("repro.campaign.supervisor")
    lowering = importlib.import_module("repro.isel.lowering")
    simplify_module = importlib.import_module("repro.smt.simplify")
    dedup = importlib.import_module("repro.tv.dedup")
    driver = importlib.import_module("repro.tv.driver")
    vcgen = importlib.import_module("repro.vcgen.syncgen")
    importlib.import_module("repro.tv.batch")  # binds validate_function
    importlib.import_module("repro.tv.parallel")  # binds validate_function
    from repro.campaign.journal import Journal
    from repro.keq.symbolic import Keq
    from repro.smt.bitblast import BitBlaster
    from repro.smt.cache import QueryCache
    from repro.smt.sat import SatSolver
    from repro.smt.solver import Solver, SolverSession
    from repro.targets import get_target
    from repro.workloads.corpus import CorpusSpec

    count = rec.count

    # smt.sat: CDCL search (solve) and clause-database inprocessing.
    def sat_before(args):
        stats = args[0].stats
        return stats.conflicts, stats.propagations

    def sat_after(token, args, result):
        stats = args[0].stats
        count("smt.sat.calls")
        count("smt.sat.conflicts", stats.conflicts - token[0])
        count("smt.sat.propagations", stats.propagations - token[1])

    _patch_method(rec, SatSolver, "solve", "smt.sat", before=sat_before, after=sat_after)
    _patch_method(rec, SatSolver, "inprocess", "smt.sat")

    # smt.bitblast: Tseitin encoding of asserted and assumed terms.
    for method in ("assert_term", "encode_bool", "encode_bv"):
        _patch_method(rec, BitBlaster, method, "smt.bitblast")

    # smt.solver: the query facade, fresh and incremental.
    def solver_before(args):
        solver = args[0] if isinstance(args[0], Solver) else args[0].solver
        return solver, solver.stats.sat_calls

    def solver_after(token, args, result):
        solver, sat_calls = token
        count("smt.solver.queries")
        if solver.stats.sat_calls == sat_calls:
            count("smt.solver.fast_path")

    for cls, method in ((Solver, "check_sat"), (SolverSession, "check")):
        _patch_method(
            rec, cls, method, "smt.solver", before=solver_before, after=solver_after
        )

    _patch_function(
        rec,
        simplify_module.simplify,
        "smt.simplify",
        after=lambda token, args, result: count("smt.simplify.calls"),
    )

    def lookup_after(token, args, result):
        count("smt.cache.lookups")
        if result is not None:
            count("smt.cache.hits")

    _patch_method(rec, QueryCache, "lookup", "smt.cache", after=lookup_after)
    _patch_method(
        rec,
        QueryCache,
        "store",
        "smt.cache",
        after=lambda token, args, result: count("smt.cache.stores"),
    )

    def keq_after(token, args, result):
        stats = result.stats
        count("keq.steps", stats.steps_left + stats.steps_right)
        count("keq.points", stats.points_checked)

    _patch_method(rec, Keq, "check_equivalence", "keq", after=keq_after)

    def vcgen_after(token, args, result):
        count("vcgen.sync_points", len(result))
        count("vcgen.spec_size", result.spec_size())

    _patch_function(rec, vcgen.generate_sync_points, "vcgen", after=vcgen_after)

    _patch_function(
        rec,
        lowering.select_function,
        "isel",
        after=lambda token, args, result: count("isel.calls"),
    )
    get_target.cache_clear()  # the registry caches the unwrapped binding

    _patch_function(
        rec,
        dedup.plan_dedup,
        "tv.dedup.plan",
        after=lambda token, args, result: count(
            "tv.dedup.replayed", len(result.replay)
        ),
    )
    _patch_function(
        rec,
        driver.validate_function,
        "tv.validate",
        request=lambda args: args[1],
    )
    _patch_method(rec, CorpusSpec, "build_module", "workloads.build")

    # Campaign supervisor (parent process only; workers trace through the
    # ``validate`` hook in hooks.py).
    _patch_function(rec, supervisor.prepare_campaign, "campaign.prepare")
    _patch_method(rec, Journal, "append", "campaign.journal")
    supervisor.merge_campaign = rec.wrap("campaign.merge", supervisor.merge_campaign)
    supervisor.load_state = rec.wrap("campaign.merge", supervisor.load_state)
    # campaign.workers: starting and stopping worker processes.
    for method in ("shutdown", "kill"):
        _patch_method(rec, supervisor.Worker, method, "campaign.workers")
    supervisor.Worker = rec.wrap(
        "campaign.workers",
        supervisor.Worker,
        after=lambda token, args, result: count("campaign.worker_spawns"),
    )
    supervisor.mp_connection = types.SimpleNamespace(
        wait=rec.wrap("campaign.wait", supervisor.mp_connection.wait)
    )


# -- analysis ------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def layer_table(snapshots: list[dict]) -> dict[str, dict]:
    """Per-layer span count and self time, summed over processes."""
    table = {layer: {"count": 0, "self_s": 0.0} for layer in LAYERS}
    for snapshot in snapshots:
        spans = snapshot["spans"]
        for span, own in zip(spans, self_times(spans)):
            row = table[span[0]]
            row["count"] += 1
            row["self_s"] += own
    return table


def function_breakdown(spans: list[list]) -> dict[str, dict]:
    """For every ``tv.validate`` span: its duration and the self time of
    each layer nested inside it (``tv.validate`` itself included)."""
    own = self_times(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = {}
    for index, span in enumerate(spans):
        if span[0] != "tv.validate":
            continue
        layers: dict[str, float] = defaultdict(float)
        pending = [index]
        while pending:
            current = pending.pop()
            layers[spans[current][0]] += own[current]
            pending.extend(children[current])
        result[span[4]] = {"span_s": span[2] - span[1], "layers": dict(layers)}
    return result


def chrome_events(snapshots: list[dict]) -> list[dict]:
    """Spans as Chrome trace-event ``X`` (complete) events, microseconds
    from the earliest span of any process (one process per ``pid``)."""
    starts = [span[1] for snapshot in snapshots for span in snapshot["spans"]]
    origin = min(starts) if starts else 0.0
    events = []
    for snapshot in snapshots:
        pid = snapshot["pid"]
        for span in snapshot["spans"]:
            events.append(
                {
                    "name": span[0],
                    "cat": span[0].split(".")[0],
                    "ph": "X",
                    "ts": round((span[1] - origin) * 1e6, 3),
                    "dur": round((span[2] - span[1]) * 1e6, 3),
                    "pid": pid,
                    "tid": pid,
                    "args": {"fn": span[4]} if span[4] else {},
                }
            )
    return events
