"""Metric definitions and how each is computed from one iteration.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints,
in the order of ``BENCHMARK.json`` (the benchmark's tests keep the two in
step).  A run reports, for each metric, the median of its per-iteration
values.  End-to-end timings are in reference seconds (see
``calibrate.py``); the measured seconds are printed beside them.
"""

from __future__ import annotations

import math
from statistics import median

import calibrate

#: (name, unit) of every end-to-end metric, measured with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("functions_per_s", "1/s"),
    ("verdict_p50_s", "s"),
    ("slowest_tenth_s", "s"),
    ("decided_share", "ratio"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, measured in the traced run.
PER_LAYER = (
    ("smt.sat.calls", "count"),
    ("smt.sat.self_s", "s"),
    ("smt.sat.conflicts", "count"),
    ("smt.sat.propagations", "count"),
    ("smt.sat.propagations_per_s", "1/s"),
    ("smt.bitblast.self_s", "s"),
    ("smt.solver.queries", "count"),
    ("smt.solver.self_s", "s"),
    ("smt.solver.fast_path_share", "ratio"),
    ("smt.simplify.calls", "count"),
    ("smt.simplify.self_s", "s"),
    ("smt.cache.lookups", "count"),
    ("smt.cache.stores", "count"),
    ("smt.cache.hit_rate", "ratio"),
    ("smt.cache.self_s", "s"),
    ("smt.terms.interned", "count"),
    ("keq.self_s", "s"),
    ("keq.steps", "count"),
    ("keq.points", "count"),
    ("vcgen.self_s", "s"),
    ("vcgen.sync_points", "count"),
    ("vcgen.spec_size", "count"),
    ("isel.calls", "count"),
    ("isel.self_s", "s"),
    ("tv.validate.self_s", "s"),
    ("tv.dedup.plan_s", "s"),
    ("tv.dedup.replayed", "count"),
    ("campaign.prepare_s", "s"),
    ("campaign.workers_s", "s"),
    ("campaign.journal_s", "s"),
    ("campaign.merge_s", "s"),
    ("campaign.wait_s", "s"),
    ("campaign.worker_spawns", "count"),
    ("workloads.build_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

#: per-layer self-time metrics and the span layer each reads.
_SELF_TIME = {
    "smt.sat.self_s": "smt.sat",
    "smt.bitblast.self_s": "smt.bitblast",
    "smt.solver.self_s": "smt.solver",
    "smt.simplify.self_s": "smt.simplify",
    "smt.cache.self_s": "smt.cache",
    "keq.self_s": "keq",
    "vcgen.self_s": "vcgen",
    "isel.self_s": "isel",
    "tv.validate.self_s": "tv.validate",
    "tv.dedup.plan_s": "tv.dedup.plan",
    "campaign.prepare_s": "campaign.prepare",
    "campaign.workers_s": "campaign.workers",
    "campaign.journal_s": "campaign.journal",
    "campaign.merge_s": "campaign.merge",
    "campaign.wait_s": "campaign.wait",
    "workloads.build_s": "workloads.build",
}

#: per-layer counters read straight from the trace.
_COUNTERS = (
    "smt.sat.calls",
    "smt.sat.conflicts",
    "smt.sat.propagations",
    "smt.solver.queries",
    "smt.simplify.calls",
    "smt.cache.lookups",
    "smt.cache.stores",
    "keq.steps",
    "keq.points",
    "vcgen.sync_points",
    "vcgen.spec_size",
    "isel.calls",
    "tv.dedup.replayed",
    "campaign.worker_spawns",
)


def function_times(
    outcomes: list, kernel_s: dict[str, list], reference: bool
) -> dict[str, float]:
    """Time to verdict of each supported function that was validated (dedup
    replays carry no time of their own), without the benchmark's own
    sampling, in measured or reference seconds (see ``calibrate.py``)."""
    times = {}
    for name, category, seconds, deduped in outcomes:
        if category != "unsupported" and not deduped:
            kernel, sampling = kernel_s[name]
            times[name] = (seconds - sampling) * (
                calibrate.scale(kernel) if reference else 1.0
            )
    return times


def reference_ratio(outcomes: list, kernel_s: dict[str, list]) -> float:
    """Reference over measured seconds, summed over the validated
    functions: the factor for a wall time spent validating them."""
    measured = function_times(outcomes, kernel_s, reference=False)
    reference = function_times(outcomes, kernel_s, reference=True)
    return sum(reference.values()) / sum(measured.values())


def timings(iteration: dict, reference: bool = True) -> dict[str, float]:
    """The timed end-to-end metrics of one iteration.

    In reference seconds the wall time is scaled by the ratio of the
    functions' reference to measured seconds, so a campaign's wall time is
    corrected by both of its workers' samples.
    """
    outcomes, kernel_s = iteration["outcomes"], iteration["kernel_s"]
    times = function_times(outcomes, kernel_s, reference)
    wall = iteration["wall_s"]
    if reference:
        wall *= reference_ratio(outcomes, kernel_s)
    verdicts = sum(1 for o in iteration["outcomes"] if o[1] != "unsupported")
    slowest = sorted(times.values(), reverse=True)
    return {
        "wall_s": wall,
        "functions_per_s": verdicts / wall,
        "verdict_p50_s": median(slowest),
        "slowest_tenth_s": sum(slowest[: max(1, math.ceil(len(slowest) / 10))]),
    }


def end_to_end(iterations: list[dict], warm_s: list[float]) -> dict[str, float]:
    """End-to-end metrics of a run's untraced iterations: the median over
    iterations of each, timings in reference seconds.

    ``setup_s`` is the median set-up time of the iterations, scaled by
    samples taken just before and after it, plus the median of the run's
    cache warm-ups, which ``run.py`` passes in reference seconds.
    """
    values = medians([timings(iteration) for iteration in iterations])
    supported = [o for o in iterations[0]["outcomes"] if o[1] != "unsupported"]
    decided = [
        sum(1 for o in it["outcomes"] if o[1] in ("succeeded", "miscompiled"))
        / len(supported)
        for it in iterations
    ]
    wrong = set()
    for iteration in iterations:
        wrong.update(iteration["verdicts"]["mismatches"])
    values.update(
        setup_s=median(
            it["setup_s"] * calibrate.scale(it["setup_kernel_s"]) for it in iterations
        )
        + (median(warm_s) if warm_s else 0.0),
        decided_share=median(decided),
        correct_share=1.0 - len(wrong) / len(iterations[0]["outcomes"]),
        peak_rss_mb=median(it["peak_rss_kb"] for it in iterations) / 1024.0,
    )
    return values


def per_layer(iteration: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (``trace.overhead_s`` is
    added by the caller, which holds the untraced wall time)."""
    trace = iteration["trace"]
    layers, counters = trace["layers"], trace["counters"]
    values: dict[str, float] = {
        name: layers[layer]["self_s"] for name, layer in _SELF_TIME.items()
    }
    for name in _COUNTERS:
        values[name] = counters.get(name, 0)
    sat_s = values["smt.sat.self_s"]
    queries = counters.get("smt.solver.queries", 0)
    lookups = counters.get("smt.cache.lookups", 0)
    values["smt.sat.propagations_per_s"] = (
        values["smt.sat.propagations"] / sat_s if sat_s else 0.0
    )
    values["smt.solver.fast_path_share"] = (
        counters.get("smt.solver.fast_path", 0) / queries if queries else 0.0
    )
    values["smt.cache.hit_rate"] = (
        counters.get("smt.cache.hits", 0) / lookups if lookups else 0.0
    )
    values["smt.terms.interned"] = trace["interned"]
    values["trace.unattributed_share"] = trace["run_self_s"] / trace["run_s"]
    values["trace.wall_s"] = iteration["wall_s"]
    return values


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(sample[name] for sample in samples) for name in samples[0]}
