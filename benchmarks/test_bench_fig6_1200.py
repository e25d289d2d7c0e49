"""Experiment: Figure 6 at scale 1200, on both targets.

Every other Figure 6 run in the repository uses scale 120, where the
slowest function takes well under a second.  At scale 1200 (1,413
functions, 1,200 of them supported) the heavy tail shows: functions whose
checks a word-level rewriter decides at once, but which CDCL grinds on
bit by bit until KEQ's 30 s wall clock stops them.  This benchmark runs
the corpus sequentially on each target and records, per target, the
Figure 6 rows, the CDCL work, the wall time, the functions killed at the
wall clock and every function outside its expected row.  Numbers land in
``BENCH_fig6_1200.json``.

Asserted: vx86 lands every function in its expected row, except the one
known difference below.  vriscv is recorded only: it still has functions
that hit the wall clock, and two false ``miscompiled`` verdicts (a left
error that falls under two right successors; see ROADMAP).

Known row difference: the generator names ``fn_oom_1154`` for the
out-of-memory row, but at this scale its spec fits under the parser
memory budget, so it succeeds on both targets.  The rows therefore read
1100/52/44/4 where the names say 1099/52/45/4.

Takes about two minutes (vx86 about 20 s, vriscv about 100 s).
"""

import time

from repro.targets import TARGET_NAMES
from repro.tv.batch import run_corpus
from repro.tv.driver import Category, TvOptions
from repro.workloads import gcc_like_corpus

SCALE = 1200
SEED = 2021
WALL_BUDGET = 30.0
KNOWN_DIFFERENCES = {
    "fn_oom_1154": "its spec fits under the parser memory budget at this "
    "scale, so it succeeds",
}


def _run(target):
    corpus = gcc_like_corpus(scale=SCALE, seed=SEED)
    started = time.perf_counter()
    result = run_corpus(
        corpus,
        TvOptions.for_campaign(wall_budget_seconds=WALL_BUDGET, target=target),
        dedup=False,
    )
    return corpus, result, time.perf_counter() - started


def _record(corpus, result, elapsed):
    expected = {spec.name: spec.expect for spec in corpus.functions}
    stats = result.solver_stats
    slowest = sorted(result.outcomes, key=lambda o: -o.seconds)[:5]
    return {
        "figure6": dict(result.figure6_rows()),
        "cdcl_calls": stats.sat_calls,
        "conflicts": stats.conflicts,
        "unknowns": stats.unknowns,
        "queries": stats.queries,
        "wall_seconds": round(elapsed, 1),
        "killed_at_wall_clock": sorted(
            o.function
            for o in result.outcomes
            if o.category == Category.TIMEOUT and o.seconds >= WALL_BUDGET
        ),
        "outside_expected_row": {
            o.function: o.category
            for o in result.outcomes
            if o.category != expected[o.function]
        },
        "slowest_seconds": {o.function: round(o.seconds, 2) for o in slowest},
    }


def test_bench_fig6_at_scale_1200(bench_json):
    records = {}
    for target in TARGET_NAMES:
        records[target] = _record(*_run(target))
        print(target, records[target])

    vx86 = records["vx86"]
    assert vx86["figure6"] == {
        "Succeeded": 1100,
        "Failed due to timeout": 52,
        "Failed due to out-of-memory": 44,
        "Other": 4,
        "Total": 1200,
    }
    assert vx86["outside_expected_row"] == {"fn_oom_1154": Category.SUCCEEDED}
    assert records["vriscv"]["outside_expected_row"]["fn_oom_1154"] == (
        Category.SUCCEEDED
    )
    bench_json(
        "fig6_1200",
        {
            "scale": SCALE,
            "seed": SEED,
            "wall_budget_seconds": WALL_BUDGET,
            "expected_rows_by_name": {
                "Succeeded": 1099,
                "Failed due to timeout": 52,
                "Failed due to out-of-memory": 45,
                "Other": 4,
            },
            "known_differences": KNOWN_DIFFERENCES,
            "targets": records,
        },
    )
