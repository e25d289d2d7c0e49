"""Experiment: campaign throughput — parallel fan-out and the query cache.

Measures the two performance levers added on top of the Figure 6 campaign:

- wall-clock time of the sequential runner vs ``jobs=2`` and ``jobs=4``
  (worker processes re-parse the module, so the speedup is honest: it
  includes spawn and re-parse overhead);
- solver query cache hit-rate of a cold persistent-cache run vs a warm
  rerun over the same corpus.

The numbers land in ``BENCH_parallel.json`` at the repo root via the
``bench_json`` conftest hook.  Speedup is *recorded*, not asserted — CI
boxes may expose a single core, where fan-out can only lose to spawn
overhead.  What is asserted is the correctness contract: every mode
produces outcome-identical results, and the warm cache actually hits.
"""

import time

import pytest

from repro.tv.batch import run_corpus
from repro.util import available_cpus
from repro.workloads import gcc_like_corpus

SCALE = 24
SEED = 2021


def _keys(result):
    return [(o.function, o.category) for o in result.outcomes]


@pytest.fixture(scope="module")
def corpus():
    return gcc_like_corpus(scale=SCALE, seed=SEED)


def _timed(corpus, **kwargs):
    started = time.perf_counter()
    result = run_corpus(corpus, **kwargs)
    return result, time.perf_counter() - started


def test_bench_parallel_wall_time(corpus, bench_json):
    sequential, t_seq = _timed(corpus)
    jobs2, t_2 = _timed(corpus, jobs=2)
    jobs4, t_4 = _timed(corpus, jobs=4)

    assert _keys(jobs2) == _keys(sequential)
    assert _keys(jobs4) == _keys(sequential)

    cores = available_cpus()
    print(f"\ncampaign wall time (scale {SCALE}, {cores} cores):")
    print(f"  sequential: {t_seq:.2f}s")
    print(f"  jobs=2:     {t_2:.2f}s ({t_seq / t_2:.2f}x)")
    print(f"  jobs=4:     {t_4:.2f}s ({t_seq / t_4:.2f}x)")

    bench_json(
        "parallel",
        {
            "scale": SCALE,
            "functions": len(sequential.outcomes),
            "wall_seconds": {
                "sequential": round(t_seq, 3),
                "jobs2": round(t_2, 3),
                "jobs4": round(t_4, 3),
            },
            "speedup": {
                "jobs2": round(t_seq / t_2, 3),
                "jobs4": round(t_seq / t_4, 3),
            },
        },
    )


def test_bench_cache_hit_rate(corpus, bench_json, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("query-cache"))
    cold, t_cold = _timed(corpus, cache_dir=directory)
    warm, t_warm = _timed(corpus, cache_dir=directory)

    assert _keys(warm) == _keys(cold)

    def rate(stats):
        lookups = stats.cache_hits + stats.cache_misses
        return stats.cache_hits / lookups if lookups else 0.0

    cold_rate, warm_rate = rate(cold.solver_stats), rate(warm.solver_stats)
    print(f"\nquery cache (scale {SCALE}):")
    print(f"  cold: hit-rate={100 * cold_rate:.1f}% wall={t_cold:.2f}s")
    print(f"  warm: hit-rate={100 * warm_rate:.1f}% wall={t_warm:.2f}s")

    # The warm run replays the exact same queries: everything the solver
    # decided (and therefore cached) in the cold run must hit.
    assert warm.solver_stats.cache_hits > 0
    assert warm_rate > cold_rate

    bench_json(
        "parallel",
        {
            "cache": {
                "cold_hit_rate": round(cold_rate, 4),
                "warm_hit_rate": round(warm_rate, 4),
                "cold_wall_seconds": round(t_cold, 3),
                "warm_wall_seconds": round(t_warm, 3),
                "warm_hits": warm.solver_stats.cache_hits,
                "warm_misses": warm.solver_stats.cache_misses,
            }
        },
    )
