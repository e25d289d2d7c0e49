"""Experiment: durable campaign overhead and crash-recovery cost.

The campaign subsystem (:mod:`repro.campaign`) adds journaling, sharding,
and a supervisor loop on top of the plain ``run_corpus`` pool.  This
benchmark measures what that durability costs and what a recovery cycle
adds:

- wall-clock of a plain ``run_corpus`` pool vs a sharded, journaled
  campaign over the same corpus (same pool size, shared code path for the
  actual validation work);
- wall-clock of an interrupted-then-resumed campaign (one injected worker
  SIGKILL plus a supervisor halt) vs the uninterrupted campaign, along
  with the journal replay that makes the resume skip completed work;
- byte-identical report check between the resumed and uninterrupted runs
  (the correctness contract of the journal/merge layers).

Numbers land in ``BENCH_campaign.json`` via the ``bench_json`` hook.
Overheads are *recorded*, not asserted — spawn cost dominates at benchmark
scale and varies per box.  What is asserted is the contract: identical
function tables in every mode and a clean recovery.
"""

import time

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    load_state,
    resume_campaign,
    run_campaign,
)
from repro.campaign.hooks import KILL_DIR_ENV, KILL_ONCE_ENV, sigkill_injector
from repro.tv.batch import run_corpus
from repro.tv.driver import TvOptions
from repro.util import available_cpus
from repro.workloads import gcc_like_corpus

SCALE = 24
SEED = 2021
JOBS = 2
VICTIM = "fn_succeeded_0000"


def _config(**overrides):
    settings = dict(
        scale=SCALE,
        seed=SEED,
        shards=2,
        jobs=JOBS,
        wall_budget=30.0,
        backoff_seconds=0.05,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def _table(result):
    """Comparable per-function rows from either a BatchResult or a report."""
    return [(o.function, o.category) for o in result.outcomes]


def test_bench_campaign_overhead(tmp_path_factory, bench_json):
    corpus = gcc_like_corpus(scale=SCALE, seed=SEED)

    started = time.perf_counter()
    plain = run_corpus(
        corpus, TvOptions.for_campaign(wall_budget_seconds=30.0), jobs=JOBS
    )
    t_plain = time.perf_counter() - started

    directory = str(tmp_path_factory.mktemp("bench-campaign"))
    started = time.perf_counter()
    report = run_campaign(directory, _config())
    t_campaign = time.perf_counter() - started

    assert report.complete
    assert _table(report.batch) == sorted(_table(plain))

    cores = available_cpus()
    print(f"\ndurable campaign overhead (scale {SCALE}, {cores} cores):")
    print(f"  run_corpus pool: {t_plain:.2f}s")
    print(
        f"  campaign:        {t_campaign:.2f}s"
        f" ({t_campaign / t_plain:.2f}x, journaled + sharded)"
    )

    bench_json(
        "campaign",
        {
            "scale": SCALE,
            "jobs": JOBS,
            "functions": len(report.batch.outcomes),
            "dedup_classes": report.batch.dedup_classes,
            "replayed": report.batch.deduped_functions,
            "wall_seconds": {
                "run_corpus": round(t_plain, 3),
                "campaign": round(t_campaign, 3),
            },
            "overhead_factor": round(t_campaign / t_plain, 3),
        },
    )


def test_bench_crash_recovery_cost(tmp_path_factory, bench_json, monkeypatch):
    baseline_dir = str(tmp_path_factory.mktemp("bench-baseline"))
    started = time.perf_counter()
    baseline = run_campaign(baseline_dir, _config())
    t_baseline = time.perf_counter() - started

    crash_dir = str(tmp_path_factory.mktemp("bench-crash"))
    monkeypatch.setenv(KILL_ONCE_ENV, VICTIM)
    monkeypatch.setenv(KILL_DIR_ENV, crash_dir)
    started = time.perf_counter()
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            crash_dir,
            _config(halt_on_worker_death=True, validate=sigkill_injector),
        )
    t_until_crash = time.perf_counter() - started

    completed_before = len(load_state(crash_dir).completed)
    started = time.perf_counter()
    resumed = resume_campaign(crash_dir)
    t_resume = time.perf_counter() - started

    assert resumed.complete
    assert resumed.function_table() == baseline.function_table()
    assert resumed.summary(include_timing=False) == baseline.summary(
        include_timing=False
    )

    total = len(resumed.batch.outcomes)
    print(f"\ncrash recovery (scale {SCALE}):")
    print(f"  uninterrupted campaign: {t_baseline:.2f}s")
    print(
        f"  until injected crash:   {t_until_crash:.2f}s"
        f" ({completed_before}/{total} functions journaled)"
    )
    print(f"  resume to completion:   {t_resume:.2f}s")
    print(
        "  recovery overhead:      "
        f"{(t_until_crash + t_resume) / t_baseline:.2f}x of one clean run"
    )

    bench_json(
        "campaign",
        {
            "recovery": {
                "uninterrupted_seconds": round(t_baseline, 3),
                "until_crash_seconds": round(t_until_crash, 3),
                "resume_seconds": round(t_resume, 3),
                "completed_before_crash": completed_before,
                "total_functions": total,
                "overhead_factor": round(
                    (t_until_crash + t_resume) / t_baseline, 3
                ),
                "reports_identical": True,
            }
        },
    )
