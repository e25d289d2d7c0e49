"""The benchmark's workloads: inputs, how each is validated, and its oracle.

Every workload validates a corpus pinned to the paper-calibrated
population (corpus seed 2021).  Other corpus seeds change the population
itself: in sizing, ``gcc_like_corpus`` at scale 120 took from 3.6 s to
44 s depending on the seed, and at one seed a function meant to succeed
timed out.  The benchmark's ``--seed`` therefore draws the *order* in
which the corpus's functions are generated into the module and validated
(the order in which a campaign meets its inputs), which moves dedup
representatives, shard placement, cache traffic and interning order
without changing which verdicts are right.

All three workloads target vx86.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil

#: corpus seed of the paper-calibrated population.
CORPUS_SEED = 2021

#: Figure 6 rows of ``gcc_like_corpus(scale=120, seed=2021)``: succeeded,
#: timeout, out-of-memory, other, supported total; plus unsupported.
FIG6_ROWS = (109, 5, 5, 1, 120)
FIG6_UNSUPPORTED = 21

#: workload names; BENCHMARK.json records why each was chosen.
WORKLOADS = ("fig6_mix", "solver_bound", "campaign_warm")


class BuiltCorpus:
    """A corpus whose module was built during set-up.

    ``run_corpus`` and ``run_campaign`` call ``build_module()``; handing
    them the prebuilt module keeps the build out of the timed region.
    """

    def __init__(self, spec) -> None:
        self.functions = spec.functions
        self.module = spec.build_module()

    def build_module(self):
        return self.module


def corpus_spec(workload: str, seed: int, tiny: bool = False):
    """The workload's corpus, its functions in the order drawn by ``seed``.

    ``tiny`` shrinks the corpus for the benchmark's own smoke tests.
    """
    from repro.workloads import gcc_like_corpus, solver_bound_corpus

    if workload == "solver_bound":
        spec = solver_bound_corpus(functions=1 if tiny else 4, seed=CORPUS_SEED)
    else:
        spec = gcc_like_corpus(scale=10 if tiny else 120, seed=CORPUS_SEED)
    random.Random(seed).shuffle(spec.functions)
    return spec


def tv_options(workload: str):
    from repro.tv.driver import TvOptions

    if workload == "solver_bound":
        base = TvOptions()
        return dataclasses.replace(
            base,
            isel=dataclasses.replace(base.isel, mul_decompose=True),
            keq=dataclasses.replace(
                base.keq, incremental_solving=True, session_scope="function"
            ),
        )
    return TvOptions.for_campaign()


def campaign_config(cache_dir: str, validate=None):
    from repro.campaign.supervisor import CampaignConfig

    return CampaignConfig(
        shards=2, jobs=2, cache_dir=cache_dir, dedup=True, validate=validate
    )


def warm_cache(workload: str, seed: int, work: str, tiny: bool, hook):
    """Fill ``<work>/cache`` with one cold campaign over the same inputs;
    returns its outcomes."""
    from repro.campaign.supervisor import run_campaign

    corpus = BuiltCorpus(corpus_spec(workload, seed, tiny))
    report = run_campaign(
        os.path.join(work, "warm-campaign"),
        campaign_config(os.path.join(work, "cache"), validate=hook),
        corpus=corpus,
    )
    return report.batch.outcomes


def set_up(workload: str, seed: int, work: str, iteration: str, tiny: bool):
    """Untimed-by-the-run inputs of one iteration: the built corpus and,
    for the campaign, a fresh copy of the warm cache (misses write back)."""
    corpus = BuiltCorpus(corpus_spec(workload, seed, tiny))
    cache_dir = None
    if workload == "campaign_warm":
        cache_dir = os.path.join(work, iteration, "cache")
        shutil.copytree(os.path.join(work, "cache"), cache_dir)
    return corpus, cache_dir


def validate(workload: str, corpus, cache_dir, work: str, iteration: str, hook=None):
    """Validate the corpus the way the workload's user would; returns the
    outcome of every function, dedup replays included."""
    if workload == "campaign_warm":
        from repro.campaign.supervisor import run_campaign

        report = run_campaign(
            os.path.join(work, iteration, "campaign"),
            campaign_config(cache_dir, validate=hook),
            corpus=corpus,
        )
        return report.batch.outcomes
    from repro.tv.batch import run_corpus

    result = run_corpus(
        corpus, tv_options(workload), dedup=workload == "fig6_mix"
    )
    return result.outcomes


def check_verdicts(workload: str, corpus, outcomes, tiny: bool) -> dict:
    """Every way the outcomes disagree with the known answers.

    ``mismatches`` maps each function whose category differs from its
    ``FunctionSpec.expect`` (or that got no verdict) to what went wrong.
    On the full Figure 6 population ``rows`` also reports rows other than
    the calibrated 109/5/5/1 of 120 supported with 21 unsupported.
    """
    expected = {spec.name: spec.expect for spec in corpus.functions}
    mismatches = {}
    for outcome in outcomes:
        want = expected.pop(outcome.function, None)
        if outcome.category != want:
            detail = outcome.detail.splitlines()[0] if outcome.detail else ""
            mismatches[outcome.function] = (
                f"got {outcome.category}, expected {want}"
                + (f" ({detail})" if detail else "")
            )
    for name in expected:
        mismatches[name] = "no verdict"
    rows_problem = None
    if workload != "solver_bound" and not tiny:
        from repro.tv.batch import BatchResult

        batch = BatchResult(outcomes=list(outcomes))
        rows = tuple(value for _, value in batch.figure6_rows())
        unsupported = batch.count("unsupported")
        if rows != FIG6_ROWS or unsupported != FIG6_UNSUPPORTED:
            rows_problem = (
                f"Figure 6 rows {rows} + {unsupported} unsupported,"
                f" expected {FIG6_ROWS} + {FIG6_UNSUPPORTED}"
            )
    return {"mismatches": mismatches, "rows": rows_problem}
