"""The campaign supervisor: shards × worker pool × journal.

``run_campaign`` turns a corpus into a durable campaign directory; crashes
(of workers *or* of the supervisor itself) lose at most the functions that
were in flight, and ``resume_campaign`` re-queues exactly those and drives
the rest to completion.  ``campaign_status`` inspects a directory without
running anything.

Which job runs next, the re-queue with backoff after a worker death and
the poison-pill quarantine are the failure handling policy of
:mod:`repro.campaign.schedule`, which the service coordinator shares.
The supervisor adds one mode of its own: with ``halt_on_worker_death`` it
stops at the first death — the mode CI uses to simulate a mid-campaign
crash and assert that ``resume`` recovers cleanly.

Workers run in the :class:`repro.tv.parallel.WorkerPool` (each task
carries its function as text, hard deadline per function, per-worker
query cache); the persistent ``cache_dir`` is the layer shards share.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from repro.campaign.journal import (
    JOURNAL_VERSION,
    Journal,
    JournalState,
    load_manifest,
    load_state,
    manifest_path,
    outcome_to_json,
    write_manifest,
)
from repro.campaign.merge import (
    CampaignReport,
    CampaignStatus,
    build_status,
    merge_campaign,
)
from repro.campaign.schedule import Scheduler, recover_orphans
from repro.campaign.shard import ShardItem, plan_shards
from repro.targets import DEFAULT_TARGET
from repro.tv.batch import corpus_overrides
from repro.tv.dedup import plan_dedup
from repro.tv.driver import TvOptions
from repro.tv.parallel import Worker, WorkerPool, hard_budget, task_text
from repro.workloads import gcc_like_corpus


class CampaignError(RuntimeError):
    """Misuse of a campaign directory (missing/duplicate manifest, ...)."""


class CampaignInterrupted(RuntimeError):
    """The supervisor stopped before completion (``halt_on_worker_death``).

    The journal is consistent: completed functions have ``done`` events,
    the interrupted ones are in flight and will be re-queued by resume.
    """


@dataclass
class CampaignConfig:
    """Knobs of one campaign; persisted to the manifest."""

    scale: int = 120
    seed: int = 2021
    #: per-function wall-clock budget (None = step budgets only).
    wall_budget: float | None = 30.0
    shards: int = 2
    jobs: int = 2
    #: shared persistent query cache; None = ``<directory>/cache``.
    cache_dir: str | None = None
    dedup: bool = True
    #: worker deaths per function before quarantine (poison-pill rule).
    max_kills: int = 2
    #: base of the exponential re-queue backoff after a worker death.
    backoff_seconds: float = 0.5
    halt_on_worker_death: bool = False
    #: replacement validation callable (importable module-level function,
    #: e.g. the SIGKILL injector in :mod:`repro.campaign.hooks`).
    validate: object | None = None
    #: assumption-based incremental solving (see repro.smt.SolverSession).
    incremental: bool = True
    #: target ISA every function of the campaign validates against.
    target: str = DEFAULT_TARGET


def _base_options(
    wall_budget: float | None,
    incremental: bool = True,
    target: str = DEFAULT_TARGET,
) -> TvOptions:
    if wall_budget is None:
        options = TvOptions()
    else:
        options = TvOptions.for_campaign(wall_budget_seconds=wall_budget)
    options.keq = dataclasses.replace(
        options.keq, incremental_solving=incremental
    )
    options.target = target
    return options


def check_solver_settings(manifest: dict) -> None:
    """Refuse a manifest whose solver settings are gone.

    Older manifests store a session scope and a portfolio setting: a width
    (1 meant off), later a flag.  Only the ``"function"`` scope and a
    portfolio that was off still search as they did, so a resumed run could
    not match the uninterrupted one under any other value.
    """
    scope = manifest.get("session_scope", "function")
    if scope != "function":
        raise CampaignError(
            f"manifest field 'session_scope' is {scope!r}; only 'function'"
            " sessions remain, so this campaign cannot be resumed"
        )
    portfolio = manifest.get("portfolio", False)
    # Missing, ``false`` and the width ``1`` meant off.  ``True == 1`` in
    # Python, so the type tells the flag from the width.
    off = portfolio is False or (portfolio == 1 and not isinstance(portfolio, bool))
    if not off:
        raise CampaignError(
            f"manifest field 'portfolio' is {portfolio!r}; the portfolio"
            " escalation is gone, so this campaign cannot be resumed"
        )


def _validate_ref(validate) -> str | None:
    if validate is None:
        return None
    return f"{validate.__module__}:{validate.__qualname__}"


def _resolve_validate(reference: str | None):
    if not reference:
        return None
    module_name, _, qualname = reference.partition(":")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _task_texts(module) -> dict[str, str]:
    return {name: task_text(module, name) for name in module.functions}


@dataclass
class PreparedCampaign:
    """Everything a driver — the in-process pool or the network
    coordinator (:mod:`repro.service`) — needs to run a campaign: the
    published manifest, each function's spawn-safe text, resolved
    options, and the journal state the run starts from (empty for a fresh
    campaign), from which its :class:`~repro.campaign.schedule.Scheduler`
    takes the pending jobs and kill counts."""

    directory: str
    manifest: dict
    #: function name → :func:`~repro.tv.parallel.task_text`, the text its
    #: task carries to a worker.
    texts: dict[str, str]
    base: TvOptions
    overrides: dict[str, TvOptions]
    state: JournalState
    validate: object | None

    @property
    def cache_dir(self) -> str:
        return self.manifest["cache_dir"]


def prepare_campaign(
    directory: str,
    config: CampaignConfig | None = None,
    corpus=None,
) -> PreparedCampaign:
    """Plan a fresh campaign: build (or take) the corpus, run dedup and
    sharding, publish the manifest, and return the full job list."""
    config = config or CampaignConfig()
    if os.path.exists(manifest_path(directory)):
        raise CampaignError(
            f"{directory!r} already holds a campaign; use resume"
        )
    corpus_desc: dict = {"kind": "custom"}
    if corpus is None:
        corpus = gcc_like_corpus(scale=config.scale, seed=config.seed)
        corpus_desc = {
            "kind": "gcc_like",
            "scale": config.scale,
            "seed": config.seed,
        }
    module = corpus.build_module()
    base = _base_options(config.wall_budget, config.incremental, config.target)
    overrides = corpus_overrides(corpus, base)
    names = list(module.functions)
    run_names, replay, classes = names, {}, 0
    if config.dedup:
        plan = plan_dedup(module, names, base, overrides)
        run_names, replay, classes = plan.run_names, plan.replay, plan.classes
    run_set = set(run_names)
    sizes = {
        name: sum(1 for _ in module.function(name).instructions())
        for name in names
    }
    items = [
        ShardItem(
            name=name,
            weight=sizes[name] if name in run_set else 0,
            group=replay.get(name, name),
        )
        for name in names
    ]
    shard_plan = plan_shards(items, config.shards)
    cache_dir = config.cache_dir or os.path.join(directory, "cache")
    manifest = {
        "version": JOURNAL_VERSION,
        "corpus": corpus_desc,
        "wall_budget": config.wall_budget,
        "shards": shard_plan.n_shards,
        "jobs": config.jobs,
        "cache_dir": cache_dir,
        "dedup": config.dedup,
        "max_kills": config.max_kills,
        "backoff_seconds": config.backoff_seconds,
        "halt_on_worker_death": config.halt_on_worker_death,
        "validate": _validate_ref(config.validate),
        "incremental": config.incremental,
        "target": config.target,
        "functions": names,
        "run_names": run_names,
        "replay": replay,
        "dedup_classes": classes,
        "shard_lists": shard_plan.shards,
    }
    write_manifest(directory, manifest)
    return PreparedCampaign(
        directory=directory,
        manifest=manifest,
        texts=_task_texts(module),
        base=base,
        overrides=overrides,
        state=JournalState(),
        validate=config.validate,
    )


def prepare_resume(
    directory: str,
    corpus=None,
    validate=None,
    target: str | None = None,
) -> tuple[PreparedCampaign, list[dict]]:
    """Plan the continuation of a crashed or halted campaign.

    Returns the prepared plan (its journal state continues attempt
    counters and kill counts) plus the *recovery events* of
    :func:`~repro.campaign.schedule.recover_orphans` — one ``requeue`` or
    ``quarantine`` per orphaned in-flight function — which the caller must
    append to the journal before driving the jobs, so the re-queue happens
    exactly once even if the resuming process itself crashes.
    """
    try:
        manifest = load_manifest(directory)
    except OSError as error:
        raise CampaignError(f"no campaign manifest in {directory!r}") from error
    campaign_target = manifest.get("target", DEFAULT_TARGET)
    if target is not None and target != campaign_target:
        # Outcomes of the two targets are not interchangeable; resuming a
        # vx86 campaign under --target vriscv would merge verdicts proved
        # against a different semantics.
        raise CampaignError(
            f"campaign in {directory!r} targets {campaign_target!r};"
            f" refusing to resume with target {target!r}"
        )
    check_solver_settings(manifest)
    if corpus is None:
        desc = manifest["corpus"]
        if desc.get("kind") != "gcc_like":
            raise CampaignError(
                "campaign was started from a custom corpus; pass it to resume"
            )
        corpus = gcc_like_corpus(scale=desc["scale"], seed=desc["seed"])
    if validate is None:
        validate = _resolve_validate(manifest.get("validate"))
    module = corpus.build_module()
    base = _base_options(
        manifest["wall_budget"],
        manifest.get("incremental", True),
        campaign_target,
    )
    overrides = corpus_overrides(corpus, base)
    state = load_state(directory)
    recovery = recover_orphans(manifest, state)
    prepared = PreparedCampaign(
        directory=directory,
        manifest=manifest,
        texts=_task_texts(module),
        base=base,
        overrides=overrides,
        state=state,
        validate=validate,
    )
    return prepared, recovery


def run_campaign(
    directory: str,
    config: CampaignConfig | None = None,
    corpus=None,
) -> CampaignReport:
    """Start a fresh campaign in ``directory`` and drive it to completion.

    ``corpus`` defaults to :func:`gcc_like_corpus` at the config's
    scale/seed (the resumable case); a custom corpus is accepted but must
    be passed to ``resume_campaign`` again after a crash.
    """
    config = config or CampaignConfig()
    prepared = prepare_campaign(directory, config, corpus)
    with Journal(directory) as journal:
        _drive(Scheduler(prepared, journal), prepared)
    return merge_campaign(prepared.manifest, load_state(directory))


def resume_campaign(
    directory: str,
    corpus=None,
    validate=None,
    target: str | None = None,
) -> CampaignReport:
    """Resume a crashed or halted campaign: skip completed work, re-queue
    in-flight functions exactly once, finish, and merge.

    ``target`` (when given) must match the manifest's recorded target —
    a mismatch raises :class:`CampaignError` instead of silently mixing
    per-target verdicts."""
    prepared, recovery = prepare_resume(directory, corpus, validate, target)
    with Journal(directory) as journal:
        for event in recovery:
            journal.append(event)
        _drive(Scheduler(prepared, journal), prepared)
    return merge_campaign(prepared.manifest, load_state(directory))


def campaign_status(directory: str) -> CampaignStatus:
    """Inspect a campaign directory without running anything."""
    try:
        manifest = load_manifest(directory)
    except OSError as error:
        raise CampaignError(f"no campaign manifest in {directory!r}") from error
    return build_status(manifest, load_state(directory))


def _drive(scheduler: Scheduler, prepared: PreparedCampaign) -> None:
    """Run the scheduler's jobs on a worker pool until none is unresolved.

    The :class:`~repro.tv.parallel.WorkerPool` owns the worker lifecycle
    (spawn, hard deadline kill, death detection, cleanup) and the
    :class:`~repro.campaign.schedule.Scheduler` every policy and journal
    write; this loop moves jobs between the two and, under
    ``halt_on_worker_death``, stops at the first death.
    """
    if scheduler.finished:
        return
    base, overrides = prepared.base, prepared.overrides
    # ``Worker`` and ``mp_connection`` are looked up on every call: the
    # benchmark's tracer (perfbench/spans.py) rebinds both names in this
    # module to time worker spawns and waits.
    pool = WorkerPool(
        lambda: Worker(base, overrides, prepared.cache_dir, prepared.validate),
        prepared.manifest["jobs"],
        clamp=prepared.validate is None,
        tasks=len(scheduler.unresolved),
    )
    with pool:
        while not scheduler.finished:
            now = time.monotonic()
            while pool.free:
                job = scheduler.next_ready(now)
                if job is None:
                    break
                pool.assign(
                    job,
                    prepared.texts[job.name],
                    hard_budget(overrides.get(job.name, base)),
                )
                scheduler.journal_event("start", job.name, job.attempt)
            for event in pool.poll(wait=mp_connection.wait):
                job, outcome = event.task, event.outcome
                if event.kind != "died":
                    scheduler.done(
                        job.name, job.attempt, outcome_to_json(outcome)
                    )
                elif prepared.manifest["halt_on_worker_death"]:
                    # The halt names the function so load_state charges
                    # the death to it (the poison-pill counter survives
                    # the restart).
                    scheduler.journal_event(
                        "halt", job.name, job.attempt, reason=outcome.detail
                    )
                    raise CampaignInterrupted(
                        f"halted on worker death while validating"
                        f" {job.name!r} ({outcome.detail}); resume to continue"
                    )
                else:
                    scheduler.died(job.name, job.attempt, outcome.detail)
