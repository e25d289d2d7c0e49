"""Command-line driver (the paper artifact's ``run-tests.py`` analogue).

Usage::

    python -m repro single FILE.ll [--function NAME] [options]
    python -m repro show FILE.ll [--function NAME] [options]
    python -m repro campaign run [--scale N] [--seed N] [--dir DIR]
    python -m repro campaign resume DIR
    python -m repro campaign status DIR
    python -m repro service coordinate --dir DIR [--port N] [options]
    python -m repro service worker --connect HOST:PORT [--jobs N]
    python -m repro service status HOST:PORT
    python -m repro fuzz [--seed N] [--iterations N]

``single`` validates one function end to end; ``show`` prints the ISel
output and the generated synchronization points; ``campaign run`` reruns
the Figure 6/7 evaluation on the synthetic corpus (with ``--dir`` it
becomes a durable, sharded, resumable campaign — see
:mod:`repro.campaign`); ``campaign resume`` continues a crashed or halted
campaign and ``campaign status`` inspects one; ``service`` runs the same
campaign distributed — a coordinator serving work units over TCP to any
number of worker clients (see :mod:`repro.service`); ``fuzz`` runs the
differential testing campaign against the SMT stack.
"""

from __future__ import annotations

import argparse
import sys

from repro.isel import BugMode, IselOptions
from repro.keq import KeqOptions
from repro.keq.proof import ProofChecker
from repro.llvm import parse_module
from repro.targets import DEFAULT_TARGET, TARGET_NAMES, get_target
from repro.tv import TvOptions, validate_function
from repro.tv.batch import run_corpus
from repro.vcgen import generate_sync_points
from repro.workloads import gcc_like_corpus


def _isel_options(args) -> IselOptions:
    bug = None
    if args.bug == "waw":
        bug = BugMode.WAW_STORE_MERGE
    elif args.bug == "narrow":
        bug = BugMode.LOAD_NARROWING
    return IselOptions(
        merge_stores=args.merge_stores,
        narrow_loads=args.narrow_loads,
        mul_decompose=args.mul_decompose,
        bug=bug,
    )


def _tv_options(args) -> TvOptions:
    return TvOptions(
        isel=_isel_options(args),
        keq=KeqOptions(
            max_steps=args.max_steps,
            incremental_solving=not args.no_incremental,
        ),
        imprecise_liveness=args.imprecise_liveness,
        target=args.target,
    )


def _pick_function(module, name):
    if name:
        return module.function(name)
    if len(module.functions) != 1:
        raise SystemExit(
            "module has several functions; pick one with --function "
            f"(available: {', '.join(module.functions)})"
        )
    return next(iter(module.functions.values()))


def cmd_single(args) -> int:
    module = parse_module(open(args.file).read())
    function = _pick_function(module, args.function)
    options = _tv_options(args)
    options.keq.record_proof = args.proof
    outcome = validate_function(module, function.name, options)
    print(outcome)
    report = outcome.report
    if report is not None:
        print(report.summary())
        if report.proof is not None:
            print()
            print(report.proof.render())
            checked = ProofChecker().check(report.proof)
            print(f"proof re-check: ok={checked.ok}"
                  f" ({checked.obligations_checked} obligations)")
    return 0 if outcome.ok else 1


def cmd_show(args) -> int:
    module = parse_module(open(args.file).read())
    function = _pick_function(module, args.function)
    target = get_target(args.target)
    machine, hints = target.select_function(
        module, function, _isel_options(args)
    )
    print(function)
    print()
    print(machine)
    print()
    points = generate_sync_points(
        module, function, machine, hints,
        imprecise_liveness=args.imprecise_liveness,
        target=target.name,
    )
    for point in points:
        print(point.describe())
    return 0


#: process exit code when a campaign halts on a worker death (distinct
#: from argparse's 2 so CI can tell "halted, resume me" from misuse).
EXIT_CAMPAIGN_INTERRUPTED = 3


def _campaign_injection(args) -> object | None:
    """Arm the SIGKILL-injection hook from CLI flags (crash-recovery CI)."""
    import os

    from repro.campaign import hooks

    if not (args.inject_kill_once or args.inject_kill_always):
        return None
    if args.inject_kill_once:
        os.environ[hooks.KILL_ONCE_ENV] = args.inject_kill_once
    if args.inject_kill_always:
        os.environ[hooks.KILL_ALWAYS_ENV] = args.inject_kill_always
    os.environ[hooks.KILL_DIR_ENV] = args.dir
    return hooks.sigkill_injector


def cmd_campaign_run(args) -> int:
    jobs = args.jobs if args.jobs is not None else 1
    if args.dir is None:
        if args.inject_kill_once or args.inject_kill_always:
            raise SystemExit("--inject-kill-* requires --dir (a campaign)")
        if args.shards is not None:
            raise SystemExit("--shards requires --dir (a campaign)")
        if args.halt_on_worker_death:
            raise SystemExit("--halt-on-worker-death requires --dir (a campaign)")
        corpus = gcc_like_corpus(scale=args.scale, seed=args.seed)
        print(
            f"validating {len(corpus.functions)} functions"
            f" (jobs={jobs}"
            + (f", cache-dir={args.cache_dir}" if args.cache_dir else "")
            + ")..."
        )
        options = TvOptions.for_campaign(wall_budget_seconds=args.wall_budget)
        options.keq.incremental_solving = not args.no_incremental
        options.target = args.target
        result = run_corpus(
            corpus,
            options,
            jobs=jobs,
            cache_dir=args.cache_dir,
            dedup=not args.no_dedup,
        )
        print(result.summary())
        return 0
    from repro.campaign import (
        CampaignConfig,
        CampaignError,
        CampaignInterrupted,
        run_campaign,
    )

    shards = args.shards if args.shards is not None else 2
    config = CampaignConfig(
        scale=args.scale,
        seed=args.seed,
        wall_budget=args.wall_budget,
        shards=shards,
        jobs=jobs,
        cache_dir=args.cache_dir,
        dedup=not args.no_dedup,
        halt_on_worker_death=args.halt_on_worker_death,
        validate=_campaign_injection(args),
        incremental=not args.no_incremental,
        target=args.target,
    )
    print(
        f"campaign: {args.dir} (shards={shards}, jobs={jobs},"
        f" target={args.target})"
    )
    try:
        report = run_campaign(args.dir, config)
    except CampaignInterrupted as halt:
        print(f"campaign halted: {halt}")
        return EXIT_CAMPAIGN_INTERRUPTED
    except CampaignError as error:
        raise SystemExit(str(error)) from error
    print(report.summary())
    return 0


def cmd_campaign_resume(args) -> int:
    from repro.campaign import CampaignError, CampaignInterrupted, resume_campaign

    try:
        report = resume_campaign(args.dir, target=args.target)
    except CampaignInterrupted as halt:
        print(f"campaign halted: {halt}")
        return EXIT_CAMPAIGN_INTERRUPTED
    except CampaignError as error:
        raise SystemExit(str(error)) from error
    print(report.summary())
    return 0


def cmd_campaign_status(args) -> int:
    from repro.campaign import CampaignError, campaign_status

    try:
        status = campaign_status(args.dir)
    except CampaignError as error:
        raise SystemExit(str(error)) from error
    print(status.render())
    return 0


def cmd_service_coordinate(args) -> int:
    from repro.campaign import CampaignConfig, CampaignError
    from repro.service import ServiceConfig, serve_campaign

    config = CampaignConfig(
        scale=args.scale,
        seed=args.seed,
        wall_budget=args.wall_budget,
        shards=args.shards,
        jobs=args.jobs if args.jobs is not None else 1,
        cache_dir=args.cache_dir,
        dedup=not args.no_dedup,
        target=args.target,
    )
    service = ServiceConfig(
        host=args.host,
        port=args.port,
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
    )

    def on_bound(address) -> None:
        # Machine-greppable: scripts parse this line to learn an
        # OS-assigned port (--port 0).
        print(f"coordinator listening on {address[0]}:{address[1]}", flush=True)

    print(f"service campaign: {args.dir} (shards={args.shards})", flush=True)
    try:
        report = serve_campaign(args.dir, config, service, on_bound=on_bound)
    except CampaignError as error:
        raise SystemExit(str(error)) from error
    except KeyboardInterrupt:
        print(
            "coordinator interrupted; the journal is consistent —"
            " rerun `repro service coordinate` or `repro campaign resume`"
            " on the same directory to finish",
            flush=True,
        )
        return EXIT_CAMPAIGN_INTERRUPTED
    print(report.summary())
    return 0


def cmd_service_worker(args) -> int:
    import os
    import signal

    from repro.service import ServiceWorker, WorkerConfig

    validate = None
    if args.inject_kill_worker_once:
        from repro.campaign import hooks

        if not args.kill_marker_dir:
            raise SystemExit(
                "--inject-kill-worker-once requires --kill-marker-dir"
            )
        os.environ[hooks.KILL_WORKER_ENV] = args.inject_kill_worker_once
        os.environ[hooks.KILL_DIR_ENV] = args.kill_marker_dir
        validate = hooks.sigkill_injector
    worker = ServiceWorker(
        WorkerConfig(
            connect=args.connect,
            worker_id=args.worker_id,
            jobs=args.jobs,
            validate=validate,
            cache_dir=args.cache_dir,
            recv_timeout=args.recv_timeout or None,
            recv_retries=args.recv_retries,
        )
    )
    signal.signal(signal.SIGTERM, lambda signum, frame: worker.request_drain())
    try:
        summary = worker.run()
    except ConnectionError as error:
        raise SystemExit(str(error)) from error
    print(
        f"worker {summary.worker_id}: leased={summary.leased}"
        f" completed={summary.completed} timeouts={summary.timeouts}"
        f" deaths-reported={summary.deaths_reported}"
        f" duplicates={summary.duplicates}"
        f" drained-clean={summary.drained_clean}"
    )
    return 0 if summary.drained_clean else 1


def cmd_service_status(args) -> int:
    from repro.service import query_status

    try:
        reply = query_status(args.address)
    except (ConnectionError, OSError) as error:
        raise SystemExit(f"coordinator unreachable: {error}") from error
    print(reply.get("render", ""))
    return 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import GenConfig, run_fuzz

    config = GenConfig(max_depth=args.max_depth, allow_select=not args.no_select)
    report = run_fuzz(
        args.seed,
        args.iterations,
        config=config,
        shrink_failures=not args.no_shrink,
        max_violations=args.max_violations,
    )
    print(report.summary())
    for violation in report.violations:
        print()
        print(violation.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_target(p):
        p.add_argument(
            "--target",
            choices=list(TARGET_NAMES),
            default=DEFAULT_TARGET,
            help=f"target ISA to validate against (default: {DEFAULT_TARGET})",
        )

    def add_selection(p):
        """The flags ``show`` reads: which function, ISel and liveness."""
        p.add_argument("--function", help="function name (default: the only one)")
        _add_target(p)
        p.add_argument("--merge-stores", action="store_true")
        p.add_argument("--narrow-loads", action="store_true")
        p.add_argument("--bug", choices=["waw", "narrow"])
        p.add_argument("--imprecise-liveness", action="store_true")
        p.add_argument(
            "--mul-decompose",
            action="store_true",
            help="ISel: lower small multiply-by-constant to shift/add",
        )

    single = sub.add_parser("single", help="validate one function")
    single.add_argument("file")
    add_selection(single)
    single.add_argument("--max-steps", type=int, default=4000)
    single.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable assumption-based incremental solving",
    )
    single.add_argument(
        "--proof",
        action="store_true",
        help="record and re-check a machine-checkable equivalence proof",
    )
    single.set_defaults(run=cmd_single)

    show = sub.add_parser("show", help="print ISel output and sync points")
    show.add_argument("file")
    add_selection(show)
    show.set_defaults(run=cmd_show)

    campaign = sub.add_parser(
        "campaign", help="run, resume, or inspect a validation campaign"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    run = campaign_sub.add_parser(
        "run", help="rerun the Figure 6/7 evaluation (durable with --dir)"
    )
    _add_target(run)
    run.add_argument("--scale", type=int, default=120)
    run.add_argument("--seed", type=int, default=2021)
    run.add_argument(
        "--wall-budget",
        type=float,
        default=30.0,
        help="per-function wall-clock limit in seconds (paper: 3 hours)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="validate functions across N worker processes (default: 1)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="persistent solver query cache shared across runs and workers",
    )
    run.add_argument(
        "--dir",
        default=None,
        help="campaign directory: journal outcomes there and make the run"
        " sharded, checkpointed, and resumable",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of shards for a --dir campaign (default: 2)",
    )
    run.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable identical-body outcome deduplication",
    )
    run.add_argument(
        "--no-incremental",
        action="store_true",
        help="disable assumption-based incremental solving",
    )
    run.add_argument(
        "--halt-on-worker-death",
        action="store_true",
        help="stop the supervisor at the first worker death instead of"
        " retrying (simulates a mid-campaign crash; resume to continue;"
        " requires --dir)",
    )
    run.add_argument(
        "--inject-kill-once",
        metavar="REGEX",
        default=None,
        help="fault injection: SIGKILL the worker the first time it"
        " validates a matching function (requires --dir)",
    )
    run.add_argument(
        "--inject-kill-always",
        metavar="REGEX",
        default=None,
        help="fault injection: SIGKILL the worker on every attempt of a"
        " matching function — a poison pill (requires --dir)",
    )
    run.set_defaults(run=cmd_campaign_run)

    resume = campaign_sub.add_parser(
        "resume", help="resume a crashed or halted campaign directory"
    )
    resume.add_argument("dir")
    resume.add_argument(
        "--target",
        choices=list(TARGET_NAMES),
        default=None,
        help="assert the campaign's target ISA; a mismatch with the"
        " manifest refuses to resume (default: accept the manifest's)",
    )
    resume.set_defaults(run=cmd_campaign_resume)

    status = campaign_sub.add_parser(
        "status", help="inspect a campaign directory without running"
    )
    status.add_argument("dir")
    status.set_defaults(run=cmd_campaign_status)

    service = sub.add_parser(
        "service", help="distributed campaign: coordinator + worker clients"
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    coordinate = service_sub.add_parser(
        "coordinate",
        help="serve a campaign's work units over TCP (auto-resumes a"
        " directory that already holds a manifest)",
    )
    coordinate.add_argument("--dir", required=True, help="campaign directory")
    _add_target(coordinate)
    coordinate.add_argument("--scale", type=int, default=120)
    coordinate.add_argument("--seed", type=int, default=2021)
    coordinate.add_argument("--wall-budget", type=float, default=30.0)
    coordinate.add_argument("--shards", type=int, default=2)
    coordinate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="recorded in the manifest for single-host resume (default: 1)",
    )
    coordinate.add_argument("--cache-dir", default=None)
    coordinate.add_argument("--no-dedup", action="store_true")
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 = OS-assigned; printed on startup)",
    )
    coordinate.add_argument(
        "--lease-seconds",
        type=float,
        default=60.0,
        help="work-unit lease duration; a worker silent this long has its"
        " units re-queued (must exceed the hard validation budget)",
    )
    coordinate.add_argument("--heartbeat-seconds", type=float, default=5.0)
    coordinate.set_defaults(run=cmd_service_coordinate)

    worker = service_sub.add_parser(
        "worker", help="lease and validate work units from a coordinator"
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address",
    )
    worker.add_argument(
        "--jobs", type=int, default=1,
        help="local validation subprocesses (default: 1)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable identity for journal tags (default: hostname-pid)",
    )
    worker.add_argument(
        "--cache-dir", default=None,
        help="override the coordinator-advertised query cache directory"
        " (for hosts without the shared filesystem; '' disables)",
    )
    worker.add_argument(
        "--recv-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for any coordinator reply before treating"
        " the connection as silently dead (default: 60; 0 = wait forever)",
    )
    worker.add_argument(
        "--recv-retries",
        type=int,
        default=2,
        help="reconnect-and-resend attempts after a silent timeout before"
        " reporting the coordinator lost and exiting nonzero (default: 2)",
    )
    worker.add_argument(
        "--inject-kill-worker-once",
        metavar="REGEX",
        default=None,
        help="fault injection: SIGKILL this whole worker client the first"
        " time it validates a matching function (simulates losing a"
        " machine mid-lease; requires --kill-marker-dir)",
    )
    worker.add_argument(
        "--kill-marker-dir",
        default=None,
        help="directory for the one-shot kill marker files",
    )
    worker.set_defaults(run=cmd_service_worker)

    service_status = service_sub.add_parser(
        "status", help="query a live coordinator for campaign progress"
    )
    service_status.add_argument("address", metavar="HOST:PORT")
    service_status.set_defaults(run=cmd_service_status)

    fuzz = sub.add_parser(
        "fuzz", help="differential-fuzz the SMT stack (generator + oracles)"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iterations", type=int, default=500)
    fuzz.add_argument(
        "--max-depth", type=int, default=5, help="maximum generated term depth"
    )
    fuzz.add_argument(
        "--no-select",
        action="store_true",
        help="disable uninterpreted select atoms in generated terms",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw counterexamples without delta-debugging them",
    )
    fuzz.add_argument(
        "--max-violations",
        type=int,
        default=3,
        help="stop the campaign after this many oracle violations",
    )
    fuzz.set_defaults(run=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
