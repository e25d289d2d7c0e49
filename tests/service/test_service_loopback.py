"""Distributed campaigns end to end over loopback TCP.

The acceptance bar for the service: a campaign with two workers where one
is SIGKILLed mid-lease (whole client, not just a validation subprocess)
still completes with every function validated exactly once and renders a
report byte-identical to a single-host run — and a halted single-host
directory can be *finished* by the service, because both drivers share
the manifest, journal, and merger.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    load_state,
    read_events,
    run_campaign,
)
from repro.campaign.hooks import (
    KILL_ALWAYS_ENV,
    KILL_DIR_ENV,
    KILL_ONCE_ENV,
    sigkill_injector,
)
from repro.service import (
    ServiceConfig,
    ServiceWorker,
    WorkerConfig,
    serve_campaign,
)
from repro.tv.parallel import Worker

REPO_ROOT = Path(__file__).resolve().parents[2]
VICTIM = "fn_succeeded_0000"


def config(**overrides):
    settings = dict(
        scale=8,
        seed=7,
        shards=2,
        jobs=2,
        wall_budget=30.0,
        backoff_seconds=0.05,
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


class CoordinatorThread:
    """serve_campaign on a thread; exposes the bound address."""

    def __init__(self, directory, campaign_config, service_config):
        self.address = None
        self.report = None
        self.error = None
        self._ready = threading.Event()

        def on_bound(bound):
            self.address = f"{bound[0]}:{bound[1]}"
            self._ready.set()

        def run():
            try:
                self.report = serve_campaign(
                    directory, campaign_config, service_config, on_bound=on_bound
                )
            except BaseException as error:  # surfaced in join()
                self.error = error
                self._ready.set()

        self.thread = threading.Thread(target=run, daemon=True)

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(30), "coordinator never bound"
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc_info):
        self.thread.join(timeout=120)
        assert not self.thread.is_alive(), "coordinator failed to finish"
        if self.error is not None and exc_info[0] is None:
            raise self.error

    def join(self):
        self.__exit__(None, None, None)
        return self.report


def run_workers(address, count):
    summaries = []

    def work(index):
        worker = ServiceWorker(
            WorkerConfig(connect=address, worker_id=f"w{index}", jobs=1)
        )
        summaries.append(worker.run())

    threads = [
        threading.Thread(target=work, args=(i,), daemon=True)
        for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=240)
    assert all(not t.is_alive() for t in threads)
    return summaries


def worker_argv(address, worker_id, extra=()):
    return [
        sys.executable,
        "-m",
        "repro",
        "service",
        "worker",
        "--connect",
        address,
        "--worker-id",
        worker_id,
        *extra,
    ]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def dones_by_function(directory):
    counts = {}
    for event in read_events(directory):
        if event["event"] == "done":
            counts[event["fn"]] = counts.get(event["fn"], 0) + 1
    return counts


class TestLoopbackService:
    def test_two_workers_match_single_host_baseline(self, tmp_path):
        baseline = run_campaign(str(tmp_path / "base"), config())

        with CoordinatorThread(
            str(tmp_path / "svc"),
            config(),
            ServiceConfig(lease_seconds=60.0, heartbeat_seconds=1.0),
        ) as coordinator:
            summaries = run_workers(coordinator.address, 2)
        report = coordinator.join()

        assert report.complete
        assert all(s.drained_clean for s in summaries)
        # Both workers participated and nothing ran twice.
        dones = dones_by_function(str(tmp_path / "svc"))
        assert sum(s.completed for s in summaries) == len(dones)
        assert all(n == 1 for n in dones.values())
        assert report.summary(include_timing=False) == baseline.summary(
            include_timing=False
        )
        assert report.function_table() == baseline.function_table()

    def test_sigkilled_worker_mid_lease_recovers(self, tmp_path):
        """One worker is armed to SIGKILL its whole process the first time
        it validates the victim — no goodbye, no heartbeat, a dead
        machine.  The lease expires, the unit is re-queued exactly once,
        and a second worker drains the campaign to the byte-identical
        report."""
        baseline = run_campaign(str(tmp_path / "base"), config())
        svc_dir = str(tmp_path / "svc")
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()

        with CoordinatorThread(
            svc_dir,
            config(),
            ServiceConfig(lease_seconds=2.0, heartbeat_seconds=0.5),
        ) as coordinator:
            # The armed worker runs alone first so it (and nobody else)
            # leases the victim; its SIGKILL leaves the lease dangling.
            armed = subprocess.run(
                worker_argv(
                    coordinator.address,
                    "w-armed",
                    [
                        "--inject-kill-worker-once",
                        VICTIM,
                        "--kill-marker-dir",
                        str(marker_dir),
                    ],
                ),
                env=worker_env(),
                cwd=str(REPO_ROOT),
                capture_output=True,
                timeout=240,
            )
            assert armed.returncode == -9, armed.stderr.decode()

            clean = subprocess.run(
                worker_argv(coordinator.address, "w-clean"),
                env=worker_env(),
                cwd=str(REPO_ROOT),
                capture_output=True,
                timeout=240,
            )
            assert clean.returncode == 0, clean.stderr.decode()
        report = coordinator.join()

        assert report.complete
        assert report.quarantined == {}
        requeues = [
            e for e in read_events(svc_dir) if e["event"] == "requeue"
        ]
        assert len(requeues) == 1
        assert requeues[0]["fn"] == VICTIM
        assert "lease expired" in requeues[0]["reason"]
        assert requeues[0]["worker"] == "w-armed"
        # Every function validated exactly once despite the lost machine.
        assert all(n == 1 for n in dones_by_function(svc_dir).values())
        state = load_state(svc_dir)
        assert state.retries == 1
        assert state.worker_deaths == 0  # unobserved death: no kill charged
        assert report.summary(include_timing=False) == baseline.summary(
            include_timing=False
        )
        assert report.function_table() == baseline.function_table()

    def test_serve_campaign_resumes_halted_directory(
        self, tmp_path, monkeypatch
    ):
        """A single-host campaign halted mid-flight is finished by the
        service (auto-resume): the same directory, journal, and report."""
        baseline = run_campaign(str(tmp_path / "base"), config())

        crash_dir = str(tmp_path / "crash")
        monkeypatch.setenv(KILL_ONCE_ENV, VICTIM)
        monkeypatch.setenv(KILL_DIR_ENV, crash_dir)
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                crash_dir,
                config(halt_on_worker_death=True, validate=sigkill_injector),
            )
        orphans = load_state(crash_dir).orphans()
        assert VICTIM in orphans

        with CoordinatorThread(
            crash_dir, config(), ServiceConfig(heartbeat_seconds=1.0)
        ) as coordinator:
            summaries = run_workers(coordinator.address, 1)
        report = coordinator.join()

        assert report.complete
        assert report.quarantined == {}
        assert summaries[0].drained_clean
        # The halt's orphans were re-queued exactly once (by the resume
        # recovery events, not by lease machinery).
        for orphan in orphans:
            requeues = [
                e
                for e in read_events(crash_dir)
                if e["event"] == "requeue" and e["fn"] == orphan
            ]
            assert len(requeues) == 1
        assert report.summary(include_timing=False) == baseline.summary(
            include_timing=False
        )
        assert report.function_table() == baseline.function_table()


class TestDriverParity:
    def test_poison_pill_runs_alike_under_both_drivers(
        self, tmp_path, monkeypatch
    ):
        """The supervisor and the service schedule through one policy, so
        the same poison pill leaves the victim the same journal history
        (backoff, kill count, quarantine) and the same report."""
        monkeypatch.setenv(KILL_ALWAYS_ENV, VICTIM)
        pill = CampaignConfig(
            scale=8, seed=7, shards=2, jobs=1, validate=sigkill_injector
        )
        local_dir, svc_dir = str(tmp_path / "local"), str(tmp_path / "svc")
        local = run_campaign(local_dir, pill)
        with CoordinatorThread(
            svc_dir, pill, ServiceConfig(heartbeat_seconds=1.0)
        ) as coordinator:
            ServiceWorker(
                WorkerConfig(
                    connect=coordinator.address,
                    worker_id="w0",
                    jobs=1,
                    validate=sigkill_injector,
                )
            ).run()
        served = coordinator.join()

        def history(directory):
            return [
                (
                    e["event"],
                    e["attempt"],
                    e.get("reason"),
                    e.get("delay"),
                    e.get("death"),
                )
                for e in read_events(directory)
                if e.get("fn") == VICTIM
            ]

        died = "worker process died (exitcode=-9)"
        expected = [
            ("start", 1, None, None, None),
            ("requeue", 1, died, 0.5, True),
            ("start", 2, None, None, None),
            (
                "quarantine",
                2,
                f"poison pill: killed 2 workers ({died})",
                None,
                None,
            ),
        ]
        assert history(local_dir) == expected
        assert history(svc_dir) == expected
        assert served.summary(include_timing=False) == local.summary(
            include_timing=False
        )


class DeadOnFirstAssign(Worker):
    """The first ``assign`` of the run finds its process already killed and
    reaped, so the send raises ``BrokenPipeError``; ``victims`` records the
    unit it was given."""

    victims: list = []

    def assign(self, task, text, hard_budget):
        if not DeadOnFirstAssign.victims:
            DeadOnFirstAssign.victims.append(task.name)
            self.process.kill()
            self.process.join()
        super().assign(task, text, hard_budget)


class TestAssignTimeDeath:
    def test_slot_dead_before_its_unit_charges_no_kill(
        self, tmp_path, monkeypatch
    ):
        """A validation slot that dies before it receives its unit is not
        the unit's fault: no ``worker_death`` is reported, the journal
        holds no death-flagged requeue or quarantine, and the unit ends
        with its single-host verdict."""
        import repro.service.worker as service_worker

        baseline = run_campaign(str(tmp_path / "base"), config())
        monkeypatch.setattr(DeadOnFirstAssign, "victims", [])
        monkeypatch.setattr(service_worker, "Worker", DeadOnFirstAssign)
        svc_dir = str(tmp_path / "svc")
        with CoordinatorThread(
            svc_dir, config(), ServiceConfig(heartbeat_seconds=1.0)
        ) as coordinator:
            summaries = run_workers(coordinator.address, 1)
        report = coordinator.join()

        [victim] = DeadOnFirstAssign.victims
        charged = [
            e
            for e in read_events(svc_dir)
            if e.get("fn") == victim
            and (
                e["event"] == "quarantine"
                or (e["event"] == "requeue" and e.get("death"))
            )
        ]
        assert charged == []
        assert summaries[0].deaths_reported == 0
        assert report.complete
        verdict = {row[0]: row for row in report.function_table()}
        expected = {row[0]: row for row in baseline.function_table()}
        assert verdict[victim] == expected[victim]
