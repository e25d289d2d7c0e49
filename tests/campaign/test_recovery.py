"""Crash recovery end to end: SIGKILL injection, resume, quarantine.

These tests drive real spawn-based worker pools; the injector hook
(:mod:`repro.campaign.hooks`) is configured through environment variables,
which spawn children inherit.  The corpus is tiny (scale=8) so each
campaign run takes a couple of seconds.
"""

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignInterrupted,
    load_manifest,
    load_state,
    read_events,
    resume_campaign,
    run_campaign,
)
from repro.campaign.hooks import (
    KILL_ALWAYS_ENV,
    KILL_DIR_ENV,
    KILL_ONCE_ENV,
    sigkill_injector,
)
from repro.tv.driver import Category

VICTIM = "fn_succeeded_0000"


def config(**overrides):
    settings = dict(
        scale=8,
        seed=7,
        shards=2,
        jobs=2,
        wall_budget=30.0,
        backoff_seconds=0.05,  # keep retry sleeps out of the test budget
    )
    settings.update(overrides)
    return CampaignConfig(**settings)


def requeues_of(directory, name):
    return [
        e
        for e in read_events(directory)
        if e["event"] == "requeue" and e.get("fn") == name
    ]


class TestHaltAndResume:
    def test_interrupted_plus_resumed_equals_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        plain_dir = str(tmp_path / "plain")
        plain = run_campaign(plain_dir, config())

        crash_dir = str(tmp_path / "crash")
        monkeypatch.setenv(KILL_ONCE_ENV, VICTIM)
        monkeypatch.setenv(KILL_DIR_ENV, crash_dir)
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                crash_dir,
                config(halt_on_worker_death=True, validate=sigkill_injector),
            )

        state = load_state(str(crash_dir))
        assert VICTIM in state.orphans()
        assert VICTIM not in state.completed

        # The kill-once marker survives in crash_dir, so resume (which
        # re-resolves the injector hook from the manifest, env still set)
        # does not re-kill: a true transient fault.
        report = resume_campaign(crash_dir)
        assert report.complete
        assert report.quarantined == {}

        # Every in-flight function was re-queued exactly once.
        for orphan in state.orphans():
            assert len(requeues_of(crash_dir, orphan)) == 1

        # The final report is identical to the uninterrupted run's, modulo
        # wall-clock and solver-counter lines.
        assert report.summary(include_timing=False) == plain.summary(
            include_timing=False
        )
        assert report.function_table() == plain.function_table()

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="manifest"):
            resume_campaign(str(tmp_path / "void"))

    def test_second_run_into_same_directory_refused(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory, config(scale=4))
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(directory, config(scale=4))


class TestInRunRetry:
    def test_transient_kill_self_heals_with_backoff(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "camp")
        monkeypatch.setenv(KILL_ONCE_ENV, VICTIM)
        monkeypatch.setenv(KILL_DIR_ENV, directory)
        report = run_campaign(directory, config(validate=sigkill_injector))
        assert report.complete
        assert report.quarantined == {}
        by_name = {o.function: o for o in report.batch.outcomes}
        assert by_name[VICTIM].category == Category.SUCCEEDED
        events = requeues_of(directory, VICTIM)
        assert len(events) == 1
        assert events[0]["delay"] == pytest.approx(0.05)


class TestQuarantine:
    def test_poison_pill_quarantined_after_two_kills(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "camp")
        monkeypatch.setenv(KILL_ALWAYS_ENV, VICTIM)
        report = run_campaign(directory, config(validate=sigkill_injector))
        assert report.complete
        assert list(report.quarantined) == [VICTIM]
        by_name = {o.function: o for o in report.batch.outcomes}
        assert by_name[VICTIM].failure_class == "crash"
        assert by_name[VICTIM].category == Category.OTHER
        # Exactly max_kills starts, one requeue, then quarantine.
        starts = [
            e
            for e in read_events(directory)
            if e["event"] == "start" and e["fn"] == VICTIM
        ]
        assert len(starts) == 2
        assert len(requeues_of(directory, VICTIM)) == 1
        # Everything else completed normally.
        others = [o for o in report.batch.outcomes if o.function != VICTIM]
        assert all(o.failure_class != "crash" for o in others)

    def test_quarantined_vriscv_campaign_reports_one_target(
        self, tmp_path, monkeypatch
    ):
        """The synthesized quarantine outcome carries the campaign's target,
        so the report names vriscv alone."""
        directory = str(tmp_path / "camp")
        monkeypatch.setenv(KILL_ALWAYS_ENV, VICTIM)
        report = run_campaign(
            directory, config(target="vriscv", validate=sigkill_injector)
        )
        assert list(report.quarantined) == [VICTIM]
        assert {o.target for o in report.batch.outcomes} == {"vriscv"}
        assert "target: vriscv" in report.summary().splitlines()

    def test_kill_counts_survive_restarts(self, tmp_path, monkeypatch):
        """Two halted runs, each killing the victim once: the resume after
        the second derives kills=2 from the journal and quarantines the
        orphan without scheduling it again."""
        directory = str(tmp_path / "camp")
        monkeypatch.setenv(KILL_ALWAYS_ENV, VICTIM)
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                directory,
                config(halt_on_worker_death=True, validate=sigkill_injector),
            )
        with pytest.raises(CampaignInterrupted):
            resume_campaign(directory)
        report = resume_campaign(directory)
        assert report.complete
        assert list(report.quarantined) == [VICTIM]
        assert "worker deaths" in report.quarantined[VICTIM]


#: corpus seed of the fresh-path campaign: at scale 8 one of its functions
#: issues a check that reaches CDCL (at seeds 7 and 13 every query ends on a
#: fast path).
FRESH_PATH_SEED = 5


class TestFreshPathCampaign:
    """With incremental solving off, every query that reaches the SAT layer
    is solved fresh; such a campaign must resume to the report of the
    uninterrupted run."""

    def test_fresh_path_survives_interrupt_and_resume(
        self, tmp_path, monkeypatch
    ):
        plain = run_campaign(
            str(tmp_path / "plain"),
            config(incremental=False, seed=FRESH_PATH_SEED),
        )

        crash_dir = str(tmp_path / "crash")
        monkeypatch.setenv(KILL_ONCE_ENV, VICTIM)
        monkeypatch.setenv(KILL_DIR_ENV, crash_dir)
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                crash_dir,
                config(
                    incremental=False,
                    seed=FRESH_PATH_SEED,
                    halt_on_worker_death=True,
                    validate=sigkill_injector,
                ),
            )
        assert load_manifest(crash_dir)["incremental"] is False

        report = resume_campaign(crash_dir)
        assert report.complete
        stats = report.batch.solver_stats
        assert stats.sat_calls > 0
        assert stats.incremental_checks == 0
        assert report.summary(include_timing=False) == plain.summary(
            include_timing=False
        )
        assert report.function_table() == plain.function_table()
