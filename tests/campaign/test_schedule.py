"""The campaign scheduling policy, tested once against :class:`Scheduler`.

The single-host supervisor and the service coordinator both schedule
through it; their own suites (``tests/campaign/test_recovery.py``,
``tests/service/test_coordinator.py``,
``tests/service/test_service_loopback.py``) are the integration checks.
A plain list stands in for the journal: the scheduler only appends.
"""

import time

import pytest

from repro.campaign import JournalState, PreparedCampaign
from repro.campaign.schedule import Scheduler, recover_orphans
from repro.tv import TvOptions

DETAIL = "worker process died (exitcode=-9)"


def prepared(shard_lists, state=None, max_kills=2, backoff_seconds=0.5):
    manifest = {
        "shard_lists": shard_lists,
        "run_names": [name for shard in shard_lists for name in shard],
        "max_kills": max_kills,
        "backoff_seconds": backoff_seconds,
    }
    return PreparedCampaign(
        directory="",
        manifest=manifest,
        texts={},
        base=TvOptions(),
        overrides={},
        state=state if state is not None else JournalState(),
        validate=None,
    )


def scheduler(shard_lists, **settings):
    journal = []
    return Scheduler(prepared(shard_lists, **settings), journal), journal


def ready(sched, now=0.0):
    """Every job ``next_ready`` hands out at ``now``, in order."""
    jobs = []
    while (job := sched.next_ready(now)) is not None:
        jobs.append(job)
    return jobs


def drain(sched, now=0.0):
    return [job.name for job in ready(sched, now)]


def kinds(journal, name):
    return [e["event"] for e in journal if e["fn"] == name]


class TestRotation:
    def test_shards_take_turns(self):
        sched, _ = scheduler([["a1", "a2"], ["b1"], ["c1", "c2"]])
        assert drain(sched) == ["a1", "b1", "c1", "a2", "c2"]

    def test_emptied_shard_is_skipped(self):
        sched, _ = scheduler([["a1", "a2", "a3"], ["b1"]])
        assert drain(sched) == ["a1", "b1", "a2", "a3"]
        assert sched.next_ready(0.0) is None

    def test_jobs_start_at_attempt_one_on_their_shard(self):
        sched, _ = scheduler([["a"], ["b"]])
        first, second = sched.next_ready(0.0), sched.next_ready(0.0)
        assert (first.name, first.shard, first.attempt) == ("a", 0, 1)
        assert (second.name, second.shard, second.attempt) == ("b", 1, 1)

    def test_events_carry_the_shard_and_attempt(self):
        sched, journal = scheduler([["a"], ["b"]])
        sched.journal_event("start", "b", 1, worker="w1")
        assert journal == [
            {
                "event": "start",
                "fn": "b",
                "shard": 1,
                "attempt": 1,
                "worker": "w1",
            }
        ]


class TestBackoff:
    def test_delays_double_and_not_before_is_honoured(self):
        sched, journal = scheduler([["a"]], max_kills=3)
        job = sched.next_ready(0.0)
        for delay, attempt in ((0.5, 1), (1.0, 2)):
            before = time.monotonic()
            assert sched.died("a", job.attempt, DETAIL) is False
            after = time.monotonic()
            assert journal[-1] == {
                "event": "requeue",
                "fn": "a",
                "shard": 0,
                "attempt": attempt,
                "reason": DETAIL,
                "delay": delay,
                "death": True,
            }
            assert sched.next_ready(before) is None
            job = sched.next_ready(after + delay)
            assert (job.name, job.attempt) == ("a", attempt + 1)
            assert before + delay <= job.not_before <= after + delay

    def test_backing_off_job_does_not_hold_back_other_shards(self):
        sched, _ = scheduler([["a"], ["b1", "b2"]])
        now = time.monotonic()
        assert sched.next_ready(now).name == "a"
        sched.died("a", 1, DETAIL)
        assert drain(sched, now) == ["b1", "b2"]


class TestQuarantine:
    def test_quarantined_at_exactly_max_kills(self):
        sched, journal = scheduler([["a"], ["b"]], backoff_seconds=0.0)
        assert sched.died("a", 1, DETAIL) is False
        assert "a" in sched.unresolved
        assert sched.died("a", 2, DETAIL) is True
        assert journal[-1] == {
            "event": "quarantine",
            "fn": "a",
            "shard": 0,
            "attempt": 2,
            "reason": f"poison pill: killed 2 workers ({DETAIL})",
        }
        assert sched.unresolved == {"b"}
        assert kinds(journal, "a") == ["requeue", "quarantine"]

    def test_lost_attempts_charge_no_kill(self):
        sched, journal = scheduler([["a"]])
        assert sched.lost("a", 1, "lease expired", worker="w1") is True
        assert sched.lost("a", 2, "drained mid-lease", worker="w2") is True
        assert [e["death"] for e in journal] == [False, False]
        assert [e["delay"] for e in journal] == [0.0, 0.0]
        # One kill later the function is re-queued, not quarantined.
        assert sched.died("a", 3, DETAIL) is False
        assert journal[-1]["delay"] == 0.5


class TestSettling:
    def test_second_done_is_a_duplicate(self):
        sched, journal = scheduler([["a"], ["b"]])
        assert sched.done("a", 1, {"category": "succeeded"}) is True
        assert sched.done("a", 2, {"category": "other"}, host="h") is False
        assert journal[-1] == {
            "event": "duplicate",
            "fn": "a",
            "shard": 0,
            "attempt": 2,
            "host": "h",
        }
        assert sched.unresolved == {"b"}

    def test_settled_entry_dropped_from_its_queue(self):
        """A late result accepted after the unit was re-queued settles
        the queued entry; it is never handed out again."""
        sched, _ = scheduler([["a"], ["b"]])
        assert sched.next_ready(0.0).name == "a"
        sched.lost("a", 1, "lease expired")
        sched.done("a", 1, {"category": "succeeded"})
        assert drain(sched) == ["b"]

    def test_lost_after_settling_journals_nothing(self):
        sched, journal = scheduler([["a"]])
        sched.done("a", 1, {"category": "succeeded"})
        assert sched.lost("a", 1, "lease expired") is False
        assert kinds(journal, "a") == ["done"]
        assert sched.finished


def state_of(events):
    state = JournalState()
    for entry in events:
        state.apply(entry)
    return state


def event(kind, name, shard, attempt, **fields):
    return {
        "event": kind,
        "fn": name,
        "shard": shard,
        "attempt": attempt,
        **fields,
    }


class TestResumeOrphans:
    @pytest.mark.parametrize("kills", [1, 2])
    def test_orphan_rule_at_the_threshold(self, kills):
        """One kill short of ``max_kills`` the orphan is re-queued and the
        resumed run keeps counting; at ``max_kills`` it is quarantined."""
        events = [event("start", "x", 1, 1)]
        for attempt in range(1, kills + 1):
            events.append(event("requeue", "x", 1, attempt, death=True))
            events.append(event("start", "x", 1, attempt + 1))
        state = state_of(events)
        campaign = prepared([["a"], ["x"]], state=state)
        [recovery] = recover_orphans(campaign.manifest, state)
        if kills < campaign.manifest["max_kills"]:
            assert recovery == event(
                "requeue",
                "x",
                1,
                kills + 1,
                reason="in flight at supervisor crash/halt",
                delay=0.0,
            )
        else:
            assert recovery == event(
                "quarantine",
                "x",
                1,
                kills + 1,
                reason="poison pill: 2 worker deaths without an outcome",
            )
        assert state.orphans() == []  # the events were folded in
        sched = Scheduler(campaign, [])
        pending = {job.name: job.attempt for job in ready(sched)}
        if kills < campaign.manifest["max_kills"]:
            assert pending == {"a": 1, "x": kills + 2}
            # The resumed run keeps the journal's kill count.
            assert sched.died("x", kills + 2, DETAIL) is True
        else:
            assert pending == {"a": 1}

    def test_completed_work_stays_done_and_bystanders_are_requeued(self):
        """A halt charges its function one kill; a bystander in flight
        beside it is charged nothing; completed work is not re-run."""
        state = state_of(
            [
                event("start", "a", 0, 1),
                event("done", "a", 0, 1, outcome={}),
                event("start", "b", 0, 1),
                event("start", "c", 1, 1),
                event("halt", "c", 1, 1, reason=DETAIL),
            ]
        )
        campaign = prepared([["a", "b"], ["c"]], state=state)
        recovery = recover_orphans(campaign.manifest, state)
        assert [(e["event"], e["fn"]) for e in recovery] == [
            ("requeue", "b"),
            ("requeue", "c"),
        ]
        sched = Scheduler(campaign, [])
        assert [(j.name, j.attempt) for j in ready(sched)] == [
            ("b", 2),
            ("c", 2),
        ]
        assert sched.died("b", 2, DETAIL) is False
        assert sched.died("c", 2, DETAIL) is True
