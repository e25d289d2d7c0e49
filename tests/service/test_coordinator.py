"""Coordinator protocol semantics, driven through ``handle()`` directly.

No sockets, no worker subprocesses: a prepared campaign plus synthetic
result payloads exercise lease grants, first-write-wins acceptance,
poison-pill quarantine, exactly-once lease-expiry re-queue, and graceful
goodbye — the machinery the loopback tests then validate end to end.
"""

import time

import pytest

from repro.campaign import CampaignConfig, load_state, read_events
from repro.campaign.journal import Journal, outcome_to_json
from repro.campaign.supervisor import prepare_campaign
from repro.llvm import parse_module
from repro.service.coordinator import Coordinator, ServiceConfig
from repro.tv.driver import Category, TvOutcome
from repro.workloads import gcc_like_corpus


@pytest.fixture
def coordinator(tmp_path):
    directory = str(tmp_path / "camp")
    prepared = prepare_campaign(
        directory,
        CampaignConfig(
            scale=4,
            seed=7,
            shards=2,
            jobs=1,
            wall_budget=20.0,
            backoff_seconds=0.05,
        ),
    )
    journal = Journal(directory)
    coord = Coordinator(
        prepared,
        journal,
        ServiceConfig(lease_seconds=30.0, wait_seconds=0.01),
    )
    yield coord
    journal.close()


def hello(coord, worker_id="w1"):
    return coord.handle(
        {"type": "hello", "worker_id": worker_id, "host": "testhost"}
    )


def lease(coord, worker_id="w1"):
    return coord.handle({"type": "lease", "worker_id": worker_id})


def result_for(coord, grant, worker_id="w1", category=Category.SUCCEEDED):
    return coord.handle(
        {
            "type": "result",
            "worker_id": worker_id,
            "unit": grant["unit"],
            "lease_id": grant["lease_id"],
            "attempt": grant["attempt"],
            "shard": grant["shard"],
            "outcome": outcome_to_json(TvOutcome(grant["unit"], category)),
        }
    )


def drain(coord, worker_id="w1"):
    """Lease+complete until the coordinator says drain; returns grants."""
    grants = []
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        reply = lease(coord, worker_id)
        if reply["type"] == "drain":
            return grants
        if reply["type"] == "wait":
            time.sleep(reply["seconds"])
            continue
        grants.append(reply)
        result_for(coord, reply, worker_id)
    raise AssertionError("coordinator never drained")


class TestHello:
    def test_welcome_carries_the_campaign(self, coordinator):
        welcome = hello(coordinator)
        assert welcome["type"] == "welcome"
        assert "module_text" not in welcome
        assert welcome["lease_seconds"] == 30.0
        assert welcome["cache_dir"] == coordinator.prepared.manifest["cache_dir"]
        assert welcome["validate"] is None
        assert isinstance(welcome["imprecise"], list)
        assert "portfolio" not in welcome

    def test_unknown_type_is_an_error(self, coordinator):
        reply = coordinator.handle({"type": "frobnicate"})
        assert reply["type"] == "error"


class TestLeaseAndResult:
    def test_grant_text_defines_exactly_its_unit(self, coordinator):
        """A grant carries its unit's text: the corpus globals and that one
        function, printed as the corpus module prints it."""
        module = gcc_like_corpus(scale=4, seed=7).build_module()
        hello(coordinator)
        grant = lease(coordinator)
        assert grant["type"] == "unit"
        parsed = parse_module(grant["text"])
        assert list(parsed.functions) == [grant["unit"]]
        assert list(parsed.globals) == list(module.globals)
        assert str(parsed.function(grant["unit"])) == str(
            module.function(grant["unit"])
        )

    def test_full_drain_completes_the_campaign(self, coordinator):
        hello(coordinator)
        grants = drain(coordinator)
        run_names = set(coordinator.prepared.manifest["run_names"])
        assert {g["unit"] for g in grants} == run_names
        assert len(grants) == len(run_names)  # each unit granted once
        assert coordinator.finished
        state = load_state(coordinator.prepared.directory)
        assert state.completed == run_names

    def test_start_events_carry_worker_tags(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        starts = [
            e
            for e in read_events(coordinator.prepared.directory)
            if e["event"] == "start"
        ]
        assert len(starts) == 1
        assert starts[0]["fn"] == grant["unit"]
        assert starts[0]["worker"] == "w1"
        assert starts[0]["host"] == "testhost"

    def test_unit_not_double_leased(self, coordinator):
        hello(coordinator, "w1")
        hello(coordinator, "w2")
        granted = set()
        while True:
            reply = lease(coordinator, "w1")
            if reply["type"] != "unit":
                break
            assert reply["unit"] not in granted
            granted.add(reply["unit"])
        # Queues are empty but units are unresolved: the second worker
        # must wait, not receive an already-leased unit.
        assert lease(coordinator, "w2")["type"] == "wait"

    def test_duplicate_result_dropped_first_write_wins(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        first = result_for(coordinator, grant)
        assert first == {"type": "ack", "duplicate": False}
        second = result_for(coordinator, grant, category=Category.OTHER)
        assert second == {"type": "ack", "duplicate": True}
        state = load_state(coordinator.prepared.directory)
        assert state.duplicates == 1
        # The accepted outcome is the first one.
        assert state.outcome(grant["unit"]).category == Category.SUCCEEDED
        events = read_events(coordinator.prepared.directory)
        assert [e["event"] for e in events if e["fn"] == grant["unit"]] == [
            "start",
            "done",
            "duplicate",
        ]


class TestWorkerDeath:
    def death(self, coord, grant, worker_id="w1"):
        return coord.handle(
            {
                "type": "worker_death",
                "worker_id": worker_id,
                "unit": grant["unit"],
                "lease_id": grant["lease_id"],
                "attempt": grant["attempt"],
                "detail": "worker process died (exitcode=-9)",
            }
        )

    def test_death_requeues_with_backoff(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        reply = self.death(coordinator, grant)
        assert reply == {"type": "ack", "quarantined": False}
        events = read_events(coordinator.prepared.directory)
        requeues = [e for e in events if e["event"] == "requeue"]
        assert len(requeues) == 1
        assert requeues[0]["fn"] == grant["unit"]
        assert requeues[0]["death"] is True
        assert requeues[0]["delay"] == pytest.approx(0.05)
        # After the backoff the unit is leased again with attempt+1.
        time.sleep(0.1)
        regrants = {}
        while True:
            reply = lease(coordinator)
            if reply["type"] != "unit":
                break
            regrants[reply["unit"]] = reply
        assert regrants[grant["unit"]]["attempt"] == grant["attempt"] + 1

    def test_second_death_quarantines(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        self.death(coordinator, grant)
        time.sleep(0.1)
        while True:
            regrant = lease(coordinator)
            assert regrant["type"] == "unit"
            if regrant["unit"] == grant["unit"]:
                break
            result_for(coordinator, regrant)
        reply = self.death(coordinator, regrant)
        assert reply == {"type": "ack", "quarantined": True}
        drain(coordinator)
        state = load_state(coordinator.prepared.directory)
        assert grant["unit"] in state.quarantined
        # Only the retried death shows as a death-flagged requeue; the
        # final one is folded into the quarantine event (matching the
        # single-host supervisor's journal shape).
        assert state.worker_deaths == 1
        assert state.ledger(grant["unit"]).requeues == 1


class TestLeaseExpiry:
    @pytest.fixture
    def coordinator(self, tmp_path):
        directory = str(tmp_path / "camp")
        prepared = prepare_campaign(
            directory,
            CampaignConfig(scale=4, seed=7, shards=2, backoff_seconds=0.05),
        )
        journal = Journal(directory)
        coord = Coordinator(
            prepared,
            journal,
            ServiceConfig(lease_seconds=0.05, wait_seconds=0.01),
        )
        yield coord
        journal.close()

    def test_expired_lease_requeued_exactly_once(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        time.sleep(0.06)
        assert coordinator.sweep() == [grant["unit"]]
        assert coordinator.sweep() == []  # exactly once
        requeues = [
            e
            for e in read_events(coordinator.prepared.directory)
            if e["event"] == "requeue"
        ]
        assert len(requeues) == 1
        assert "lease expired" in requeues[0]["reason"]
        assert requeues[0]["death"] is False  # unobserved: no kill charged
        regrant = self.lease_until(coordinator, grant["unit"], "w2")
        assert regrant["attempt"] == grant["attempt"] + 1

    @staticmethod
    def lease_until(coord, unit, worker_id):
        """Lease (without completing) until ``unit`` is granted; other
        pending units may precede the re-queued one."""
        while True:
            reply = lease(coord, worker_id)
            assert reply["type"] == "unit"
            if reply["unit"] == unit:
                return reply

    def test_late_result_after_expiry_is_duplicate(self, coordinator):
        hello(coordinator, "w1")
        grant = lease(coordinator, "w1")
        time.sleep(0.06)
        coordinator.sweep()
        regrant = self.lease_until(coordinator, grant["unit"], "w2")
        accepted = result_for(coordinator, regrant, "w2")
        assert accepted["duplicate"] is False
        # The presumed-dead worker's answer surfaces after the re-run.
        late = result_for(coordinator, grant, "w1")
        assert late["duplicate"] is True
        state = load_state(coordinator.prepared.directory)
        assert state.ledger(grant["unit"]).duplicates == 1

    def test_death_after_expiry_is_stale(self, coordinator):
        """A ``worker_death`` for a lease the sweep already expired is
        stale: the sweep's requeue accounted for the attempt, so nothing
        is journaled or charged and the unit is queued once — its regrant
        reads as in flight, where resume would find it."""
        hello(coordinator, "w1")
        grant = lease(coordinator, "w1")
        time.sleep(0.06)
        assert coordinator.sweep() == [grant["unit"]]
        reply = coordinator.handle(
            {
                "type": "worker_death",
                "worker_id": "w1",
                "unit": grant["unit"],
                "lease_id": grant["lease_id"],
                "attempt": grant["attempt"],
                "detail": "worker process died (exitcode=-9)",
            }
        )
        assert reply == {"type": "ack", "stale": True}
        directory = coordinator.prepared.directory
        requeues = [
            e
            for e in read_events(directory)
            if e["event"] == "requeue" and e["fn"] == grant["unit"]
        ]
        assert len(requeues) == 1
        self.lease_until(coordinator, grant["unit"], "w2")
        assert grant["unit"] in load_state(directory).orphans()

    def test_heartbeat_keeps_the_lease_alive(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        for _ in range(4):
            time.sleep(0.03)
            coordinator.handle({"type": "heartbeat", "worker_id": "w1"})
            assert coordinator.sweep() == []
        assert result_for(coordinator, grant)["duplicate"] is False


class TestGoodbye:
    def test_goodbye_requeues_in_flight_immediately(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        coordinator.handle({"type": "goodbye", "worker_id": "w1"})
        requeues = [
            e
            for e in read_events(coordinator.prepared.directory)
            if e["event"] == "requeue"
        ]
        assert len(requeues) == 1
        assert "drained mid-lease" in requeues[0]["reason"]
        regrants = set()
        while True:
            reply = lease(coordinator, "w2")
            if reply["type"] != "unit":
                break
            regrants.add(reply["unit"])
        assert grant["unit"] in regrants


class TestStatus:
    def test_status_renders_progress_and_workers(self, coordinator):
        hello(coordinator)
        grant = lease(coordinator)
        result_for(coordinator, grant)
        reply = coordinator.handle({"type": "status"})
        assert reply["type"] == "status"
        assert reply["complete"] is False
        assert "campaign status" in reply["render"]
        assert "failure classes:" in reply["render"]
        assert "retries:" in reply["render"]
        assert "worker w1 (testhost, active)" in reply["render"]
        assert "completed=1" in reply["render"]
