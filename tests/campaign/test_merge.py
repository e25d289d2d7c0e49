"""Merge determinism: shard completion order must not affect the report."""

import random

from repro.campaign import Journal, load_state, merge_campaign, outcome_to_json
from repro.campaign.merge import build_status
from repro.smt import QueryStats
from repro.tv.batch import BatchResult, merge_results
from repro.tv.driver import Category, TvOutcome


def outcome(name, category=Category.SUCCEEDED, **kw):
    return TvOutcome(name, category, **kw)


MANIFEST = {
    "functions": ["a", "b", "c", "d", "e"],
    "run_names": ["a", "b", "d", "e"],
    "replay": {"c": "a"},
    "dedup_classes": 4,
    "shard_lists": [["a", "c", "e"], ["b", "d"]],
}


def journal_state(tmp_path, events):
    directory = str(tmp_path)
    with Journal(directory) as journal:
        for event in events:
            journal.append(event)
    return load_state(directory)


def done(name, **kw):
    return {
        "event": "done",
        "fn": name,
        "attempt": 1,
        "outcome": outcome_to_json(outcome(name, **kw)),
    }


def start(name):
    return {"event": "start", "fn": name, "attempt": 1}


class TestMergeResults:
    def test_byte_identical_regardless_of_order(self):
        outcomes = [
            outcome("f3", Category.TIMEOUT, failure_class="timeout", seconds=2.0),
            outcome("f1", seconds=1.0),
            outcome("f2", Category.OOM, failure_class="oom", seconds=0.5),
            outcome("f4", seconds=0.1),
        ]
        shards = [
            BatchResult(outcomes=[outcomes[0], outcomes[1]]),
            BatchResult(outcomes=[outcomes[2], outcomes[3]]),
        ]
        forward = merge_results(shards).summary()
        backward = merge_results(list(reversed(shards))).summary()
        assert forward == backward
        shuffled = shards[:]
        random.Random(5).shuffle(shuffled)
        assert merge_results(shuffled).summary() == forward

    def test_outcomes_sorted_by_function(self):
        merged = merge_results(
            [
                BatchResult(outcomes=[outcome("z"), outcome("m")]),
                BatchResult(outcomes=[outcome("a")]),
            ]
        )
        assert [o.function for o in merged.outcomes] == ["a", "m", "z"]


class TestMergeCampaign:
    def _events(self):
        return [
            start("a"),
            done("a", seconds=1.0),
            start("b"),
            done("b", category=Category.TIMEOUT, failure_class="timeout"),
            start("d"),
            done("d"),
            start("e"),
            done("e"),
        ]

    def test_complete_campaign_accounts_every_function_once(self, tmp_path):
        state = journal_state(tmp_path, self._events())
        report = merge_campaign(MANIFEST, state)
        assert report.complete
        names = [o.function for o in report.batch.outcomes]
        assert names == sorted(MANIFEST["functions"])
        assert len(names) == len(set(names))

    def test_replayed_duplicate_carries_markers(self, tmp_path):
        state = journal_state(tmp_path, self._events())
        report = merge_campaign(MANIFEST, state)
        by_name = {o.function: o for o in report.batch.outcomes}
        assert by_name["c"].deduped
        assert by_name["c"].dedup_of == "a"
        assert by_name["c"].category == Category.SUCCEEDED
        assert report.batch.deduped_functions == 1

    def test_quarantine_synthesizes_crash_outcome(self, tmp_path):
        events = self._events()[:6]  # a, b, d done; e never finishes
        events += [
            start("e"),
            {"event": "quarantine", "fn": "e", "reason": "poison pill"},
        ]
        state = journal_state(tmp_path, events)
        report = merge_campaign(MANIFEST, state)
        assert report.complete
        by_name = {o.function: o for o in report.batch.outcomes}
        assert by_name["e"].category == Category.OTHER
        assert by_name["e"].failure_class == "crash"
        assert "poison pill" in by_name["e"].detail
        assert report.quarantined == {"e": "poison pill"}

    def test_quarantine_outcome_carries_the_campaign_target(self, tmp_path):
        events = [
            start("e"),
            {"event": "quarantine", "fn": "e", "reason": "poison pill"},
        ]
        state = journal_state(tmp_path, events)
        vriscv = merge_campaign({**MANIFEST, "target": "vriscv"}, state)
        default = merge_campaign(MANIFEST, state)
        by_name = {o.function: o for o in vriscv.batch.outcomes}
        assert by_name["e"].target == "vriscv"
        assert [o.target for o in default.batch.outcomes] == ["vx86"]

    def test_partial_campaign_is_incomplete(self, tmp_path):
        state = journal_state(tmp_path, self._events()[:4])  # a, b only
        report = merge_campaign(MANIFEST, state)
        assert not report.complete
        assert report.accounted == 3  # a, b, and c replayed from a
        assert "INCOMPLETE" in report.summary()

    def test_summary_without_timing_is_stable(self, tmp_path):
        state = journal_state(tmp_path, self._events())
        rendered = merge_campaign(MANIFEST, state).summary(include_timing=False)
        assert "time:" not in rendered
        assert "solver:" not in rendered
        again = merge_campaign(MANIFEST, state).summary(include_timing=False)
        assert rendered == again

    def test_failure_classes_render_in_fixed_order(self, tmp_path):
        state = journal_state(tmp_path, self._events())
        rendered = merge_campaign(MANIFEST, state).summary()
        assert (
            "failure classes: timeout=1 oom=0 inadequate_sync=0 crash=0"
            in rendered
        )

    def test_shard_rows(self, tmp_path):
        state = journal_state(tmp_path, self._events())
        report = merge_campaign(MANIFEST, state)
        shard0, shard1 = report.shards
        assert (shard0.total, shard0.done, shard0.replayed) == (3, 2, 1)
        assert (shard1.total, shard1.done, shard1.replayed) == (2, 2, 0)


class TestBuildStatus:
    def test_counts(self, tmp_path):
        events = self._partial_events()
        state = journal_state(tmp_path, events)
        status = build_status(MANIFEST, state)
        assert status.total_functions == 5
        assert status.done == 2  # a, b
        assert status.replay_ready == 1  # c rides on a
        assert status.in_flight == 1  # d started, never done
        assert status.pending == 2  # d and e unaccounted
        assert not status.complete
        rendered = status.render()
        assert "in-flight=1" in rendered
        assert "campaign status: in progress" in rendered

    def _partial_events(self):
        return [
            start("a"),
            done("a"),
            start("b"),
            done("b"),
            start("d"),
        ]


class TestSolverCounterLines:
    def test_batch_summary_and_status_print_the_same_lines(self, tmp_path):
        stats = QueryStats(
            queries=9,
            incremental_checks=7,
            clauses_reused=5,
            clauses_evicted=2,
        )
        state = journal_state(
            tmp_path,
            [done(name, solver_stats=stats) for name in ("a", "b", "d", "e")],
        )

        def counter_lines(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith("session:")
            ]

        summary = merge_campaign(MANIFEST, state).batch.summary()
        status = build_status(MANIFEST, state).render()
        assert counter_lines(summary) == counter_lines(status) == [
            "session: checks=28 clauses_reused=20 evicted=8",
        ]
