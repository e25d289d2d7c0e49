"""Journal durability: atomic appends, torn tails, ledger derivation."""

from repro.campaign import (
    Journal,
    load_manifest,
    load_state,
    outcome_from_json,
    outcome_to_json,
    read_events,
    write_manifest,
)
from repro.campaign.journal import journal_path
from repro.smt import QueryStats
from repro.tv.driver import Category, TvOutcome


def outcome(name="fn", category=Category.SUCCEEDED, **kw):
    return TvOutcome(name, category, **kw)


class TestOutcomeSerialization:
    def test_roundtrip(self):
        stats = QueryStats(queries=7, sat_calls=2, cache_hits=3, cache_misses=4)
        before = outcome(
            detail="ok",
            seconds=1.5,
            code_size=12,
            sync_points=4,
            solver_stats=stats,
            failure_class=None,
        )
        after = outcome_from_json(outcome_to_json(before))
        assert after.function == before.function
        assert after.category == before.category
        assert after.seconds == before.seconds
        assert after.solver_stats.queries == 7
        assert after.solver_stats.cache_hits == 3

    def test_witness_and_answer_counters_roundtrip(self):
        stats = QueryStats(
            sat_calls=5, sat_calls_sat=1, sat_calls_unsat=3, witnessed=9
        )
        after = outcome_from_json(outcome_to_json(outcome(solver_stats=stats)))
        assert after.solver_stats == stats
        # A journal written before these counters existed reads them as 0.
        payload = outcome_to_json(outcome(solver_stats=stats))
        for name in ("sat_calls_sat", "sat_calls_unsat", "witnessed"):
            del payload["solver_stats"][name]
        older = outcome_from_json(payload).solver_stats
        assert older.sat_calls == 5
        assert older.sat_calls_sat == older.sat_calls_unsat == 0
        assert older.witnessed == 0

    def test_failure_class_and_dedup_markers_survive(self):
        before = outcome(
            category=Category.TIMEOUT,
            failure_class="timeout",
            deduped=True,
            dedup_of="rep",
        )
        after = outcome_from_json(outcome_to_json(before))
        assert after.failure_class == "timeout"
        assert after.deduped and after.dedup_of == "rep"

    def test_report_is_dropped(self):
        payload = outcome_to_json(outcome())
        assert "report" not in payload


class TestManifest:
    def test_write_and_load(self, tmp_path):
        directory = str(tmp_path / "c")
        write_manifest(directory, {"functions": ["a"], "shards": 2})
        assert load_manifest(directory) == {"functions": ["a"], "shards": 2}

    def test_no_temp_file_left_behind(self, tmp_path):
        directory = str(tmp_path / "c")
        write_manifest(directory, {"x": 1})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestJournalAppend:
    def test_events_roundtrip(self, tmp_path):
        directory = str(tmp_path)
        with Journal(directory) as journal:
            journal.append({"event": "start", "fn": "a", "attempt": 1})
            journal.append(
                {
                    "event": "done",
                    "fn": "a",
                    "attempt": 1,
                    "outcome": outcome_to_json(outcome("a")),
                }
            )
        events = read_events(directory)
        assert [e["event"] for e in events] == ["start", "done"]

    def test_torn_tail_is_skipped(self, tmp_path):
        directory = str(tmp_path)
        with Journal(directory) as journal:
            journal.append({"event": "start", "fn": "a", "attempt": 1})
        with open(journal_path(directory), "a") as handle:
            handle.write('{"event": "done", "fn": "a", "outc')  # crash mid-write
        events = read_events(directory)
        assert [e["event"] for e in events] == ["start"]

    def test_append_after_torn_tail_would_still_parse_prefix(self, tmp_path):
        # Resume opens the journal in append mode; the torn line stays torn
        # but new whole lines after it are read fine.
        directory = str(tmp_path)
        with Journal(directory) as journal:
            journal.append({"event": "start", "fn": "a", "attempt": 1})
        with open(journal_path(directory), "a") as handle:
            handle.write("garbage-not-json\n")
        with Journal(directory) as journal:
            journal.append({"event": "requeue", "fn": "a", "attempt": 1})
        assert [e["event"] for e in read_events(directory)] == [
            "start",
            "requeue",
        ]

    def test_missing_journal_is_empty(self, tmp_path):
        assert read_events(str(tmp_path / "void")) == []


class TestLedgerDerivation:
    def _journal(self, tmp_path, events):
        directory = str(tmp_path)
        with Journal(directory) as journal:
            for event in events:
                journal.append(event)
        return load_state(directory)

    def test_completed_function(self, tmp_path):
        state = self._journal(
            tmp_path,
            [
                {"event": "start", "fn": "a", "attempt": 1},
                {
                    "event": "done",
                    "fn": "a",
                    "attempt": 1,
                    "outcome": outcome_to_json(outcome("a")),
                },
            ],
        )
        assert state.completed == {"a"}
        assert state.orphans() == []
        assert state.outcome("a").category == Category.SUCCEEDED

    def test_in_flight_function_is_an_orphan_but_not_a_kill(self, tmp_path):
        # A bare interrupted start (supervisor crash) re-queues the
        # function without charging the poison-pill counter.
        state = self._journal(
            tmp_path, [{"event": "start", "fn": "a", "attempt": 1}]
        )
        assert state.orphans() == ["a"]
        assert state.ledger("a").kills == 0

    def test_death_requeue_is_not_an_orphan_and_counts_a_kill(self, tmp_path):
        # start + requeue: the supervisor already acknowledged the death
        # and put the function back on its queue — only a *second* crash
        # (a start with neither done nor requeue after it) re-orphans it.
        state = self._journal(
            tmp_path,
            [
                {"event": "start", "fn": "a", "attempt": 1},
                {
                    "event": "requeue",
                    "fn": "a",
                    "attempt": 1,
                    "delay": 0.5,
                    "death": True,
                },
            ],
        )
        assert state.orphans() == []
        assert state.ledger("a").kills == 1

    def test_kill_count_accumulates_across_attempts(self, tmp_path):
        state = self._journal(
            tmp_path,
            [
                {"event": "start", "fn": "a", "attempt": 1},
                {"event": "requeue", "fn": "a", "attempt": 1, "death": True},
                {"event": "start", "fn": "a", "attempt": 2},
                {"event": "requeue", "fn": "a", "attempt": 2, "death": True},
            ],
        )
        assert state.ledger("a").kills == 2
        assert state.orphans() == []

    def test_halt_charges_the_named_function(self, tmp_path):
        # halt_on_worker_death journals the victim's name: the death
        # counts toward its poison-pill budget across the restart, while
        # a bystander in flight at the halt is not charged.
        state = self._journal(
            tmp_path,
            [
                {"event": "start", "fn": "victim", "attempt": 1},
                {"event": "start", "fn": "bystander", "attempt": 1},
                {"event": "halt", "fn": "victim", "reason": "worker died"},
            ],
        )
        assert state.ledger("victim").kills == 1
        assert state.ledger("bystander").kills == 0
        assert sorted(state.orphans()) == ["bystander", "victim"]
        assert state.halts == 1

    def test_quarantine_excludes_from_orphans(self, tmp_path):
        state = self._journal(
            tmp_path,
            [
                {"event": "start", "fn": "a", "attempt": 1},
                {"event": "quarantine", "fn": "a", "reason": "poison pill"},
            ],
        )
        assert state.orphans() == []
        assert state.quarantined == {"a": "poison pill"}

    def test_halts_counted(self, tmp_path):
        state = self._journal(tmp_path, [{"event": "halt", "reason": "x"}])
        assert state.halts == 1
