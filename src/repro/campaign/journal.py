"""Durable campaign state: manifest + append-only JSONL outcome journal.

Two files live in a campaign directory:

``manifest.json``
    The immutable run description, written once (atomically, temp file +
    ``os.replace``) when the campaign starts: corpus parameters, options,
    the shard plan, and the dedup replay map.  ``resume`` and ``status``
    rebuild everything deterministic from it.

``journal.jsonl``
    The append-only checkpoint.  One JSON object per line; each line is
    written whole and flushed+fsynced before the supervisor acts on it,
    so after a crash the journal is a prefix of the true history plus at
    most one torn final line (which the loader skips).  Events:

    - ``start``      — a worker was handed the function (attempt n);
    - ``done``       — a terminal outcome was recorded;
    - ``requeue``    — the worker died mid-function; the function goes
      back on its shard queue after a backoff delay;
    - ``quarantine`` — the function killed a worker ``max_kills`` times
      (poison pill) and is excluded from further scheduling;
    - ``duplicate``  — a result arrived for a function that already has a
      ``done`` entry (e.g. a lease expired, the unit was re-run elsewhere,
      and the presumed-dead worker's answer surfaced after all); the
      original outcome stands (*first write wins*) and the duplicate is
      only tallied;
    - ``halt``       — the supervisor stopped deliberately
      (``halt_on_worker_death``), leaving in-flight work to ``resume``.

    Events written by the distributed service (:mod:`repro.service`) carry
    ``worker`` and ``host`` tags naming the worker client that held the
    lease; the loader ignores them for state reconstruction — they exist
    for forensics and the per-worker accounting in ``status`` — so
    single-host and multi-host journals merge through the same code path.

A function's *kill count* tallies only **observed worker deaths**: a
``requeue`` carrying ``death: true`` (the supervisor watched the worker
die) or a ``halt`` naming the function that took the worker down.  A bare
``start`` with no matching ``done`` merely means the attempt was cut short
— possibly by a supervisor crash that is no fault of the function — so
resume re-queues it without charging a kill.  That keeps the poison-pill
rule working across restarts without quarantining innocent bystanders
that happened to be in flight when the supervisor stopped.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from repro.fsio import atomic_publish
from repro.smt import QueryStats
from repro.tv.driver import TvOutcome

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: journal schema version, bumped on incompatible event changes.
JOURNAL_VERSION = 1


# -- outcome (de)serialization -------------------------------------------------

#: QueryStats fields carried through the journal (every one of them).
_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(QueryStats))


def outcome_to_json(outcome: TvOutcome) -> dict:
    """Journal form of a :class:`TvOutcome`.

    The KEQ report object is dropped (it holds term references that do not
    serialize); category, detail, and failure class preserve everything
    the campaign report needs.
    """
    stats = None
    if outcome.solver_stats is not None:
        stats = {
            name: getattr(outcome.solver_stats, name) for name in _STATS_FIELDS
        }
    return {
        "function": outcome.function,
        "category": outcome.category,
        "target": outcome.target,
        "detail": outcome.detail,
        "seconds": outcome.seconds,
        "code_size": outcome.code_size,
        "sync_points": outcome.sync_points,
        "failure_class": outcome.failure_class,
        "deduped": outcome.deduped,
        "dedup_of": outcome.dedup_of,
        "solver_stats": stats,
    }


def outcome_from_json(payload: dict) -> TvOutcome:
    stats = None
    if payload.get("solver_stats") is not None:
        # Fields this version no longer has (journals written by older
        # versions) are skipped; fields it added default to zero.
        stats = QueryStats(
            **{
                name: payload["solver_stats"][name]
                for name in _STATS_FIELDS
                if name in payload["solver_stats"]
            }
        )
    return TvOutcome(
        function=payload["function"],
        category=payload["category"],
        target=payload.get("target", "vx86"),
        detail=payload.get("detail", ""),
        seconds=payload.get("seconds", 0.0),
        code_size=payload.get("code_size", 0),
        sync_points=payload.get("sync_points", 0),
        solver_stats=stats,
        deduped=payload.get("deduped", False),
        dedup_of=payload.get("dedup_of", ""),
        failure_class=payload.get("failure_class"),
    )


# -- manifest ------------------------------------------------------------------


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def journal_path(directory: str) -> str:
    return os.path.join(directory, JOURNAL_NAME)


def write_manifest(directory: str, manifest: dict) -> None:
    """Atomically and durably publish the manifest (readers see all of it
    or none, and the publication survives power loss — see
    :func:`repro.fsio.atomic_publish`)."""
    os.makedirs(directory, exist_ok=True)
    atomic_publish(
        manifest_path(directory),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def load_manifest(directory: str) -> dict:
    with open(manifest_path(directory)) as handle:
        return json.load(handle)


# -- journal writer ------------------------------------------------------------


class Journal:
    """Append-only JSONL writer with crash-safe line appends.

    Each event is serialized to one line, written in a single ``write``
    call, flushed, and fsynced.  POSIX appends of one buffered write to a
    file opened with ``O_APPEND`` land contiguously, so concurrent readers
    (``status`` on a live campaign) and post-crash loaders see whole lines
    plus at most one torn tail.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = journal_path(directory)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True)
        if "\n" in line:  # defensive: JSON never contains raw newlines
            raise ValueError("journal events must serialize to one line")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(directory: str) -> list[dict]:
    """Load journal events, skipping torn or corrupt lines.

    A torn line can only be the tail of a crashed append; skipping any
    unparsable line keeps the loader total without ever inventing state.
    """
    path = journal_path(directory)
    events: list[dict] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError:
        return events
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn tail (or garbage): a crash artefact
            if isinstance(event, dict) and "event" in event:
                events.append(event)
    return events


# -- recovery state ------------------------------------------------------------


@dataclass
class FunctionLedger:
    """Everything the journal knows about one function."""

    starts: int = 0
    dones: int = 0
    requeues: int = 0
    #: observed worker deaths charged to this function (death-flagged
    #: requeues and halts naming it) — NOT bare interrupted starts.
    deaths: int = 0
    #: results that arrived after an outcome was already recorded
    #: (explicit ``duplicate`` events plus redundant ``done`` lines).
    duplicates: int = 0
    outcome: dict | None = None  # FIRST done outcome payload (idempotent)
    quarantined: str | None = None  # quarantine reason, if any
    shard: int | None = None

    @property
    def kills(self) -> int:
        """Worker deaths this function caused (the poison-pill counter)."""
        return self.deaths

    @property
    def completed(self) -> bool:
        return self.outcome is not None

    @property
    def in_flight(self) -> bool:
        return (
            not self.completed
            and self.quarantined is None
            and self.starts > self.dones + self.requeues
        )


@dataclass
class JournalState:
    """The journal folded into per-function ledgers."""

    ledgers: dict[str, FunctionLedger] = field(default_factory=dict)
    halts: int = 0

    @property
    def retries(self) -> int:
        """Total re-queue events (lease expiries + worker-death retries)."""
        return sum(l.requeues for l in self.ledgers.values())

    @property
    def worker_deaths(self) -> int:
        """Total observed worker deaths charged across all functions."""
        return sum(l.deaths for l in self.ledgers.values())

    @property
    def duplicates(self) -> int:
        """Total duplicate results rejected by first-write-wins acceptance."""
        return sum(l.duplicates for l in self.ledgers.values())

    def ledger(self, name: str) -> FunctionLedger:
        entry = self.ledgers.get(name)
        if entry is None:
            entry = self.ledgers[name] = FunctionLedger()
        return entry

    @property
    def completed(self) -> set[str]:
        return {n for n, l in self.ledgers.items() if l.completed}

    @property
    def quarantined(self) -> dict[str, str]:
        return {
            n: l.quarantined
            for n, l in self.ledgers.items()
            if l.quarantined is not None
        }

    def orphans(self) -> list[str]:
        """Functions left in flight by a crashed or halted supervisor,
        sorted for deterministic re-queue order."""
        return sorted(n for n, l in self.ledgers.items() if l.in_flight)

    def outcome(self, name: str) -> TvOutcome | None:
        ledger = self.ledgers.get(name)
        if ledger is None or ledger.outcome is None:
            return None
        return outcome_from_json(ledger.outcome)

    def apply(self, event: dict) -> None:
        """Fold one journal event into the ledgers."""
        kind = event["event"]
        if kind == "halt":
            self.halts += 1
            # A halt names the function whose worker death triggered it:
            # that death is charged to the function.
            name = event.get("fn")
            if name:
                self.ledger(name).deaths += 1
            return
        name = event.get("fn")
        if not name:
            return
        ledger = self.ledger(name)
        if event.get("shard") is not None:
            ledger.shard = event["shard"]
        if kind == "start":
            ledger.starts += 1
        elif kind == "done":
            ledger.dones += 1
            if ledger.outcome is None:
                ledger.outcome = event.get("outcome")
            else:
                # Idempotent acceptance: the first recorded outcome stands
                # (validation is deterministic, so duplicates agree; if a
                # corrupted journal disagrees, first-write-wins at least
                # keeps every reader consistent).
                ledger.duplicates += 1
        elif kind == "duplicate":
            ledger.duplicates += 1
        elif kind == "requeue":
            ledger.requeues += 1
            if event.get("death"):
                ledger.deaths += 1
        elif kind == "quarantine":
            ledger.quarantined = event.get("reason", "quarantined")


def load_state(directory: str) -> JournalState:
    state = JournalState()
    for event in read_events(directory):
        state.apply(event)
    return state
