"""The campaign scheduling policy both campaign drivers share.

The supervisor (:mod:`repro.campaign.supervisor`) hands jobs to
worker-pool slots and the coordinator (:mod:`repro.service.coordinator`)
hands them out under leases; which job runs next, what a worker death
costs and every journal event either writes are decided here, once.

Failure handling policy (the paper's Section 5 taxonomy, operationalised):

- deterministic failures — ``timeout`` (step/wall budget), ``oom``
  (spec-size budget), ``inadequate_sync`` (liveness-inadequate sync
  points) — are terminal outcomes, recorded once and never retried;
- an *observed* worker death (SIGKILL, OOM-kill, segfault) charges the
  function a kill and re-queues it after ``backoff_seconds *
  2**(kills - 1)``.  At ``max_kills`` the function is a poison pill and is
  quarantined (journalled, excluded from scheduling, reported under the
  ``crash`` class) instead of wedging the campaign;
- an attempt nobody saw die — an expired lease, a goodbye mid-lease, a
  function in flight when a driver crashed or halted — is re-queued at
  once and charged nothing, since a silent worker is indistinguishable
  from a partition.  On resume, an orphan already at ``max_kills`` is
  quarantined instead;
- the first outcome for a function wins; a later one is journaled as
  ``duplicate`` and dropped (validation is deterministic, so they agree).

Shards take turns, and a job backing off does not hold back the others.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.campaign.journal import Journal, JournalState

if TYPE_CHECKING:
    from repro.campaign.supervisor import PreparedCampaign


@dataclass
class Job:
    """One scheduled validation attempt (a :class:`WorkerPool` task)."""

    name: str
    shard: int
    attempt: int
    not_before: float = 0.0


def _shard_of(manifest: dict) -> dict[str, int]:
    return {
        name: index
        for index, shard in enumerate(manifest["shard_lists"])
        for name in shard
    }


def _event(kind: str, name: str, shard, attempt: int, **fields) -> dict:
    return dict(event=kind, fn=name, shard=shard, attempt=attempt, **fields)


def recover_orphans(manifest: dict, state: JournalState) -> list[dict]:
    """Resume's orphan rule: settle each function left in flight.

    An orphan is re-queued, or quarantined when the journal already
    charges it ``max_kills`` worker deaths.  The events are folded into
    ``state`` and returned; the caller journals them before driving the
    campaign, so the re-queue happens once even if it crashes again.
    """
    shard_of = _shard_of(manifest)
    events = []
    for name in state.orphans():
        ledger = state.ledger(name)
        at = (name, shard_of.get(name), ledger.starts)
        if ledger.kills >= manifest["max_kills"]:
            kills = ledger.kills
            reason = f"poison pill: {kills} worker deaths without an outcome"
            event = _event("quarantine", *at, reason=reason)
        else:
            reason = "in flight at supervisor crash/halt"
            event = _event("requeue", *at, reason=reason, delay=0.0)
        state.apply(event)
        events.append(event)
    return events


class Scheduler:
    """The pending shard queues and kill counts of one driver's run.

    Built from the prepared campaign's journal state, so a resumed run
    continues attempt numbers and kill counts where the journal left
    them.  Every transition is journaled before the queues change.
    """

    def __init__(self, prepared: PreparedCampaign, journal: Journal):
        manifest, state = prepared.manifest, prepared.state
        self._journal = journal
        self._max_kills = manifest["max_kills"]
        self._backoff_seconds = manifest["backoff_seconds"]
        self._shard_of = _shard_of(manifest)
        self._kills = {name: l.kills for name, l in state.ledgers.items()}
        run_names = set(manifest["run_names"])
        settled = state.completed | set(state.quarantined)
        #: one queue per shard, in the manifest's shard order.
        self._queues = [
            deque(
                Job(name, index, attempt=state.ledger(name).starts + 1)
                for name in shard
                if name in run_names and name not in settled
            )
            for index, shard in enumerate(manifest["shard_lists"])
        ]
        self._rotation = 0
        #: functions with neither an outcome nor a quarantine yet.
        self.unresolved = {job.name for jobs in self._queues for job in jobs}

    @property
    def finished(self) -> bool:
        return not self.unresolved

    def next_ready(self, now: float) -> Job | None:
        """The next job in shard rotation whose backoff has passed.

        Entries settled while they waited (a late result accepted after
        its lease expired) are dropped from the head of their queue.
        """
        count = len(self._queues)
        for offset in range(count):
            shard = (self._rotation + offset) % count
            queue = self._queues[shard]
            while queue and queue[0].name not in self.unresolved:
                queue.popleft()
            if queue and queue[0].not_before <= now:
                self._rotation = (shard + 1) % count
                return queue.popleft()
        return None

    def journal_event(self, kind: str, name: str, attempt: int, **fields):
        """Journal one event of ``name``'s attempt; ``fields`` are the
        kind's own keys plus the service's worker tags."""
        shard = self._shard_of.get(name)
        self._journal.append(_event(kind, name, shard, attempt, **fields))

    def done(self, name: str, attempt: int, outcome: dict, **tags) -> bool:
        """Record an outcome.  False when ``name`` is already settled: the
        result is then journaled as ``duplicate`` and dropped."""
        if name not in self.unresolved:
            self.journal_event("duplicate", name, attempt, **tags)
            return False
        self.journal_event("done", name, attempt, outcome=outcome, **tags)
        self.unresolved.discard(name)
        return True

    def died(self, name: str, attempt: int, detail: str, **tags) -> bool:
        """An observed worker death: charge ``name`` a kill, then
        quarantine it at ``max_kills`` (True) or re-queue it after the
        exponential backoff (False)."""
        kills = self._kills[name] = self._kills.get(name, 0) + 1
        if kills >= self._max_kills:
            reason = f"poison pill: killed {kills} workers ({detail})"
            self.journal_event(
                "quarantine", name, attempt, reason=reason, **tags
            )
            self.unresolved.discard(name)
            return True
        delay = self._backoff_seconds * (2 ** (kills - 1))
        self._requeue(name, attempt, delay, reason=detail, death=True, **tags)
        return False

    def lost(self, name: str, attempt: int, reason: str, **tags) -> bool:
        """An attempt nobody saw die: re-queue it at once, charging no
        kill.  False (nothing journaled) when ``name`` is already settled."""
        if name not in self.unresolved:
            return False
        self._requeue(name, attempt, 0.0, reason=reason, death=False, **tags)
        return True

    def _requeue(self, name: str, attempt: int, delay: float, **fields):
        self.journal_event("requeue", name, attempt, delay=delay, **fields)
        shard = self._shard_of[name]
        self._queues[shard].append(
            Job(name, shard, attempt + 1, not_before=time.monotonic() + delay)
        )
