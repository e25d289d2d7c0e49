"""Lease bookkeeping: at-most-one active lease per unit, expiry fires once.

A *lease* is the coordinator's record that one worker is validating one
work unit, valid until ``expires_at``.  Heartbeats renew every lease a
worker holds; a worker that stops heartbeating — SIGKILLed, partitioned,
powered off — lets its leases expire, and :meth:`LeaseTable.expire` hands
each expired lease back exactly once (the entry is popped), which is what
makes the coordinator's "re-queue exactly once after lease expiry"
guarantee mechanical rather than careful.

The table is deliberately not thread-safe: the coordinator serialises all
mutation under its own lock, and keeping the invariants here synchronous
makes them directly unit-testable with injected clocks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Lease:
    """One outstanding work-unit grant."""

    lease_id: str
    unit: str
    worker_id: str
    attempt: int
    expires_at: float


class LeaseTable:
    """All outstanding leases, keyed by lease id and by unit."""

    def __init__(self, duration_seconds: float):
        if duration_seconds <= 0:
            raise ValueError("lease duration must be positive")
        self.duration_seconds = duration_seconds
        self._by_id: dict[str, Lease] = {}
        self._unit_to_id: dict[str, str] = {}
        self._sequence = 0
        #: lifetime counters (service status reporting).
        self.granted = 0
        self.released = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def grant(self, unit: str, worker_id: str, attempt: int, now: float) -> Lease:
        """Lease ``unit`` to ``worker_id``; a unit can hold one lease."""
        if unit in self._unit_to_id:
            raise ValueError(f"unit {unit!r} is already leased")
        self._sequence += 1
        lease = Lease(
            lease_id=f"L{self._sequence:06d}",
            unit=unit,
            worker_id=worker_id,
            attempt=attempt,
            expires_at=now + self.duration_seconds,
        )
        self._by_id[lease.lease_id] = lease
        self._unit_to_id[unit] = lease.lease_id
        self.granted += 1
        return lease

    def renew_worker(self, worker_id: str, now: float) -> int:
        """Heartbeat: push out every lease the worker holds; returns how
        many were renewed."""
        renewed = 0
        for lease in self._by_id.values():
            if lease.worker_id == worker_id:
                lease.expires_at = now + self.duration_seconds
                renewed += 1
        return renewed

    def release(self, lease_id: str) -> Lease | None:
        """Settle a lease (result or reported death); None if it already
        expired or never existed — the caller treats that as stale."""
        lease = self._by_id.pop(lease_id, None)
        if lease is None:
            return None
        del self._unit_to_id[lease.unit]
        self.released += 1
        return lease

    def release_worker(self, worker_id: str) -> list[Lease]:
        """Settle every lease of a departing worker (graceful goodbye
        with units still in flight).  Returned in ``lease_id`` order —
        the same order :meth:`outstanding` reports — so the coordinator's
        re-queue and journal line order never depend on dict insertion
        history."""
        mine = sorted(
            (
                lease
                for lease in self._by_id.values()
                if lease.worker_id == worker_id
            ),
            key=lambda lease: lease.lease_id,
        )
        for lease in mine:
            del self._by_id[lease.lease_id]
            del self._unit_to_id[lease.unit]
            self.released += 1
        return mine

    def expire(self, now: float) -> list[Lease]:
        """Pop and return every lease past its deadline.

        Each lease can be returned by exactly one ``expire`` call —
        popping is what makes the re-queue exactly-once.  Returned in
        ``lease_id`` order (grant order), matching :meth:`outstanding`,
        so concurrent-expiry re-queue order is deterministic.
        """
        dead = sorted(
            (
                lease
                for lease in self._by_id.values()
                if lease.expires_at <= now
            ),
            key=lambda lease: lease.lease_id,
        )
        for lease in dead:
            del self._by_id[lease.lease_id]
            del self._unit_to_id[lease.unit]
            self.expired += 1
        return dead

    def lease_of(self, unit: str) -> Lease | None:
        lease_id = self._unit_to_id.get(unit)
        return self._by_id.get(lease_id) if lease_id else None

    def outstanding(self) -> list[Lease]:
        return sorted(self._by_id.values(), key=lambda l: l.lease_id)
