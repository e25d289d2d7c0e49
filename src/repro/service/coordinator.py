"""The campaign coordinator: owns the corpus, serves work units over TCP.

The coordinator is the only process that touches the campaign directory.
It plans the campaign exactly like the single-host supervisor
(:func:`repro.campaign.supervisor.prepare_campaign` /
:func:`~repro.campaign.supervisor.prepare_resume` — same manifest, same
dedup-class-aware shard plan), then serves work units to
:mod:`repro.service.worker` clients over the length-prefixed JSON
protocol instead of driving a local process pool:

- **Leases, not assignments.**  A granted unit carries a lease that the
  worker must keep renewed by heartbeat.  A worker that vanishes —
  SIGKILL, kernel panic, network partition — simply stops renewing; the
  sweep re-queues each of its in-flight units *exactly once* after lease
  expiry (the lease table pops entries, so a second expiry cannot
  happen), without charging the function a poison-pill kill: a silent
  worker is indistinguishable from a partition, and the journal's rule is
  that only *observed* deaths count.
- **Idempotent results.**  The first ``result`` for a unit wins and is
  journaled as ``done``; anything later — the presumed-dead worker's
  answer surfacing after its unit was re-run elsewhere — is journaled as
  ``duplicate`` and dropped.  Validation is structure-deterministic, so
  duplicates agree with the accepted outcome; dropping them keeps every
  unit accounted exactly once.
- **Observed deaths quarantine.**  A worker client that sees its own
  *validation subprocess* die reports ``worker_death``; those are the
  deaths that feed the poison-pill counter, exactly as in the single-host
  supervisor, so a function that keeps killing workers is quarantined
  after ``max_kills`` observed deaths no matter how many hosts it burned.
- **One journal.**  Every transition goes through the campaign journal
  (events tagged with ``worker``/``host``), so ``repro campaign
  status|resume`` and the deterministic merger work unchanged on a
  service-run directory, and an interrupted multi-worker campaign resumed
  later still renders a report byte-identical to an uninterrupted
  single-host run.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro.campaign.journal import Journal, load_state
from repro.campaign.merge import CampaignReport, build_status, merge_campaign
from repro.campaign.supervisor import (
    CampaignConfig,
    Job,
    PreparedCampaign,
    prepare_campaign,
    prepare_resume,
)
from repro.service.leases import LeaseTable
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    connect,
    recv_message,
    send_message,
)

logger = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    """Network-facing knobs of one coordinator."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick; the bound port is ``Coordinator.address``.
    port: int = 0
    #: lease duration; must exceed a unit's hard validation budget or the
    #: coordinator will re-queue units that are still being worked on.
    lease_seconds: float = 60.0
    #: heartbeat interval advertised to workers (any RPC also renews).
    heartbeat_seconds: float = 5.0
    #: backoff advertised on ``wait`` replies when every queue is empty
    #: or backing off.
    wait_seconds: float = 0.25
    #: completion-poll / lease-sweep interval of the serve loop.
    poll_seconds: float = 0.1
    #: how long the server lingers after completion so workers draining
    #: their last RPCs get a clean ``drain`` instead of a reset.
    drain_grace_seconds: float = 1.0


@dataclass
class WorkerInfo:
    """Per-worker accounting (service status, forensics)."""

    worker_id: str
    host: str
    slots: int = 1
    leased: int = 0
    completed: int = 0
    duplicates: int = 0
    deaths_reported: int = 0
    expired_leases: int = 0
    departed: bool = False
    last_seen: float = field(default=0.0)


class Coordinator:
    """Shared campaign state behind one lock; the TCP layer calls
    :meth:`handle` with decoded messages and sends back the reply, so all
    protocol semantics are unit-testable without sockets."""

    def __init__(
        self,
        prepared: PreparedCampaign,
        journal: Journal,
        service: ServiceConfig | None = None,
    ):
        self.prepared = prepared
        self.service = service or ServiceConfig()
        self._journal = journal
        self._lock = threading.RLock()
        self._leases = LeaseTable(self.service.lease_seconds)
        self._kills = prepared.kills
        self._workers: dict[str, WorkerInfo] = {}
        manifest = prepared.manifest
        self._assignment = {
            name: index
            for index, shard in enumerate(manifest["shard_lists"])
            for name in shard
        }
        self._unresolved = {job.name for job in prepared.jobs}
        self._shard_ids = sorted({job.shard for job in prepared.jobs})
        self._queues: dict[int, deque[Job]] = {
            shard: deque() for shard in self._shard_ids
        }
        for job in prepared.jobs:
            self._queues[job.shard].append(job)
        self._rotation = 0
        self._imprecise = sorted(
            name
            for name, options in prepared.overrides.items()
            if options.imprecise_liveness
        )

    # -- state queries ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        with self._lock:
            return not self._unresolved

    @property
    def outstanding_leases(self) -> int:
        with self._lock:
            return len(self._leases)

    # -- scheduling ------------------------------------------------------------

    def _next_ready(self, now: float) -> Job | None:
        """Round-robin over shard queues, honouring retry backoff and
        dropping entries resolved while they waited (late duplicate
        acceptance can settle a queued retry)."""
        for offset in range(len(self._shard_ids)):
            shard = self._shard_ids[
                (self._rotation + offset) % len(self._shard_ids)
            ]
            queue = self._queues[shard]
            while queue and queue[0].name not in self._unresolved:
                queue.popleft()  # stale: settled while queued
            if (
                queue
                and queue[0].not_before <= now
                and self._leases.lease_of(queue[0].name) is None
            ):
                self._rotation = (
                    self._rotation + offset + 1
                ) % len(self._shard_ids)
                return queue.popleft()
        return None

    def _requeue(self, name: str, attempt: int, delay: float) -> None:
        job = Job(
            name=name,
            shard=self._assignment[name],
            attempt=attempt,
            not_before=time.monotonic() + delay,
        )
        self._queues.setdefault(job.shard, deque()).append(job)
        if job.shard not in self._shard_ids:
            self._shard_ids = sorted(self._queues)

    def sweep(self, now: float | None = None) -> list[str]:
        """Re-queue units whose leases expired; returns their names."""
        now = time.monotonic() if now is None else now
        requeued = []
        with self._lock:
            for lease in self._leases.expire(now):
                info = self._workers.get(lease.worker_id)
                if info is not None:
                    info.expired_leases += 1
                if lease.unit not in self._unresolved:
                    continue
                self._journal_event(
                    "requeue",
                    lease.unit,
                    attempt=lease.attempt,
                    reason=(
                        f"lease expired ({lease.lease_id},"
                        f" worker {lease.worker_id} presumed dead)"
                    ),
                    delay=0.0,
                    death=False,
                    worker=lease.worker_id,
                )
                self._requeue(lease.unit, lease.attempt + 1, 0.0)
                requeued.append(lease.unit)
                logger.warning(
                    "lease %s on %r expired (worker %s); re-queued",
                    lease.lease_id,
                    lease.unit,
                    lease.worker_id,
                )
        return requeued

    # -- journal helpers -------------------------------------------------------

    def _journal_event(self, kind: str, name: str, **extra) -> None:
        event = {
            "event": kind,
            "fn": name,
            "shard": self._assignment.get(name),
            **extra,
        }
        self._journal.append(event)

    # -- message dispatch ------------------------------------------------------

    def handle(self, message: dict, peer_host: str = "?") -> dict:
        kind = message.get("type")
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            return {"type": "error", "detail": f"unknown message type {kind!r}"}
        with self._lock:
            return handler(message, peer_host)

    def _touch(self, message: dict, peer_host: str) -> WorkerInfo:
        worker_id = message.get("worker_id", "?")
        info = self._workers.get(worker_id)
        if info is None:
            info = self._workers[worker_id] = WorkerInfo(
                worker_id=worker_id, host=message.get("host", peer_host)
            )
        info.last_seen = time.monotonic()
        return info

    def _on_hello(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.slots = int(message.get("slots", 1))
        info.departed = False
        manifest = self.prepared.manifest
        logger.info(
            "worker %s (%s, %d slots) joined", info.worker_id, info.host,
            info.slots,
        )
        return {
            "type": "welcome",
            "worker_id": info.worker_id,
            "module_text": self.prepared.module_text,
            "wall_budget": manifest["wall_budget"],
            "incremental": manifest.get("incremental", True),
            "portfolio": self.prepared.base.keq.portfolio,
            "target": manifest.get("target", "vx86"),
            "imprecise": self._imprecise,
            "cache_dir": manifest["cache_dir"],
            "validate": manifest.get("validate"),
            "lease_seconds": self.service.lease_seconds,
            "heartbeat_seconds": self.service.heartbeat_seconds,
            "wait_seconds": self.service.wait_seconds,
        }

    def _on_lease(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        now = time.monotonic()
        self._leases.renew_worker(info.worker_id, now)
        if not self._unresolved:
            return {"type": "drain"}
        job = self._next_ready(now)
        if job is None:
            return {"type": "wait", "seconds": self.service.wait_seconds}
        lease = self._leases.grant(job.name, info.worker_id, job.attempt, now)
        info.leased += 1
        self._journal_event(
            "start",
            job.name,
            attempt=job.attempt,
            worker=info.worker_id,
            host=info.host,
            lease=lease.lease_id,
        )
        return {
            "type": "unit",
            "unit": job.name,
            "lease_id": lease.lease_id,
            "attempt": job.attempt,
            "shard": job.shard,
        }

    def _on_heartbeat(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        renewed = self._leases.renew_worker(info.worker_id, time.monotonic())
        return {
            "type": "ack",
            "renewed": renewed,
            "drain": not self._unresolved,
        }

    def _on_result(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        unit = message.get("unit", "")
        lease = self._leases.release(message.get("lease_id", ""))
        attempt = lease.attempt if lease else message.get("attempt", 0)
        if unit not in self._unresolved:
            # First write won already: the unit was re-run elsewhere after
            # this worker's lease expired.  Log, tally, drop.
            info.duplicates += 1
            self._journal_event(
                "duplicate",
                unit,
                attempt=attempt,
                worker=info.worker_id,
                host=info.host,
            )
            logger.info(
                "duplicate result for %r from %s dropped (first write wins)",
                unit,
                info.worker_id,
            )
            return {"type": "ack", "duplicate": True}
        self._journal_event(
            "done",
            unit,
            attempt=attempt,
            outcome=message.get("outcome"),
            worker=info.worker_id,
            host=info.host,
        )
        self._unresolved.discard(unit)
        info.completed += 1
        return {"type": "ack", "duplicate": False}

    def _on_worker_death(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.deaths_reported += 1
        unit = message.get("unit", "")
        detail = message.get("detail", "validation subprocess died")
        lease = self._leases.release(message.get("lease_id", ""))
        if unit not in self._unresolved:
            return {"type": "ack", "stale": True}
        attempt = lease.attempt if lease else message.get("attempt", 0)
        self._kills[unit] = self._kills.get(unit, 0) + 1
        max_kills = self.prepared.max_kills
        if self._kills[unit] >= max_kills:
            self._journal_event(
                "quarantine",
                unit,
                attempt=attempt,
                reason=(
                    f"poison pill: killed {self._kills[unit]} workers"
                    f" ({detail})"
                ),
                worker=info.worker_id,
                host=info.host,
            )
            self._unresolved.discard(unit)
            return {"type": "ack", "quarantined": True}
        delay = self.prepared.backoff_seconds * (2 ** (self._kills[unit] - 1))
        self._journal_event(
            "requeue",
            unit,
            attempt=attempt,
            reason=detail,
            delay=delay,
            death=True,
            worker=info.worker_id,
            host=info.host,
        )
        self._requeue(unit, attempt + 1, delay)
        return {"type": "ack", "quarantined": False}

    def _on_goodbye(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.departed = True
        for lease in self._leases.release_worker(info.worker_id):
            if lease.unit not in self._unresolved:
                continue
            self._journal_event(
                "requeue",
                lease.unit,
                attempt=lease.attempt,
                reason=f"worker {info.worker_id} drained mid-lease",
                delay=0.0,
                death=False,
                worker=info.worker_id,
            )
            self._requeue(lease.unit, lease.attempt + 1, 0.0)
        logger.info("worker %s departed", info.worker_id)
        return {"type": "ack"}

    def _on_status(self, message: dict, peer_host: str) -> dict:
        status = build_status(
            self.prepared.manifest, load_state(self.prepared.directory)
        )
        lines = [status.render(), self._render_service_lines()]
        return {
            "type": "status",
            "complete": status.complete,
            "unresolved": len(self._unresolved),
            "leases": len(self._leases),
            "workers": len(self._workers),
            "render": "\n".join(lines),
        }

    def _render_service_lines(self) -> str:
        lines = [
            f"service: workers={len(self._workers)}"
            f" leases-outstanding={len(self._leases)}"
            f" leases-granted={self._leases.granted}"
            f" leases-expired={self._leases.expired}"
        ]
        for worker_id in sorted(self._workers):
            info = self._workers[worker_id]
            state = "departed" if info.departed else "active"
            lines.append(
                f"worker {worker_id} ({info.host}, {state}):"
                f" leased={info.leased} completed={info.completed}"
                f" duplicates={info.duplicates}"
                f" deaths-reported={info.deaths_reported}"
                f" leases-expired={info.expired_leases}"
            )
        return "\n".join(lines)


class _ServiceServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, coordinator: Coordinator):
        super().__init__(address, _ConnectionHandler)
        self.coordinator = coordinator


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One worker connection: decode frames, dispatch, reply."""

    def handle(self):
        sock = self.request
        while True:
            try:
                message = recv_message(sock)
            except ProtocolError as error:
                logger.warning(
                    "dropping connection from %s: %s",
                    self.client_address[0],
                    error,
                )
                return
            if message is None:
                return
            try:
                reply = self.server.coordinator.handle(
                    message, self.client_address[0]
                )
            except Exception:
                detail = traceback.format_exc(limit=8)
                logger.error("handler failure: %s", detail)
                reply = {"type": "error", "detail": detail}
            try:
                send_message(sock, reply)
            except OSError:
                return


def serve_campaign(
    directory: str,
    config: CampaignConfig | None = None,
    service: ServiceConfig | None = None,
    corpus=None,
    on_bound=None,
) -> CampaignReport:
    """Coordinate a campaign over TCP and block until it completes.

    Fresh directories start a new campaign; a directory holding a
    manifest is *resumed* — orphaned in-flight units are re-queued exactly
    once (via the same :func:`prepare_resume` path the single-host
    supervisor uses) before serving begins.  ``on_bound`` (if given) is
    called with the bound ``(host, port)`` once the server is listening —
    tests and scripts use it to learn an OS-assigned port.

    The coordinator itself needs no drain protocol: every transition is
    journaled before it is acted on, so killing the coordinator at any
    point leaves a directory that ``serve_campaign`` or ``repro campaign
    resume`` completes to the byte-identical report.
    """
    config = config or CampaignConfig()
    service = service or ServiceConfig()
    import os

    from repro.campaign.journal import manifest_path

    recovery: list[dict] = []
    if os.path.exists(manifest_path(directory)):
        prepared, recovery = prepare_resume(
            directory, corpus=corpus, validate=config.validate
        )
    else:
        prepared = prepare_campaign(directory, config, corpus)
    with Journal(directory) as journal:
        for event in recovery:
            journal.append(event)
        coordinator = Coordinator(prepared, journal, service)
        server = _ServiceServer((service.host, service.port), coordinator)
        bound = server.server_address
        if on_bound is not None:
            on_bound(bound)
        logger.info("coordinator listening on %s:%d", bound[0], bound[1])
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": service.poll_seconds},
            daemon=True,
        )
        thread.start()
        try:
            while not coordinator.finished:
                coordinator.sweep()
                time.sleep(service.poll_seconds)
            # Linger briefly so workers polling for leases get a clean
            # ``drain`` reply instead of a connection reset.
            deadline = time.monotonic() + service.drain_grace_seconds
            while time.monotonic() < deadline:
                time.sleep(service.poll_seconds)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2.0)
    return merge_campaign(prepared.manifest, load_state(directory))


def query_status(address: str, timeout: float = 5.0) -> dict:
    """Ask a live coordinator for its status (the ``repro service
    status`` command)."""
    channel = connect(address, retries=1, timeout=timeout, recv_timeout=timeout)
    try:
        return channel.request({"type": "status"})
    finally:
        channel.close()
