"""The campaign coordinator: owns the corpus, serves work units over TCP.

The coordinator is the only process that touches the campaign directory.
It plans the campaign exactly like the single-host supervisor
(:func:`repro.campaign.supervisor.prepare_campaign` /
:func:`~repro.campaign.supervisor.prepare_resume`) and schedules it with
the same :class:`~repro.campaign.schedule.Scheduler`, whose module
documents the failure handling policy (shard rotation, backoff,
poison-pill quarantine, first write wins).  It adds the transport: units
go to :mod:`repro.service.worker` clients over the length-prefixed JSON
protocol instead of to a local process pool.

- **Leases, not assignments.**  A granted unit carries a lease that the
  worker must keep renewed by heartbeat.  A worker that vanishes —
  SIGKILL, kernel panic, network partition — simply stops renewing; the
  sweep re-queues each of its in-flight units *exactly once* after lease
  expiry (the lease table pops entries, so a second expiry cannot
  happen), as an attempt nobody saw die.
- **Stale reports.**  A ``result`` for a settled unit is a duplicate.  A
  ``worker_death`` — a validation subprocess the client saw die — counts
  toward ``max_kills`` however many hosts the function burned, unless
  its lease is no longer held (it expired, and the sweep already
  re-queued the unit) or the unit is settled: then it is stale,
  acknowledged but neither journaled nor charged.  A unit is thus only
  ever queued, leased or settled, one at a time.
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
from dataclasses import dataclass

from repro.campaign.journal import Journal, load_state
from repro.campaign.merge import CampaignReport, build_status, merge_campaign
from repro.campaign.schedule import Scheduler
from repro.campaign.supervisor import (
    CampaignConfig,
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
        self._scheduler = Scheduler(prepared, journal)
        self._lock = threading.RLock()
        self._leases = LeaseTable(self.service.lease_seconds)
        self._workers: dict[str, WorkerInfo] = {}
        self._imprecise = sorted(
            name
            for name, options in prepared.overrides.items()
            if options.imprecise_liveness
        )

    # -- state queries ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._scheduler.finished

    # -- lease expiry ----------------------------------------------------------

    def sweep(self, now: float | None = None) -> list[str]:
        """Re-queue units whose leases expired; returns their names."""
        now = time.monotonic() if now is None else now
        requeued = []
        with self._lock:
            for lease in self._leases.expire(now):
                info = self._workers.get(lease.worker_id)
                if info is not None:
                    info.expired_leases += 1
                if self._scheduler.lost(
                    lease.unit,
                    lease.attempt,
                    f"lease expired ({lease.lease_id},"
                    f" worker {lease.worker_id} presumed dead)",
                    worker=lease.worker_id,
                ):
                    requeued.append(lease.unit)
                    logger.warning(
                        "lease %s on %r expired (worker %s); re-queued",
                        lease.lease_id,
                        lease.unit,
                        lease.worker_id,
                    )
        return requeued

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
            "wall_budget": manifest["wall_budget"],
            "incremental": manifest.get("incremental", True),
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
        if self._scheduler.finished:
            return {"type": "drain"}
        job = self._scheduler.next_ready(now)
        if job is None:
            return {"type": "wait", "seconds": self.service.wait_seconds}
        lease = self._leases.grant(job.name, info.worker_id, job.attempt, now)
        info.leased += 1
        self._scheduler.journal_event(
            "start",
            job.name,
            job.attempt,
            worker=info.worker_id,
            host=info.host,
            lease=lease.lease_id,
        )
        return {
            "type": "unit",
            "unit": job.name,
            "text": self.prepared.texts[job.name],
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
            "drain": self._scheduler.finished,
        }

    def _on_result(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        unit = message.get("unit", "")
        lease = self._leases.release(message.get("lease_id", ""))
        attempt = lease.attempt if lease else message.get("attempt", 0)
        if not self._scheduler.done(
            unit,
            attempt,
            message.get("outcome"),
            worker=info.worker_id,
            host=info.host,
        ):
            # First write won already: the unit was re-run elsewhere after
            # this worker's lease expired.  Log, tally, drop.
            info.duplicates += 1
            logger.info(
                "duplicate result for %r from %s dropped (first write wins)",
                unit,
                info.worker_id,
            )
            return {"type": "ack", "duplicate": True}
        info.completed += 1
        return {"type": "ack", "duplicate": False}

    def _on_worker_death(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.deaths_reported += 1
        unit = message.get("unit", "")
        lease = self._leases.release(message.get("lease_id", ""))
        if lease is None or unit not in self._scheduler.unresolved:
            # The lease expired (the sweep re-queued the attempt already)
            # or the unit is settled: nothing left to charge.
            return {"type": "ack", "stale": True}
        quarantined = self._scheduler.died(
            unit,
            lease.attempt,
            message.get("detail", "validation subprocess died"),
            worker=info.worker_id,
            host=info.host,
        )
        return {"type": "ack", "quarantined": quarantined}

    def _on_goodbye(self, message: dict, peer_host: str) -> dict:
        info = self._touch(message, peer_host)
        info.departed = True
        for lease in self._leases.release_worker(info.worker_id):
            self._scheduler.lost(
                lease.unit,
                lease.attempt,
                f"worker {info.worker_id} drained mid-lease",
                worker=info.worker_id,
            )
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
            "unresolved": len(self._scheduler.unresolved),
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
