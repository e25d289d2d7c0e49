"""The worker client: lease units from a coordinator, validate, stream back.

A worker client is the distributed counterpart of the supervisor's local
pool slot.  It dials the coordinator, registers with ``hello``, and runs
its units in the same :class:`repro.tv.parallel.WorkerPool` as the
single-host campaign (each ``unit`` reply carries its function's text,
which the pool hands to a subprocess; hard deadline kill), so a unit
validated here is structure-deterministic and byte-identical to one
validated anywhere else.  This module adds only the messaging: one lease
per free slot, a ``result`` per outcome, a ``worker_death`` per observed
death.

Liveness is layered:

- a **heartbeat thread** renews every held lease on the advertised
  interval (the channel is lock-serialized, so it shares the socket with
  the lease/result loop);
- a **validation subprocess** that dies mid-unit is reported as
  ``worker_death`` (feeding the coordinator's poison-pill counter); one
  that dies before it receives its unit is replaced by the pool and the
  unit runs on the fresh one, unreported;
- a subprocess that *hangs* past its hard budget is killed locally and its
  unit reported as a ``timeout`` outcome — deterministic failures are
  terminal, exactly as in the single-host driver;
- the client itself dying takes no protocol action at all — that is the
  case the coordinator's lease expiry exists for.

``SIGTERM`` (or :meth:`ServiceWorker.request_drain`) triggers a graceful
drain: stop leasing, finish and report in-flight units, say ``goodbye``,
exit cleanly.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import socket as socket_module
import threading
from dataclasses import dataclass

from repro.campaign.journal import outcome_to_json
from repro.campaign.supervisor import _base_options, _resolve_validate
from repro.service.protocol import (
    MessageChannel,
    ProtocolError,
    ProtocolTimeout,
    connect,
)
from repro.tv.driver import TvOutcome
from repro.tv.parallel import Worker, WorkerPool, hard_budget

logger = logging.getLogger(__name__)


@dataclass
class WorkerConfig:
    """One worker client's knobs (the ``repro service worker`` flags)."""

    connect: str
    worker_id: str | None = None
    #: local validation subprocesses (slots); clamped to the available
    #: CPUs for real CPU-bound validation, kept as requested for injected
    #: hooks.
    jobs: int = 1
    #: replaces the validate hook advertised by the coordinator
    #: (fault-injection harnesses arm this locally).
    validate: object | None = None
    #: overrides the coordinator-advertised shared cache directory — a
    #: worker on another host without the shared filesystem points this
    #: at local scratch (or "" to disable persistence).
    cache_dir: str | None = None
    connect_retries: int = 40
    #: seconds to wait for any coordinator reply before declaring the
    #: connection silent (a powered-off or partitioned coordinator sends
    #: neither data nor FIN, so a blocking recv would wait forever).
    #: None restores the historical block-forever behaviour.
    recv_timeout: float | None = 60.0
    #: reconnect-and-resend attempts after a silent timeout before the
    #: coordinator is reported lost and the worker exits nonzero.
    recv_retries: int = 2

    def resolved_worker_id(self) -> str:
        if self.worker_id:
            return self.worker_id
        return f"{socket_module.gethostname()}-{os.getpid()}"


@dataclass
class WorkerSummary:
    """What one worker client did (returned by :meth:`ServiceWorker.run`)."""

    worker_id: str
    leased: int = 0
    completed: int = 0
    timeouts: int = 0
    deaths_reported: int = 0
    duplicates: int = 0
    #: True when the run ended on coordinator drain or graceful SIGTERM;
    #: False when the coordinator connection was lost.
    drained_clean: bool = False


@dataclass
class _Unit:
    """One leased unit (the pool sends ``name`` and the unit's text to a
    subprocess)."""

    name: str
    lease_id: str
    attempt: int
    shard: int


class ServiceWorker:
    """One worker client (see module docstring for the protocol dance)."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.worker_id = config.resolved_worker_id()
        self._drain = threading.Event()  # SIGTERM / request_drain()
        self._server_drain = threading.Event()  # coordinator said drain
        self._lost = threading.Event()  # connection gone
        self._channel: MessageChannel | None = None
        self._reconnect_lock = threading.Lock()

    def request_drain(self) -> None:
        """Finish in-flight units, report them, say goodbye, stop."""
        self._drain.set()

    # -- RPC helpers -----------------------------------------------------------

    def _request(self, message: dict) -> dict | None:
        """One RPC; connection loss sets ``_lost`` instead of raising so
        the drain/death paths degrade uniformly.

        A *silent* coordinator (recv timeout: no bytes, no FIN) gets a
        bounded number of reconnect-and-resend attempts — every message
        type is safe to re-issue (results are first-write-wins at the
        coordinator, leases and heartbeats are idempotent per worker) —
        before the coordinator is reported lost.
        """
        attempts = max(0, self.config.recv_retries) + 1
        for attempt in range(attempts):
            channel = self._channel
            if channel is None or self._lost.is_set():
                return None
            try:
                return channel.request(message)
            except ProtocolTimeout as error:
                logger.warning(
                    "coordinator silent (attempt %d/%d): %s",
                    attempt + 1,
                    attempts,
                    error,
                )
                if attempt + 1 == attempts or not self._reconnect(channel):
                    break
            except (ProtocolError, OSError) as error:
                logger.warning("coordinator connection lost: %s", error)
                self._lost.set()
                return None
        logger.error(
            "coordinator lost: no reply from %s after %d attempts",
            self.config.connect,
            attempts,
        )
        self._lost.set()
        return None

    def _reconnect(self, stale: MessageChannel) -> bool:
        """Replace a timed-out channel; False when the redial fails.

        Lock-guarded so the heartbeat thread and the lease/result loop
        don't both redial after the same silence; the loser of the race
        just reuses the winner's fresh channel.
        """
        with self._reconnect_lock:
            if self._channel is not stale:
                return True  # another thread already replaced it
            stale.close()
            try:
                self._channel = connect(
                    self.config.connect,
                    retries=1,
                    recv_timeout=self.config.recv_timeout,
                )
            except ConnectionError:
                return False
            return True

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._lost.is_set():
            if self._drain.wait(timeout=interval):
                return  # draining: the main loop owns the goodbye
            reply = self._request(
                {"type": "heartbeat", "worker_id": self.worker_id}
            )
            if reply is None:
                return
            if reply.get("drain"):
                self._server_drain.set()

    # -- main loop -------------------------------------------------------------

    def run(self) -> WorkerSummary:
        summary = WorkerSummary(worker_id=self.worker_id)
        config = self.config
        self._channel = connect(
            config.connect,
            retries=config.connect_retries,
            recv_timeout=config.recv_timeout,
        )
        try:
            welcome = self._channel.request(
                {
                    "type": "hello",
                    "worker_id": self.worker_id,
                    "host": socket_module.gethostname(),
                    "slots": config.jobs,
                }
            )
        except (ProtocolError, OSError):
            self._channel.close()
            raise
        base = _base_options(
            welcome.get("wall_budget"),
            welcome.get("incremental", True),
            welcome.get("target", "vx86"),
        )
        overrides = {
            name: dataclasses.replace(base, imprecise_liveness=True)
            for name in welcome.get("imprecise", [])
        }
        validate = config.validate
        if validate is None:
            validate = _resolve_validate(welcome.get("validate"))
        cache_dir = welcome.get("cache_dir")
        if config.cache_dir is not None:
            cache_dir = config.cache_dir or None
        heartbeat_seconds = float(welcome.get("heartbeat_seconds", 5.0))
        wait_seconds = float(welcome.get("wait_seconds", 0.25))

        pool = WorkerPool(
            lambda: Worker(base, overrides, cache_dir, validate),
            config.jobs,
            clamp=validate is None,
        )

        def send_result(unit: _Unit, outcome: TvOutcome) -> None:
            reply = self._request(
                {
                    "type": "result",
                    "worker_id": self.worker_id,
                    "unit": unit.name,
                    "lease_id": unit.lease_id,
                    "attempt": unit.attempt,
                    "shard": unit.shard,
                    "outcome": outcome_to_json(outcome),
                }
            )
            if reply is not None:
                summary.completed += 1
                if reply.get("duplicate"):
                    summary.duplicates += 1

        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(heartbeat_seconds,),
            daemon=True,
        )
        heartbeat.start()

        try:
            while not self._lost.is_set():
                stop_leasing = (
                    self._drain.is_set() or self._server_drain.is_set()
                )
                if stop_leasing and not pool.busy:
                    summary.drained_clean = True
                    break
                waited = False
                while not stop_leasing and pool.free:
                    reply = self._request(
                        {"type": "lease", "worker_id": self.worker_id}
                    )
                    if reply is None:
                        break
                    if reply["type"] == "drain":
                        self._server_drain.set()
                        break
                    if reply["type"] == "wait":
                        waited = True
                        break
                    unit = _Unit(
                        name=reply["unit"],
                        lease_id=reply["lease_id"],
                        attempt=reply["attempt"],
                        shard=reply["shard"],
                    )
                    summary.leased += 1
                    pool.assign(
                        unit,
                        reply["text"],
                        hard_budget(overrides.get(unit.name, base)),
                    )
                # With nothing running, a "wait" reply paces the next lease.
                timeout = wait_seconds if waited and not pool.busy else None
                for event in pool.poll(timeout):
                    if event.kind == "died":
                        self._report_death(
                            summary, event.task, event.outcome.detail
                        )
                        continue
                    if event.kind == "overdue":
                        summary.timeouts += 1
                    send_result(event.task, event.outcome)
        finally:
            self._drain.set()  # stops the heartbeat thread
            pool.close()
            if not self._lost.is_set():
                self._request({"type": "goodbye", "worker_id": self.worker_id})
            if self._channel is not None:
                self._channel.close()
            heartbeat.join(timeout=2.0)
        return summary

    def _report_death(
        self, summary: WorkerSummary, unit: _Unit, detail: str
    ) -> None:
        summary.deaths_reported += 1
        self._request(
            {
                "type": "worker_death",
                "worker_id": self.worker_id,
                "unit": unit.name,
                "lease_id": unit.lease_id,
                "attempt": unit.attempt,
                "detail": detail,
            }
        )


def run_worker(config: WorkerConfig) -> WorkerSummary:
    """Convenience wrapper: build, run, return the summary."""
    return ServiceWorker(config).run()
