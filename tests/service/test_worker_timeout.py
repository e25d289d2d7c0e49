"""A coordinator that freezes (no bytes, no FIN) must not hang workers.

The failure mode: the coordinator host powers off or is partitioned after
the TCP handshake — the kernel keeps the connection "established", no RST
arrives, and a worker blocking in ``recv`` with no timeout waits forever
instead of draining.  The fix is a configurable receive timeout plus a
bounded reconnect-and-resend retry; when the retries are exhausted the
worker reports ``coordinator lost`` and exits nonzero.
"""

import logging
import socket
import subprocess
import sys
import threading
from pathlib import Path

from repro.service import ServiceWorker, WorkerConfig
from repro.service.protocol import recv_message, send_message

REPO_ROOT = Path(__file__).resolve().parents[2]


class FrozenCoordinator:
    """Replies to ``hello`` with a valid welcome, then goes silent.

    Connections stay open and incoming frames are read and dropped — the
    exact symptom of a partitioned-but-established TCP peer.  Reconnects
    are accepted (and equally ignored), so the worker's bounded
    reconnect-and-resend retry is genuinely exercised.
    """

    def __init__(self):
        self.server = socket.socket()
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(8)
        host, port = self.server.getsockname()
        self.address = f"{host}:{port}"
        self.connections = 0
        self._threads = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )

    def __enter__(self):
        self._accept_thread.start()
        return self

    def __exit__(self, *exc_info):
        try:
            self.server.close()
        except OSError:
            pass

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self.server.accept()
            except OSError:
                return
            self.connections += 1
            thread = threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve(self, conn):
        try:
            while True:
                message = recv_message(conn)
                if message is None:
                    return
                if message.get("type") == "hello":
                    send_message(
                        conn,
                        {
                            "type": "welcome",
                            "heartbeat_seconds": 60.0,
                            "wait_seconds": 0.05,
                        },
                    )
                # Any other message: read, drop, never reply.
        except Exception:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass


class TestFrozenCoordinator:
    def test_worker_reports_coordinator_lost_and_stops(self, caplog):
        with FrozenCoordinator() as coordinator:
            worker = ServiceWorker(
                WorkerConfig(
                    connect=coordinator.address,
                    worker_id="w-frozen",
                    jobs=1,
                    recv_timeout=0.2,
                    recv_retries=1,
                )
            )
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                summary = worker.run()
            # Not a drain: the coordinator was lost.
            assert summary.drained_clean is False
            assert summary.leased == 0
            # Bounded retry: the initial dial plus one reconnect.
            assert coordinator.connections == 2
        assert any(
            "coordinator lost" in record.message for record in caplog.records
        )
        assert any(
            "coordinator silent" in record.message
            for record in caplog.records
        )

    def test_cli_worker_exits_nonzero(self):
        with FrozenCoordinator() as coordinator:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "service",
                    "worker",
                    "--connect",
                    coordinator.address,
                    "--worker-id",
                    "w-cli",
                    "--recv-timeout",
                    "0.2",
                    "--recv-retries",
                    "1",
                ],
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
                timeout=120,
            )
        assert proc.returncode == 1, proc.stderr
        assert "drained-clean=False" in proc.stdout + proc.stderr
