"""Length-prefixed JSON-over-TCP framing for the validation service.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object with a ``type`` field.  The
conversation is strict request/response: the worker (or a ``status``
probe) sends one frame and reads exactly one reply, so a single socket
needs no message ids, and a mutex around the send/recv pair
(:class:`MessageChannel`) lets the worker's heartbeat thread share the
connection with its lease loop.

Message types (worker → coordinator / coordinator → worker):

===============  ==============================================================
``hello``        register ``worker_id``/``host``; reply ``welcome`` carries the
                 budgets, the imprecise-liveness override list, the shared
                 cache directory, the validate-hook reference, and the
                 lease/heartbeat intervals
``lease``        request one work unit; reply ``unit`` (name, ``text``: the
                 LLVM text of the module's globals and that one function,
                 lease id, attempt, shard), ``wait`` (queues backing off —
                 retry after ``seconds``), or ``drain`` (campaign finished,
                 disconnect)
``heartbeat``    renew every lease the worker holds; reply ``ack`` (with
                 ``drain: true`` once the campaign is complete)
``result``       stream one ``TvOutcome`` (journal JSON form) back; reply
                 ``ack`` — ``duplicate: true`` if the unit was already
                 resolved (first write wins)
``worker_death`` report that a *validation subprocess* died (poison-pill
                 accounting); reply ``ack``
``goodbye``      graceful drain: any leases still held are re-queued
                 immediately; reply ``ack``
``status``       reply ``status`` with the rendered campaign status plus
                 per-worker service counters
===============  ==============================================================

Anything malformed — oversized frames, torn frames, non-object payloads —
raises :class:`ProtocolError`; a clean EOF *between* frames reads as
``None`` so connection teardown is distinguishable from corruption.

A socket that produces *nothing* is the remaining failure mode: a
coordinator host that is powered off or partitioned (no RST, no FIN)
leaves a blocking ``recv`` waiting forever.  :func:`connect` therefore
accepts a ``recv_timeout`` applied to the established socket; a reply
that fails to arrive in time raises :class:`ProtocolTimeout` *after
closing the socket* — a timed-out channel may have a half-read frame in
flight, so resuming on it would desynchronise the framing.  Callers
reconnect or give up (the worker does a bounded number of reconnect
attempts before reporting the coordinator lost).
"""

from __future__ import annotations

import json
import socket
import struct
import threading

#: Frame ceiling; a ``unit``'s function text or a ``result``'s outcome is
#: the largest payload and stays far below this.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """Malformed traffic or a connection lost mid-frame."""


class ProtocolTimeout(ProtocolError):
    """No reply within ``recv_timeout``; the channel has been closed.

    Subclasses :class:`ProtocolError` so existing "connection lost"
    handling catches it, while callers that want to *retry on silence
    specifically* (the worker's bounded reconnect loop) can match it.
    """


def parse_address(address: str) -> tuple[str, int]:
    """Split ``host:port`` (the CLI's ``--connect`` form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


def send_message(sock: socket.socket, message: dict) -> None:
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF before any byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(payload.decode("utf-8"))
    except ValueError as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame is not an object with a 'type' field")
    return message


class MessageChannel:
    """Lock-serialized request/response channel over one socket.

    The worker's heartbeat thread and its lease/result loop share the
    connection; the lock keeps each send paired with its own reply.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._lock = threading.Lock()

    def request(self, message: dict) -> dict:
        with self._lock:
            try:
                send_message(self.sock, message)
                reply = recv_message(self.sock)
            except socket.timeout as error:
                # A half-read frame may be in flight; the socket can no
                # longer be trusted to stay frame-aligned.  Close it so
                # the caller's only option is a clean reconnect.
                self.close()
                raise ProtocolTimeout(
                    "no reply from peer within the receive timeout"
                ) from error
        if reply is None:
            raise ProtocolError("peer closed the connection")
        if reply.get("type") == "error":
            raise ProtocolError(
                f"coordinator error: {reply.get('detail', 'unknown')}"
            )
        return reply

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect(
    address: str,
    retries: int = 40,
    backoff_seconds: float = 0.25,
    timeout: float | None = None,
    recv_timeout: float | None = None,
) -> MessageChannel:
    """Dial ``host:port``, retrying while the coordinator comes up.

    ``timeout`` bounds the connection attempt; ``recv_timeout`` stays on
    the established socket and bounds every subsequent reply wait (None
    preserves the historical block-forever behaviour).
    """
    import time

    host, port = parse_address(address)
    last_error: OSError | None = None
    for _ in range(max(1, retries)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(recv_timeout)
            return MessageChannel(sock)
        except OSError as error:
            last_error = error
            time.sleep(backoff_seconds)
    raise ConnectionError(
        f"could not reach coordinator at {address}: {last_error}"
    )
