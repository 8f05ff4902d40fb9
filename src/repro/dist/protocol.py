"""Wire protocol of the distributed evaluation service.

Every message is one frame::

    !II header          8 bytes: (header length, payload length)
    header              UTF-8 JSON dict — message type + small fields
    payload             optional pickle bytes — programs, platforms, metrics

The JSON header keeps the control plane inspectable (a packet capture
reads as ``{"type": "job", "job": 17}``), while the payload carries the
arbitrary Python objects evaluation jobs need (platforms, generation
options, knob configurations) through the same :mod:`pickle` boundary the
process-pool backend already relies on.  Frames are self-delimiting, so
one persistent connection carries the whole worker conversation.

Message types
-------------

worker → coordinator:
    ``hello``   announce (``worker`` name, ``proto`` version, heartbeat
                interval, optional ``role``); first frame on a
                connection.  ``role: "observer"`` marks a monitoring
                client (``repro.cli status``): it is excluded from the
                worker count, job dispatch and heartbeat eviction.
    ``request`` ask for a job; blocks until the coordinator has one.
    ``result``  finished job (``job`` id) + pickled metrics payload.
    ``error``   job raised (``job`` id, ``error`` traceback text).
    ``ping``    heartbeat; proves liveness mid-job.
    ``status``  metrics snapshot, piggybacked on the heartbeat cadence:
                ``jobs_executed`` plus ``metrics``, a JSON
                :meth:`repro.obs.MetricsSnapshot.to_dict` —
                counters/gauges/timers this worker has recorded.  The
                coordinator keeps only the latest per connection.

client ↔ coordinator (observers):
    ``status_request`` ask for the cluster status.
    ``status_reply``   answer: ``report`` with per-worker rows (name,
                       leases held, jobs done, seconds since the last
                       frame, latest ``status`` metrics), queue depths,
                       per-session rows, the coordinator's lifetime
                       counters, and the merged cluster-wide metrics
                       snapshot.

client → coordinator (sessions):
    ``submit``       enqueue one job in this client's session (``job``
                     is the client-chosen tag) + pickled ``(fn, item)``.
    ``cancel``       drop queued jobs (``jobs`` lists tags, or null for
                     every queued job of the session).  Leased jobs run
                     out their lease and their results are dropped.
    ``prefetch``     push a :class:`~repro.sim.artifact.TraceArtifact`
                     (``fingerprint``, ``instructions`` + pickled
                     artifact) for the coordinator to fan out to every
                     worker — current and future — before it is needed.

coordinator → client (sessions):
    ``batch_result`` one resolved job: ``job`` tag, ``status``
                     (``"ok"`` + pickled payload, or ``"error"`` +
                     ``error`` text).  Pushed the moment the job
                     resolves; the coordinator retains nothing.

admission (any peer):
    ``auth_challenge`` first frame after accept, only when the
                       coordinator holds a shared secret: a ``nonce``
                       the peer must fold into its ``hello``'s ``auth``
                       field (HMAC-SHA256 of the nonce under the secret).
    ``reject``         the first frame was not a ``hello`` announcing
                       :data:`PROTOCOL_VERSION`, or it carried a bad
                       digest; ``error`` says which.  The coordinator
                       closes after this.

coordinator → worker:
    ``job``      a leased job (``job`` id) + pickled ``(fn, item)``.
    ``pong``     heartbeat reply; proves the coordinator is alive.
    ``shutdown`` drain and disconnect.
    ``prefetch`` a pushed trace artifact (same shape as the client
                 frame); the worker stores it before its next job.

Versioning
----------

``hello`` carries ``proto``, which must equal :data:`PROTOCOL_VERSION`:
the coordinator answers any other version — or a missing one — with
``reject`` and hangs up.  Every peer ships from this tree, so there is
no compatibility mode to negotiate down to.  Within a version the
protocol stays *additive*: a receiver ignores frame types it does not
know.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import pickle
import secrets
import select
import socket
import struct
from typing import Any

#: Wire protocol generation every ``hello`` must announce; the
#: coordinator rejects any other.
PROTOCOL_VERSION = 3

# -- frame types ---------------------------------------------------------
#
# Every header ``type`` on the wire, by name.  Dispatch in
# coordinator/worker/status compares against these constants, and the
# ``frame-type`` checker (repro.analysis) proves statically that every
# ``send_msg`` header names a registered type with a matching handler.

# worker -> coordinator
MSG_HELLO = "hello"
MSG_REQUEST = "request"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_PING = "ping"
MSG_STATUS = "status"
# observer <-> coordinator
MSG_STATUS_REQUEST = "status_request"
MSG_STATUS_REPLY = "status_reply"
# client -> coordinator (sessions)
MSG_SUBMIT = "submit"
MSG_CANCEL = "cancel"
MSG_PREFETCH = "prefetch"          # also coordinator -> worker
# coordinator -> client (sessions)
MSG_BATCH_RESULT = "batch_result"
# admission: challenge (secret-holding coordinators only) and refusal
MSG_AUTH_CHALLENGE = "auth_challenge"
MSG_REJECT = "reject"
# coordinator -> worker
MSG_JOB = "job"
MSG_PONG = "pong"
MSG_SHUTDOWN = "shutdown"

#: Registry of every frame type the protocol carries.  The protocol is
#: *additive*: an unknown type is ignored, never an error — but
#: everything this codebase sends or dispatches on must be enumerated
#: here.
FRAME_TYPES = frozenset({
    MSG_HELLO, MSG_REQUEST, MSG_RESULT, MSG_ERROR, MSG_PING, MSG_STATUS,
    MSG_STATUS_REQUEST, MSG_STATUS_REPLY,
    MSG_SUBMIT, MSG_CANCEL, MSG_PREFETCH, MSG_BATCH_RESULT,
    MSG_AUTH_CHALLENGE, MSG_REJECT,
    MSG_JOB, MSG_PONG, MSG_SHUTDOWN,
})

#: (header length, payload length) frame prefix.
_FRAME = struct.Struct("!II")

#: Refuse absurd frames (corrupt prefix / non-protocol peer) before
#: allocating buffers for them.
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(ConnectionError):
    """The peer sent bytes that are not a protocol frame."""


class ReceiveTimeout(Exception):
    """No frame arrived within the receive timeout.

    Deliberately *not* a :class:`ConnectionError`: the connection is
    still healthy and the stream still aligned (no bytes were consumed),
    so the caller may simply check its own liveness state and call
    :func:`recv_msg` again.
    """


def dumps_payload(obj: Any) -> bytes:
    """Pickle one payload object for the wire."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def loads_payload(data: bytes) -> Any:
    """Unpickle one payload received from the wire."""
    return pickle.loads(data)


def send_msg(sock: socket.socket, header: dict,
             payload: bytes | None = None) -> None:
    """Send one frame (header dict + optional pickle payload)."""
    head = json.dumps(header, separators=(",", ":")).encode()
    body = payload or b""
    sock.sendall(_FRAME.pack(len(head), len(body)) + head + body)


def recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes; raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket,
             timeout: float | None = None) -> tuple[dict, bytes | None]:
    """Receive one frame; returns ``(header, payload-or-None)``.

    With ``timeout`` (seconds) the *idle wait* for a frame is bounded:
    if no bytes arrive within it, :class:`ReceiveTimeout` is raised and
    the call may safely be retried — this is what lets coordinator serve
    loops and worker job waits wake up periodically to check liveness
    instead of blocking until EOF.  The wait uses ``select`` readiness
    rather than ``settimeout`` deliberately: socket timeouts are
    socket-wide, so they would also bound concurrent ``send_msg`` calls
    from heartbeat/dispatch threads and could tear down a healthy
    connection on a slow link.  Once bytes are ready the frame is read
    with ordinary blocking receives (a healthy peer finishes a started
    frame promptly; a hung one is caught by the liveness layer closing
    the socket, which unblocks the read).
    """
    if timeout is not None:
        readable, _, _ = select.select([sock], [], [], timeout)
        if not readable:
            raise ReceiveTimeout("no frame within the timeout")
    head_len, body_len = _FRAME.unpack(recv_exact(sock, _FRAME.size))
    if head_len > MAX_FRAME_BYTES or body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame sizes ({head_len}, {body_len}) exceed the protocol cap"
        )
    try:
        header = json.loads(recv_exact(sock, head_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unreadable frame header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError(f"frame header has no type: {header!r}")
    payload = recv_exact(sock, body_len) if body_len else None
    return header, payload


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (host defaults to localhost)."""
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"dist address must look like 'host:port', got {addr!r}"
        )
    return host or "127.0.0.1", int(port)


def format_addr(host: str, port: int) -> str:
    """``(host, port)`` → the ``"host:port"`` spelling flags use."""
    return f"{host}:{port}"


def connect(addr: str, timeout: float | None = None,
            retry_for: float = 0.0) -> socket.socket:
    """Open a worker connection to the coordinator at ``addr``.

    ``retry_for`` keeps retrying refused connections for that many
    seconds — workers routinely start before the coordinator binds.
    """
    import time

    host, port = parse_addr(addr)
    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(None)
            # Frames are small requests and replies.  With Nagle on, one
            # sent behind an unacknowledged frame waits for the peer's
            # delayed ACK: ~40 ms per tuner epoch on a loopback worker.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


# -- shared-secret auth ---------------------------------------------------
#
# A coordinator serving an untrusted interface holds a shared secret.
# On accept it sends ``auth_challenge`` with a fresh nonce; the peer's
# ``hello`` must carry ``auth``, the HMAC-SHA256 digest of that nonce
# under the secret.  The secret itself never crosses the wire, and a
# replayed hello fails against the next connection's fresh nonce.

#: How long a peer connecting to a possibly-secured coordinator waits
#: for the challenge before concluding the interface is open.  An open
#: coordinator sends nothing on accept, so this wait is pure latency
#: only when a ``secret`` was configured client-side but not server-side
#: (a misconfiguration that fails loud soon after anyway).
AUTH_CHALLENGE_WAIT_S = 2.0


def make_nonce() -> str:
    """A fresh per-connection challenge nonce."""
    return secrets.token_hex(16)


def auth_digest(secret: str, nonce: str) -> str:
    """HMAC-SHA256 answer to an ``auth_challenge`` nonce."""
    return hmac.new(
        secret.encode(), nonce.encode(), hashlib.sha256
    ).hexdigest()


def client_handshake(sock: socket.socket, hello: dict,
                     secret: str | None = None) -> None:
    """Send the ``hello``, answering an ``auth_challenge`` if one comes.

    Every connecting peer (worker, observer, client session) funnels
    through here.  With a ``secret``, the peer waits briefly for the
    coordinator's challenge and folds the digest into its hello;
    without one it hellos immediately — an open coordinator never
    challenges, so the common case costs nothing.
    """
    if secret:
        try:
            header, _ = recv_msg(sock, timeout=AUTH_CHALLENGE_WAIT_S)
        except ReceiveTimeout:
            header = None
        if header is not None and header.get("type") == MSG_AUTH_CHALLENGE:
            nonce = str(header.get("nonce", ""))
            hello = dict(hello, auth=auth_digest(secret, nonce))
    send_msg(sock, hello)
