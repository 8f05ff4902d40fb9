"""Observer-side client of the coordinator's ``status`` protocol.

``repro.cli status <addr>`` (and anything else that wants a cluster
snapshot) connects with an observer ``hello`` — the coordinator excludes
observers from the worker count, job dispatch and heartbeat eviction —
sends one ``status_request``, and returns the ``status_reply`` report.
See :meth:`repro.dist.coordinator.Coordinator.status_report` for the
report's shape and :func:`repro.obs.format_cluster_status` for the
human rendering.
"""

from __future__ import annotations

import os
import socket
import time

from repro.dist.protocol import (
    MSG_HELLO,
    MSG_REJECT,
    MSG_STATUS_REPLY,
    MSG_STATUS_REQUEST,
    PROTOCOL_VERSION,
    ReceiveTimeout,
    client_handshake,
    connect,
    recv_msg,
    send_msg,
)

#: Pause between connection attempts when ``retries`` is given.  Long
#: enough for a coordinator mid-restart to finish binding, short enough
#: that ``status --retries 3`` still feels interactive.
RETRY_BACKOFF_S = 0.5


def fetch_cluster_status(
    addr: str,
    timeout: float = 10.0,
    retries: int = 0,
    secret: str | None = None,
) -> dict:
    """One-shot cluster status from the coordinator at ``addr``.

    ``retries`` extra attempts are made after a timeout or connection
    failure (with a short pause between attempts) — scripts polling a
    cluster that is still coming up get a grace window instead of a
    stack trace.  ``secret`` (default ``$REPRO_DIST_SECRET``) answers a
    secured coordinator's auth challenge.  A ``reject`` (wrong secret,
    protocol mismatch) raises ``PermissionError`` with the
    coordinator's reason immediately, never retried — a refusal will
    not turn into an answer by asking again.

    Raises ``TimeoutError`` when no reply lands within ``timeout``
    seconds on the last attempt, and the usual
    ``ConnectionError``/``OSError`` family when the coordinator is
    unreachable.
    """
    secret = secret or os.environ.get("REPRO_DIST_SECRET") or None
    attempts = 1 + max(0, int(retries))
    for attempt in range(attempts):
        try:
            return _fetch_once(addr, timeout, secret)
        except PermissionError:
            raise
        except (TimeoutError, ConnectionError, OSError):
            if attempt == attempts - 1:
                raise
            time.sleep(RETRY_BACKOFF_S)
    raise AssertionError("unreachable")


def _fetch_once(addr: str, timeout: float, secret: str | None) -> dict:
    sock = connect(addr, timeout=timeout)
    try:
        client_handshake(sock, {
            "type": MSG_HELLO,
            "worker": f"status-{socket.gethostname()}-{os.getpid()}",
            "proto": PROTOCOL_VERSION,
            "heartbeat": 0,
            "role": "observer",
        }, secret=secret)
        send_msg(sock, {"type": MSG_STATUS_REQUEST})
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"no status reply from {addr} within {timeout:.0f}s"
                )
            try:
                header, _ = recv_msg(sock, timeout=remaining)
            except ReceiveTimeout:
                continue
            kind = header.get("type")
            if kind == MSG_REJECT:
                raise PermissionError(
                    f"coordinator at {addr} rejected this observer: "
                    f"{header.get('error', 'no reason given')}"
                )
            if kind == MSG_STATUS_REPLY:
                report = header.get("report")
                return report if isinstance(report, dict) else {}
    finally:
        try:
            sock.close()
        except OSError:
            pass
