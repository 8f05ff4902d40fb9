"""Client side of the session protocol: one tenant of a cluster.

A :class:`ClientSession` is the only way jobs enter a
:class:`~repro.dist.coordinator.Coordinator`.  It connects the way a
worker does — one TCP connection, a ``hello``, heartbeats — but with
``role: "client"``: the coordinator opens a job namespace for it,
schedules its ``submit`` frames fairly against every other session, and
pushes each result back as a ``batch_result`` the moment it lands.
Many sessions from many machines can multiplex one persistent cluster
(``repro.cli serve``); owner-mode
:class:`~repro.dist.backend.DistributedBackend` opens one against the
private loopback coordinator it starts.

The API is a small future store (:meth:`submit` / :meth:`wait_next` /
:meth:`as_completed` / :meth:`cancel`).  Job identifiers here are
client-chosen *tags*; the coordinator maps them to its own global job
ids internally.  Only outcomes of submitted, uncancelled tags are kept,
so a result that races its own ``cancel`` is dropped on arrival.

Liveness is symmetric to the worker side: a heartbeat thread pings so
the coordinator never evicts a busy session, and a receiver thread
notices coordinator EOF/shutdown and fails pending waits loudly.  The
empty-cluster grace (``worker_grace``) is enforced client-side from the
worker counts in periodic ``status_reply`` probes.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro import obs
from repro.dist.protocol import (
    MSG_BATCH_RESULT,
    MSG_CANCEL,
    MSG_HELLO,
    MSG_PREFETCH,
    MSG_REJECT,
    MSG_STATUS_REPLY,
    MSG_STATUS_REQUEST,
    MSG_SUBMIT,
    PROTOCOL_VERSION,
    ReceiveTimeout,
    client_handshake,
    connect,
    dumps_payload,
    recv_msg,
    send_msg,
)
from repro.dist.worker import WORKER_HEARTBEAT_S, _heartbeat_loop

#: How long a wait tolerates an empty cluster before concluding no
#: worker will ever arrive.
DEFAULT_WORKER_GRACE_S = 60.0

#: How often a blocked wait re-probes the cluster status while the last
#: probe counted workers (worker counts drive the empty-cluster grace;
#: an empty count is re-probed every :data:`_WAIT_TICK_S` instead).
_STATUS_PROBE_S = 2.0

#: Longest a blocked wait sleeps before re-checking its deadlines.
_WAIT_TICK_S = 0.25

#: How long :meth:`ClientSession.start` waits for the first status
#: reply — this is what surfaces an auth rejection at open time
#: instead of on the first result wait.
_HELLO_WAIT_S = 5.0


class ClientSession:
    """One client session against a persistent coordinator.

    Args:
        addr: coordinator ``host:port`` (a ``repro.cli serve`` instance).
        session: session name shown in ``repro.cli status`` rows
            (defaults to ``host-pid``).
        priority: fair-share weight; a priority-2 session receives
            twice the dispatch slots of a priority-1 session under
            contention.
        secret: shared secret when the coordinator requires auth;
            defaults to ``$REPRO_DIST_SECRET``.
        heartbeat_s: ping interval proving this session alive (a silent
            session is evicted and garbage-collected server-side).
        connect_timeout: TCP connect timeout per attempt.
        connect_retry_s: how long to retry refused connections.
    """

    #: Lock discipline, statically enforced by the ``lock-discipline``
    #: checker (:mod:`repro.analysis`): outcomes, the status snapshot
    #: and the lifecycle flags are shared between the receiver thread
    #: and caller threads.
    GUARDED_BY = {
        "_pending": "_cv",
        "_outcomes": "_cv",
        "_next_tag": "_cv",
        "_report": "_cv",
        "_error": "_cv",
        "_closed": "_cv",
    }

    def __init__(self, addr: str, session: str | None = None,
                 priority: float = 1.0, secret: str | None = None,
                 heartbeat_s: float = WORKER_HEARTBEAT_S,
                 connect_timeout: float = 10.0,
                 connect_retry_s: float = 0.0):
        if priority <= 0:
            raise ValueError("session priority must be > 0")
        self.addr = addr
        self.session_name = session \
            or f"{socket.gethostname()}-{os.getpid()}"
        self.priority = priority
        self.secret = (secret or os.environ.get("REPRO_DIST_SECRET")
                       or None)
        self.heartbeat_s = heartbeat_s
        self.connect_timeout = connect_timeout
        self.connect_retry_s = connect_retry_s
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._cv = threading.Condition()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        #: submitted tags whose outcome has neither landed nor been
        #: cancelled; only these may enter ``_outcomes``.
        self._pending: set[int] = set()
        #: tag -> ("ok", payload_bytes) | ("error", text)
        self._outcomes: dict[int, tuple[str, object]] = {}
        self._next_tag = 0
        #: latest ``status_reply`` report (``None`` until one answers).
        self._report: dict | None = None
        self._error: str | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClientSession":
        """Connect, hello as a client, start the service threads."""
        if self._sock is not None:
            return self
        sock = connect(self.addr, timeout=self.connect_timeout,
                       retry_for=self.connect_retry_s)
        client_handshake(sock, {
            "type": MSG_HELLO,
            "worker": self.session_name,
            "session": self.session_name,
            "role": "client",
            "proto": PROTOCOL_VERSION,
            "heartbeat": self.heartbeat_s,
            "priority": self.priority,
        }, secret=self.secret)
        self._sock = sock
        receiver = threading.Thread(
            target=self._receive_loop, name="dist-session-recv",
            daemon=True,
        )
        receiver.start()
        self._threads.append(receiver)
        if self.heartbeat_s and self.heartbeat_s > 0:
            heartbeat = threading.Thread(
                target=_heartbeat_loop,
                args=(sock, self._send_lock, float(self.heartbeat_s),
                      self._stop),
                name="dist-session-heartbeat", daemon=True,
            )
            heartbeat.start()
            self._threads.append(heartbeat)
        obs.inc("session.opened")
        # Prime the status snapshot (worker counts feed client-mode
        # chunking and the empty-cluster grace).  This round-trip is also what
        # surfaces an auth rejection here, at open time, instead of on
        # the first result wait.
        self._send_best_effort({"type": MSG_STATUS_REQUEST})
        deadline = time.monotonic() + _HELLO_WAIT_S
        with self._cv:
            while (self._report is None and self._error is None
                   and time.monotonic() < deadline):
                self._cv.wait(timeout=0.05)
            error = self._error
        if error is not None:
            self.close()
            raise RuntimeError(error)
        return self

    def close(self) -> None:
        """Disconnect; the coordinator garbage-collects the session."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self._stop.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
            obs.inc("session.closed")
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []

    def __enter__(self) -> "ClientSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission API -------------------------------------------------

    def submit(self, payload: bytes) -> int:
        """Enqueue one pickled job; returns its session-local tag."""
        with self._cv:
            if self._closed:
                raise RuntimeError("client session is closed")
            if self._error is not None:
                raise RuntimeError(self._error)
            tag = self._next_tag
            self._next_tag += 1
            self._pending.add(tag)
        self._send({"type": MSG_SUBMIT, "job": tag}, payload)
        obs.inc("session.jobs_submitted")
        return tag

    def cancel(self, tags=None) -> None:
        """Cancel jobs (``None`` = all of this session's) and drop
        their outcomes — queued jobs never dispatch, leased ones run
        out and their results are discarded server-side."""
        header: dict = {"type": MSG_CANCEL}
        if tags is not None:
            header["jobs"] = [int(tag) for tag in tags]
        self._send_best_effort(header)
        obs.inc("session.cancels")
        with self._cv:
            if tags is None:
                self._pending.clear()
                self._outcomes.clear()
            else:
                for tag in header["jobs"]:
                    self._pending.discard(tag)
                    self._outcomes.pop(tag, None)

    def prefetch(self, artifact) -> None:
        """Push one :class:`~repro.sim.artifact.TraceArtifact` for the
        coordinator to fan out to every worker, current and future."""
        self._send_best_effort({
            "type": MSG_PREFETCH,
            "fingerprint": str(getattr(artifact, "fingerprint", "")),
            "instructions": int(getattr(artifact, "instructions", 0)),
        }, dumps_payload(artifact))
        obs.inc("prefetch.pushed")

    def wait_next(
        self,
        tags,
        timeout: float | None = None,
        worker_grace: float = DEFAULT_WORKER_GRACE_S,
    ) -> tuple[int, tuple[str, object]]:
        """Block until *one* of ``tags`` resolves; return it.

        Returns ``(tag, outcome)`` for the first resolved tag in
        ``tags`` order, where ``outcome`` is ``("ok", payload_bytes)``
        or ``("error", text)``.  Raises ``TimeoutError`` when
        ``timeout`` (which may be ``0`` for a pure poll) elapses first,
        and ``RuntimeError`` when the session breaks (coordinator gone,
        shutdown, rejection) or the cluster stays *empty* — no worker
        ever connected, or every worker disconnected — for
        ``worker_grace`` seconds (a mis-pointed address or a
        fully-crashed worker fleet would otherwise block forever).
        """
        tags = list(tags)
        if not tags:
            raise ValueError("wait_next needs at least one job tag")
        deadline = None if timeout is None else time.monotonic() + timeout
        empty_since: float | None = None
        last_probe = 0.0
        while True:
            with self._cv:
                for tag in tags:
                    outcome = self._outcomes.get(tag)
                    if outcome is not None:
                        return tag, outcome
                error = self._error
                closed = self._closed
                report = self._report
            if error is not None:
                raise RuntimeError(error)
            if closed:
                raise RuntimeError("client session is closed")
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise TimeoutError(
                    f"{len(tags)} distributed jobs still pending"
                )
            workers = _live_workers(report)
            if workers is None or workers > 0:
                empty_since = None
            elif empty_since is None:
                empty_since = now
            if empty_since is not None \
                    and now - empty_since >= worker_grace:
                seen = (report or {}).get("counters", {}).get(
                    "workers_seen", 0)
                what = ("every worker disconnected from" if seen
                        else "no worker connected to")
                raise RuntimeError(
                    f"{what} {self.addr} for {worker_grace:.0f}s with "
                    f"{len(tags)} jobs pending; start workers with "
                    f"'python -m repro.cli worker --addr {self.addr}'"
                )
            # An empty count is re-probed every tick: workers that join
            # after the last probe must stop the grace clock promptly.
            probe_every = _WAIT_TICK_S if workers == 0 else _STATUS_PROBE_S
            if now - last_probe >= probe_every:
                last_probe = now
                self._send_best_effort({"type": MSG_STATUS_REQUEST})
            waits = [_WAIT_TICK_S]
            if deadline is not None:
                waits.append(deadline - now)
            if empty_since is not None:
                waits.append(empty_since + worker_grace - now)
            with self._cv:
                if all(self._outcomes.get(tag) is None for tag in tags):
                    self._cv.wait(timeout=max(0.01, min(waits)))

    def as_completed(
        self,
        tags,
        timeout: float | None = None,
        worker_grace: float = DEFAULT_WORKER_GRACE_S,
    ):
        """Yield ``(tag, outcome)`` as results land, in landing order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = list(dict.fromkeys(tags))  # de-dup, keep order
        while pending:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            tag, outcome = self.wait_next(
                pending, timeout=remaining, worker_grace=worker_grace
            )
            pending.remove(tag)
            yield tag, outcome

    def workers_live(self) -> int | None:
        """Worker count from the latest status probe (``None`` = no
        probe has answered yet)."""
        with self._cv:
            return _live_workers(self._report)

    # -- wire -----------------------------------------------------------

    def _send(self, header: dict, payload: bytes | None = None) -> None:
        sock = self._sock
        if sock is None:
            raise RuntimeError("client session is not connected")
        try:
            with self._send_lock:
                send_msg(sock, header, payload)
        except OSError as exc:
            raise RuntimeError(
                f"connection to coordinator at {self.addr} lost"
            ) from exc

    def _send_best_effort(self, header: dict,
                          payload: bytes | None = None) -> None:
        try:
            self._send(header, payload)
        except RuntimeError:
            pass  # the receiver thread reports the broken link

    def _fail(self, message: str) -> None:
        with self._cv:
            if self._error is None and not self._closed:
                self._error = message
            self._cv.notify_all()

    def _receive_loop(self) -> None:
        """Dispatch coordinator frames until EOF or close."""
        sock = self._sock
        assert sock is not None
        try:
            while True:
                try:
                    header, payload = recv_msg(sock, timeout=0.25)
                except ReceiveTimeout:
                    with self._cv:
                        if self._closed:
                            return
                    continue
                kind = header.get("type")
                if kind == MSG_BATCH_RESULT:
                    try:
                        tag = int(header.get("job", -1))
                    except (TypeError, ValueError):
                        continue
                    if str(header.get("status", "error")) == "ok":
                        outcome: tuple[str, object] = ("ok", payload)
                    else:
                        outcome = ("error", str(
                            header.get("error", "unknown error")
                        ))
                    obs.inc("session.results_received")
                    with self._cv:
                        # Cancelled tags are no longer pending: a result
                        # that raced its cancel is dropped, not leaked.
                        if tag in self._pending:
                            self._pending.discard(tag)
                            self._outcomes[tag] = outcome
                            self._cv.notify_all()
                elif kind == MSG_STATUS_REPLY:
                    report = header.get("report")
                    with self._cv:
                        self._report = report if isinstance(report, dict) \
                            else {}
                        self._cv.notify_all()
                elif kind == MSG_REJECT:
                    self._fail(
                        f"coordinator at {self.addr} rejected this "
                        f"session: {header.get('error', 'no reason given')}"
                    )
                    return
                # Anything else (pongs, the auth challenge, frames from
                # a newer coordinator) needs no action here.
        except (ConnectionError, OSError):
            self._fail(f"connection to coordinator at {self.addr} lost")


def _live_workers(report: dict | None) -> int | None:
    """Worker rows in a status report (``None``: no report yet)."""
    if report is None:
        return None
    workers = report.get("workers")
    return len(workers) if isinstance(workers, list) else 0
