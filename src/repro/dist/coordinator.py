"""Coordinator side of the distributed evaluation service.

One :class:`Coordinator` is a persistent, session-oriented job service.
It listens on a TCP address, hands queued jobs to whatever workers
connect, tracks which jobs each connection currently holds (its
*leases*), and reschedules jobs whose worker dies or goes silent.

Work arrives only through *client sessions*: a peer whose ``hello``
has ``role: "client"`` (a :class:`~repro.dist.client.ClientSession`)
gets its own job namespace, its ``submit`` frames land in a per-session
queue, results are pushed back as ``batch_result`` frames the moment
they resolve, and nothing is retained.  The coordinator has no
in-process job API: even the run that started it (owner-mode
:class:`~repro.dist.backend.DistributedBackend`) joins over loopback as
an ordinary session.  Dispatch interleaves sessions by stride
scheduling — each session accumulates virtual time at ``1 / priority``
per dispatched job and the furthest-behind session goes next — so a
flood session cannot starve a small one.

Session lifecycle: a client that disconnects (EOF) or is evicted for
heartbeat silence has its session garbage-collected — queued jobs are
dropped before they waste a worker, and results are forgotten.  Jobs a
worker already holds run out their lease and their late results are
dropped on the floor.

Fault model — three detectors, coarsest to finest:

* **EOF** — a worker that crashes or is killed closes (or resets) its
  connection; its leases are requeued immediately (:meth:`_reap`).
* **Heartbeat eviction** — a *hung* worker (stuck syscall, frozen VM,
  NAT half-open) keeps its socket open but stops sending ``ping``
  frames; once nothing has been received for ``heartbeat_timeout_s``
  the monitor thread closes the connection, which funnels into the same
  reap path.  Observers are never evicted.
* **Lease deadlines** — a *livelocked* worker heartbeats happily but
  never finishes its job; each lease carries a deadline
  (``lease_timeout_s``) after which the monitor thread requeues the job
  at the front of its session's queue.  Jobs are pure functions of
  their pickled inputs, so the rerun is bit-identical and a late
  duplicate result is simply dropped.

A job that gets leased ``max_attempts`` times without resolving is
declared poisonous and surfaces as an error instead of cycling forever.

Admission: the first frame on every connection must be a ``hello``
announcing :data:`~repro.dist.protocol.PROTOCOL_VERSION`.  With a
shared ``secret``, the coordinator first sends an ``auth_challenge``
nonce, and the ``hello`` must also carry the matching HMAC-SHA256
digest.  Anything else is told ``reject`` and dropped without touching
live sessions.
"""

from __future__ import annotations

import hmac
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.dist.protocol import (
    MSG_AUTH_CHALLENGE,
    MSG_BATCH_RESULT,
    MSG_CANCEL,
    MSG_ERROR,
    MSG_HELLO,
    MSG_JOB,
    MSG_PING,
    MSG_PONG,
    MSG_PREFETCH,
    MSG_REJECT,
    MSG_REQUEST,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_STATUS,
    MSG_STATUS_REPLY,
    MSG_STATUS_REQUEST,
    MSG_SUBMIT,
    PROTOCOL_VERSION,
    ReceiveTimeout,
    auth_digest,
    format_addr,
    make_nonce,
    recv_msg,
    send_msg,
)

#: Default lease deadline: generous, because an expired lease on a
#: merely *slow* worker wastes a rerun (benign) and burns an attempt
#: (not benign once it reaches ``max_attempts``).  Hung workers are
#: caught much faster by heartbeat eviction; this is the backstop for
#: livelocked ones.  Set it above the worst-case single-job runtime.
DEFAULT_LEASE_TIMEOUT_S = 600.0

#: Evict a connection when nothing — pings included — has arrived for
#: this long.  Workers ping every couple of seconds
#: (:data:`repro.dist.worker.WORKER_HEARTBEAT_S`), so this tolerates
#: deep scheduler stalls without false positives.
DEFAULT_HEARTBEAT_TIMEOUT_S = 30.0

#: Serve/monitor loop wake-up ceiling (they wake earlier when the
#: configured timeouts are shorter, e.g. in tests).
_TICK_CEILING_S = 0.25

#: How long a new connection gets to produce its (signed) ``hello``.
HELLO_TIMEOUT_S = 10.0

#: Retained prefetched artifacts (newest win): enough for a sweep's
#: working set, bounded so a chatty client cannot balloon the server.
PREFETCH_CAP = 32

#: ``hello`` roles the coordinator recognizes; anything else is
#: treated as a worker (the protocol is additive).
_ROLES = ("worker", "observer", "client")


@dataclass
class _Job:
    """One queued unit of work (payload is pickled ``(fn, item)``).

    A row lives in ``Coordinator._jobs`` from ``submit`` until it
    resolves, is cancelled, or its session closes — never longer.
    """

    id: int
    payload: bytes
    #: owning session id.
    session: int
    #: the client-chosen ``submit`` tag the owner knows this job by.
    tag: int
    attempts: int = 0


@dataclass(eq=False)  # identity hash: connections live in a set
class _Connection:
    """Book-keeping for one connection (worker, observer or client)."""

    sock: socket.socket
    peer: str
    #: accept-order sequence number.  ``_connections`` is a set, so any
    #: code whose *order* over connections matters (dispatch, lease
    #: expiry, eviction) iterates ``sorted(..., key=lambda c: c.seq)``
    #: instead of set order — scheduling decisions stay deterministic
    #: for a fixed connection history.
    seq: int = 0
    name: str = ""
    #: what the peer's ``hello`` announced: ``"worker"`` (dispatched
    #: to, counted, evicted for silence), ``"observer"`` (monitoring
    #: only — none of the above), or ``"client"`` (owns a session;
    #: evicted for silence so dead tenants are garbage-collected).
    role: str = "worker"
    #: the session a ``role: "client"`` connection owns.
    session_id: int | None = None
    #: jobs this connection resolved (results and errors both count).
    jobs_done: int = 0
    #: latest ``status`` frame metrics (a ``MetricsSnapshot.to_dict()``).
    status: dict = field(default_factory=dict)
    #: heartbeat interval the peer advertised in ``hello`` (0 = none).
    heartbeat_s: float = 0.0
    #: job id -> monotonic lease deadline (``inf`` when timeouts are off).
    leases: dict[int, float] = field(default_factory=dict)
    #: monotonic time of the last frame received (any type).
    last_recv: float = field(default_factory=time.monotonic)
    #: a worker waiting for work (blocked ``request``).
    hungry: bool = False
    #: serializes frame writes — this connection's serve thread, other
    #: connections' serve threads (dispatch, results) and the monitor
    #: thread all send on the same socket.
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    #: eviction already triggered (the reap may still be in flight).
    evicting: bool = False
    reaped: bool = False


@dataclass(eq=False)
class _Session:
    """One client connection's job namespace."""

    id: int
    name: str = ""
    #: fair-share weight: a priority-2 session receives twice the
    #: dispatch slots of a priority-1 session under contention.
    priority: float = 1.0
    #: the owning client connection.
    conn: _Connection | None = None
    #: queued job ids, oldest first; lease-expiry requeues go in front.
    queue: deque[int] = field(default_factory=deque)
    #: stride-scheduling virtual time: dispatching one job advances it
    #: by ``1 / priority``; the session with the smallest stride is the
    #: one furthest below its fair share and dispatches next.
    stride: float = 0.0
    submitted: int = 0
    completed: int = 0
    cancelled: int = 0


class Coordinator:
    """Job queue + lease tracker + fair scheduler behind a TCP listener.

    Args:
        host: interface to bind (default loopback).
        port: TCP port; ``0`` picks a free ephemeral port.
        max_attempts: times a job may be leased before a repeated
            worker loss marks it failed (guards against poison jobs
            that take down every worker they touch).
        lease_timeout_s: seconds a leased job may stay unresolved
            before the monitor thread requeues it (``None`` disables
            lease deadlines; death/eviction rescheduling still works).
        heartbeat_timeout_s: seconds of total silence after which a
            worker or client connection is evicted (``None`` disables
            eviction; EOF detection still works).
        secret: shared secret for untrusted interfaces; when set, every
            accepted connection must answer the ``auth_challenge``
            nonce in its ``hello`` or it is rejected.
    """

    #: Lock discipline, statically enforced by the ``lock-discipline``
    #: checker (:mod:`repro.analysis`): every read or write of these
    #: attributes must happen inside ``with self._cv:`` or in a method
    #: whose name ends in ``_locked`` (caller holds the lock).
    GUARDED_BY = {
        "_connections": "_cv",
        "_jobs": "_cv",
        "_sessions": "_cv",
        "_artifacts": "_cv",
        "_next_id": "_cv",
        "_next_seq": "_cv",
        "_next_session_id": "_cv",
        "_closing": "_cv",
        "_threads": "_cv",
        "workers_seen": "_cv",
        "jobs_completed": "_cv",
        "jobs_cancelled": "_cv",
        "reschedules": "_cv",
        "lease_expiries": "_cv",
        "evictions": "_cv",
        "sessions_opened": "_cv",
        "sessions_closed": "_cv",
        "auth_rejections": "_cv",
        "prefetch_pushes": "_cv",
    }

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_attempts: int = 3,
                 lease_timeout_s: float | None = DEFAULT_LEASE_TIMEOUT_S,
                 heartbeat_timeout_s: float | None =
                 DEFAULT_HEARTBEAT_TIMEOUT_S,
                 secret: str | None = None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_timeout_s is not None and lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be > 0 (or None)")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0 (or None)")
        self.host = host
        self.port = port
        self.max_attempts = max_attempts
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.secret = secret or None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self._jobs: dict[int, _Job] = {}
        self._sessions: dict[int, _Session] = {}
        #: prefetched artifacts, key -> (fingerprint, instructions,
        #: pickled payload); replayed to every worker that joins.
        self._artifacts: dict[str, tuple[str, int, bytes]] = {}
        self._next_id = 0
        self._next_seq = 0
        self._next_session_id = 1
        self._closing = False
        self._cv = threading.Condition()
        # observability counters
        self.workers_seen = 0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self.reschedules = 0
        self.lease_expiries = 0
        self.evictions = 0
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.auth_rejections = 0
        self.prefetch_pushes = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> str:
        """Bind, start the accept + monitor loops, return the address."""
        if self._listener is not None:
            return self.addr
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self.port = listener.getsockname()[1]
        self._listener = listener
        threads = [
            threading.Thread(target=self._accept_loop, name="dist-accept",
                             daemon=True),
            threading.Thread(target=self._monitor_loop, name="dist-monitor",
                             daemon=True),
        ]
        for thread in threads:
            thread.start()
        with self._cv:
            self._threads.extend(threads)
        return self.addr

    @property
    def addr(self) -> str:
        """The ``host:port`` workers should connect to."""
        return format_addr(self.host, self.port)

    def worker_count(self) -> int:
        """Live worker connections right now (observers/clients excluded)."""
        with self._cv:
            return sum(1 for c in self._connections if c.role == "worker")

    def status_report(self) -> dict:
        """JSON-able cluster snapshot (the ``status_reply`` body).

        Per-worker rows (name, leases held, jobs done, age of the last
        received frame, latest ``status`` metrics), per-session
        rows (queue depth, jobs in flight, jobs done), queue depths, the
        coordinator's lifetime counters, and the merge of every worker's
        latest metrics snapshot.
        """
        from repro.obs import MetricsSnapshot

        now = time.monotonic()
        merged = MetricsSnapshot()
        workers = []
        with self._cv:
            conns = sorted(
                (c for c in self._connections if c.role == "worker"),
                key=lambda c: c.name or c.peer,
            )
            for conn in conns:
                workers.append({
                    "name": conn.name or conn.peer,
                    "peer": conn.peer,
                    "leases": len(conn.leases),
                    "jobs_done": conn.jobs_done,
                    "heartbeat_age_s": round(now - conn.last_recv, 3),
                    "metrics": conn.status,
                })
                if conn.status:
                    try:
                        merged = merged.merge(
                            MetricsSnapshot.from_dict(conn.status)
                        )
                    except (TypeError, ValueError, KeyError):
                        pass  # malformed frame: skip, don't fail status
            in_flight: dict[int, int] = {}
            for conn in conns:
                for job_id in conn.leases:
                    job = self._jobs.get(job_id)
                    if job is not None:
                        in_flight[job.session] = \
                            in_flight.get(job.session, 0) + 1
            sessions = [
                {
                    "id": session.id,
                    "name": session.name,
                    "priority": session.priority,
                    "queued": len(session.queue),
                    "in_flight": in_flight.get(session.id, 0),
                    "submitted": session.submitted,
                    "jobs_done": session.completed,
                }
                for session in sorted(self._sessions.values(),
                                      key=lambda s: s.id)
            ]
            report = {
                "addr": self.addr,
                "workers": workers,
                "sessions": sessions,
                "pending": sum(
                    len(s.queue) for s in self._sessions.values()
                ),
                "unresolved": len(self._jobs),
                "counters": {
                    "workers_seen": self.workers_seen,
                    "jobs_completed": self.jobs_completed,
                    "jobs_cancelled": self.jobs_cancelled,
                    "reschedules": self.reschedules,
                    "lease_expiries": self.lease_expiries,
                    "evictions": self.evictions,
                    "sessions_opened": self.sessions_opened,
                    "sessions_closed": self.sessions_closed,
                    "auth_rejections": self.auth_rejections,
                    "prefetch_pushes": self.prefetch_pushes,
                },
            }
        report["cluster_metrics"] = merged.to_dict()
        return report

    def shutdown(self) -> None:
        """Stop accepting and disconnect every peer (sessions see EOF)."""
        with self._cv:
            if self._closing:
                return
            self._closing = True
            connections = sorted(self._connections, key=lambda c: c.seq)
            threads = list(self._threads)
            self._cv.notify_all()
        if self._listener is not None:
            # close() alone does not wake the accept thread blocked in
            # accept(); shutting the listener down does.
            self._drop_socket(self._listener)
        for conn in connections:
            # Shutdown only: each serve thread closes its own fd.
            self._disconnect_socket(conn.sock)
        for thread in threads:
            thread.join(timeout=2.0)

    @staticmethod
    def _drop_socket(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    @staticmethod
    def _disconnect_socket(sock: socket.socket) -> None:
        """Shut the socket down without closing its fd.

        Threads other than a connection's own serve thread must never
        ``close()`` it: the serve thread may be blocked in
        ``select``/``recv`` on that fd, and closing would let the
        kernel reuse the number for a newly accepted worker — the stale
        serve thread would then read the *new* connection's frames.
        ``shutdown`` wakes the serve thread with EOF instead, and the
        serve thread closes the fd itself on exit.
        """
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _tick_s(self) -> float:
        """Wake-up period for the serve/monitor loops."""
        tick = _TICK_CEILING_S
        for bound in (self.lease_timeout_s, self.heartbeat_timeout_s):
            if bound is not None:
                tick = min(tick, bound / 4.0)
        return max(0.01, tick)

    # -- connection handling --------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            try:
                # TCP_NODELAY, as protocol.connect sets on the other end.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # the peer already left; serving it finds out
            conn = _Connection(sock=sock, peer=f"{peer[0]}:{peer[1]}")
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"dist-conn-{conn.peer}", daemon=True,
            )
            with self._cv:
                if self._closing:
                    self._drop_socket(sock)
                    return
                conn.seq = self._next_seq
                self._next_seq += 1
                self._connections.add(conn)
                # Prune threads of connections that already left, so an
                # elastic cluster (workers joining/leaving at will) does
                # not accumulate one dead Thread per connection forever.
                # Under the lock: shutdown() snapshots this list.
                self._threads = [
                    t for t in self._threads if t.is_alive()
                ] + [thread]
            thread.start()

    def _serve(self, conn: _Connection) -> None:
        """Handle one connection until it drops or is evicted."""
        tick = self._tick_s()
        try:
            if not self._admit(conn, tick):
                return
            while True:
                try:
                    header, payload = recv_msg(conn.sock, timeout=tick)
                except ReceiveTimeout:
                    # No frame this tick; the monitor thread decides
                    # whether the silence has lasted long enough to
                    # evict.  A closing coordinator ends the loop here.
                    with self._cv:
                        if self._closing:
                            return
                    continue
                conn.last_recv = time.monotonic()
                kind = header.get("type")
                if kind == MSG_PING:
                    with conn.send_lock:
                        send_msg(conn.sock, {"type": MSG_PONG})
                elif kind == MSG_STATUS:
                    metrics = header.get("metrics")
                    conn.status = metrics if isinstance(metrics, dict) \
                        else {}
                    jobs = header.get("jobs_executed")
                    if isinstance(jobs, int):
                        conn.jobs_done = max(conn.jobs_done, jobs)
                elif kind == MSG_STATUS_REQUEST:
                    report = self.status_report()
                    with conn.send_lock:
                        send_msg(conn.sock, {
                            "type": MSG_STATUS_REPLY, "report": report,
                        })
                elif kind == MSG_REQUEST:
                    self._handle_request(conn)
                elif kind == MSG_RESULT:
                    self._resolve(conn, int(header["job"]), "ok", payload)
                elif kind == MSG_ERROR:
                    self._resolve(
                        conn, int(header["job"]), "error",
                        str(header.get("error", "unknown error")),
                    )
                elif kind == MSG_SUBMIT:
                    self._handle_submit(conn, header, payload)
                elif kind == MSG_CANCEL:
                    self._handle_cancel(conn, header)
                elif kind == MSG_PREFETCH:
                    self._handle_prefetch(header, payload)
                # Anything else (a repeated hello, a frame type from a
                # newer peer) is ignored: the protocol is additive.
        except (ConnectionError, OSError, ValueError, KeyError):
            pass
        finally:
            self._reap(conn)
            # The serve thread is the fd's sole owner (see
            # _disconnect_socket); it closes on the way out.
            try:
                conn.sock.close()
            except OSError:
                pass

    def _admit(self, conn: _Connection, tick: float) -> bool:
        """Admit a new connection: True once a valid ``hello`` arrived.

        The first frame must be a ``hello`` announcing
        :data:`PROTOCOL_VERSION`, signed with a fresh challenge nonce
        when the coordinator holds a secret.  Anything else — no hello
        within :data:`HELLO_TIMEOUT_S`, another protocol version, a bad
        digest — is told ``reject`` before it touches coordinator state,
        so a refused peer cannot disturb live sessions.
        """
        nonce = None
        if self.secret is not None:
            nonce = make_nonce()
            try:
                with conn.send_lock:
                    send_msg(conn.sock, {
                        "type": MSG_AUTH_CHALLENGE, "nonce": nonce,
                    })
            except (ConnectionError, OSError):
                return False
        deadline = time.monotonic() + HELLO_TIMEOUT_S
        header: dict = {}
        while not header:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                header, _payload = recv_msg(
                    conn.sock, timeout=min(tick, remaining)
                )
            except ReceiveTimeout:
                with self._cv:
                    if self._closing:
                        return False
        conn.last_recv = time.monotonic()
        error = self._hello_error(header, nonce)
        if error is not None:
            try:
                with conn.send_lock:
                    send_msg(conn.sock, {"type": MSG_REJECT, "error": error})
            except (ConnectionError, OSError):
                pass
            return False
        self._send_all(self._handle_hello(conn, header))
        return True

    def _hello_error(self, header: dict, nonce: str | None) -> str | None:
        """Why a connection's first frame is refused (``None``: admit)."""
        is_hello = header.get("type") == MSG_HELLO
        if nonce is not None:
            assert self.secret is not None
            expected = auth_digest(self.secret, nonce).encode()
            supplied = str(header.get("auth") or "").encode()
            if not is_hello or not hmac.compare_digest(supplied, expected):
                with self._cv:
                    self.auth_rejections += 1
                return ("authentication failed: wrong or missing shared "
                        "secret (REPRO_DIST_SECRET)")
        if not is_hello:
            return "the first frame must be a hello"
        if header.get("proto") != PROTOCOL_VERSION:
            return (f"protocol {header.get('proto')!r} is not supported; "
                    f"this coordinator speaks protocol {PROTOCOL_VERSION}")
        return None

    def _handle_hello(self, conn: _Connection, header: dict):
        """Record an admitted peer's announce.

        Returns frames to send: the retained prefetched artifacts, for
        a worker joining the cluster.
        """
        conn.name = str(
            header.get("session") or header.get("worker") or conn.peer
        )
        role = str(header.get("role", "worker"))
        conn.role = role if role in _ROLES else "worker"
        try:
            conn.heartbeat_s = max(
                0.0, float(header.get("heartbeat", 0) or 0)
            )
        except (TypeError, ValueError):
            conn.heartbeat_s = 0.0
        if conn.role == "worker":
            with self._cv:
                self.workers_seen += 1
                return [
                    (conn, {"type": MSG_PREFETCH,
                            "fingerprint": fingerprint,
                            "instructions": instructions}, payload)
                    for fingerprint, instructions, payload
                    in self._artifacts.values()
                ]
        if conn.role == "client":
            try:
                priority = float(header.get("priority", 1.0) or 1.0)
            except (TypeError, ValueError):
                priority = 1.0
            priority = min(max(priority, 0.01), 100.0)
            with self._cv:
                if not self._closing:
                    session = _Session(
                        id=self._next_session_id, name=conn.name,
                        priority=priority, conn=conn,
                    )
                    # Join at the current virtual time: a fresh session
                    # must not monopolize dispatch just to catch up
                    # with strides older sessions accumulated first.
                    session.stride = min(
                        (s.stride for s in self._sessions.values()),
                        default=0.0,
                    )
                    self._next_session_id += 1
                    self._sessions[session.id] = session
                    conn.session_id = session.id
                    self.sessions_opened += 1
        return []

    def _handle_request(self, conn: _Connection) -> None:
        sends: list[tuple[_Connection, dict, bytes | None]]
        with self._cv:
            if self._closing:
                sends = [(conn, {"type": MSG_SHUTDOWN}, None)]
            else:
                conn.hungry = True
                sends = self._dispatch_locked()
        self._send_all(sends)

    def _handle_submit(self, conn: _Connection, header: dict,
                       payload: bytes | None) -> None:
        """A client session enqueued one job."""
        with self._cv:
            session = self._session_for_locked(conn)
            if session is None or self._closing:
                return
            try:
                tag = int(header.get("job", session.submitted))
            except (TypeError, ValueError):
                tag = session.submitted
            job_id = self._next_id
            self._next_id += 1
            self._jobs[job_id] = _Job(
                id=job_id, payload=payload or b"",
                session=session.id, tag=tag,
            )
            session.queue.append(job_id)
            session.submitted += 1
        self._dispatch()

    def _handle_cancel(self, conn: _Connection, header: dict) -> None:
        """Drop a client session's jobs (``jobs`` tags, or all of them).

        Queued entries never dispatch; entries a worker already holds
        run out their lease, and the late result is dropped because the
        job row is gone.
        """
        tags = header.get("jobs")
        wanted: set[int] | None = None
        if isinstance(tags, list):
            wanted = set()
            for tag in tags:
                try:
                    wanted.add(int(tag))
                except (TypeError, ValueError):
                    continue
        with self._cv:
            session = self._session_for_locked(conn)
            if session is None:
                return
            doomed = [
                job_id for job_id, job in self._jobs.items()
                if job.session == session.id
                and (wanted is None or job.tag in wanted)
            ]
            for job_id in doomed:
                del self._jobs[job_id]
                session.cancelled += 1
                self.jobs_cancelled += 1

    def _handle_prefetch(self, header: dict, payload: bytes | None) -> None:
        """A client pushed a trace artifact: retain it for workers that
        join later and fan it out to the current ones."""
        fingerprint = str(header.get("fingerprint") or "")
        if payload is None or not fingerprint:
            return
        try:
            instructions = int(header.get("instructions", 0))
        except (TypeError, ValueError):
            instructions = 0
        frame = {"type": MSG_PREFETCH, "fingerprint": fingerprint,
                 "instructions": instructions}
        with self._cv:
            key = f"{fingerprint}-{instructions}"
            # Re-insert so the newest artifacts survive the cap.
            self._artifacts.pop(key, None)
            self._artifacts[key] = (fingerprint, instructions, payload)
            while len(self._artifacts) > PREFETCH_CAP:
                del self._artifacts[next(iter(self._artifacts))]
            targets = sorted(
                (c for c in self._connections if c.role == "worker"),
                key=lambda c: c.seq,
            )
            self.prefetch_pushes += len(targets)
        self._send_all([(c, frame, payload) for c in targets])

    def _session_for_locked(self, conn: _Connection) -> _Session | None:
        """The live session a client connection owns (caller holds _cv)."""
        if conn.session_id is None:
            return None
        return self._sessions.get(conn.session_id)

    def _dispatch(self) -> None:
        """Pair queued jobs with hungry connections and send them.

        Called after anything that enqueues work (submit, reschedule)
        or frees a worker.  Sending happens outside the lock; a send
        failure reaps that connection (requeueing the just-granted
        lease) and the loop retries with whoever is left.
        """
        while True:
            with self._cv:
                sends = self._dispatch_locked()
            if not sends:
                return
            if not self._send_all(sends):
                return

    def _dispatch_locked(self) -> list[tuple[_Connection, dict,
                                             bytes | None]]:
        """Assign queued jobs to hungry connections (caller holds _cv).

        Workers are served in accept order; *jobs* are chosen by the
        stride scheduler (:meth:`_next_job_locked`), which interleaves
        sessions instead of draining whichever submitted first.
        """
        sends: list[tuple[_Connection, dict, bytes | None]] = []
        if self._closing:
            return sends
        hungry = deque(sorted(
            (c for c in self._connections
             if c.hungry and c.role == "worker"),
            key=lambda c: c.seq,
        ))
        while hungry:
            job = self._next_job_locked()
            if job is None:
                break
            conn = hungry.popleft()
            job.attempts += 1
            deadline = (float("inf") if self.lease_timeout_s is None
                        else time.monotonic() + self.lease_timeout_s)
            conn.leases[job.id] = deadline
            conn.hungry = False
            sends.append((conn, {"type": MSG_JOB, "job": job.id},
                          job.payload))
        return sends

    def _next_job_locked(self) -> _Job | None:
        """Pop the next dispatchable job, interleaving sessions fairly.

        Stride scheduling: every session tracks a virtual time that
        advances by ``1 / priority`` per dispatched job; the session
        with queued work and the smallest stride (ties broken by id,
        so the choice is deterministic) dispatches next.  A session
        that floods the queue therefore advances its own stride past
        everyone else's and cannot starve a small session, while equal
        priorities degenerate to round-robin.
        """
        while True:
            ready = [s for s in self._sessions.values() if s.queue]
            if not ready:
                return None
            session = min(ready, key=lambda s: (s.stride, s.id))
            job = self._jobs.get(session.queue.popleft())
            if job is None:
                # Cancelled (abandoned batch) or already resolved (a
                # rescheduled twin finished): skip without charging the
                # session for it.
                continue
            session.stride += 1.0 / session.priority
            return job

    def _send_all(self, sends) -> bool:
        """Send frames outside the lock; reap dead targets.

        Returns True if any send failed (the caller should re-dispatch:
        the reap requeued the affected leases).
        """
        failed = False
        for conn, header, payload in sends:
            try:
                with conn.send_lock:
                    send_msg(conn.sock, header, payload)
            except (ConnectionError, OSError):
                failed = True
                self._reap(conn)
        return failed

    def _resolve(self, conn: _Connection, job_id: int, status: str,
                 value) -> None:
        """A worker finished a job: push the outcome to its session."""
        with self._cv:
            conn.leases.pop(job_id, None)
            conn.jobs_done += 1
            # No row: the job was cancelled, its session closed, or this
            # is a duplicate resolution (an expired-lease rerun and the
            # original both finished).  Results are pure functions of
            # pickled inputs, so the first wins and the rest are dropped.
            job = self._jobs.pop(job_id, None)
            if job is None:
                return
            session = self._sessions[job.session]
            session.completed += 1
            self.jobs_completed += 1
            send = self._batch_result(session, job, status, value)
            pending = any(s.queue for s in self._sessions.values())
        self._send_all([send])
        if pending:
            self._dispatch()

    @staticmethod
    def _batch_result(session: _Session, job: _Job, status: str, value):
        """The ``batch_result`` frame carrying one outcome to its owner."""
        if status == "ok":
            return (session.conn, {"type": MSG_BATCH_RESULT,
                                   "job": job.tag, "status": "ok"}, value)
        return (session.conn, {"type": MSG_BATCH_RESULT, "job": job.tag,
                               "status": "error", "error": str(value)}, None)

    # -- liveness -------------------------------------------------------

    def _monitor_loop(self) -> None:
        """Expire overdue leases and evict silent connections."""
        while True:
            tick = self._tick_s()
            with self._cv:
                if self._closing:
                    return
                self._cv.wait(timeout=tick)
                if self._closing:
                    return
                requeued, sends = self._expire_leases_locked()
                stale = self._stale_connections_locked()
            # Outside the lock, and shutdown-only: the eviction wakes
            # the connection's serve thread, which reaps and closes.
            for conn in stale:
                self._disconnect_socket(conn.sock)
            if sends:
                self._send_all(sends)
            if requeued:
                self._dispatch()

    def _expire_leases_locked(self):
        """Requeue overdue leases (caller holds _cv).

        Returns ``(requeued, sends)``: whether any job went back on a
        queue, plus ``batch_result`` error frames for client jobs that
        just exhausted their attempts (sent outside the lock).
        """
        if self.lease_timeout_s is None:
            return False, []
        now = time.monotonic()
        requeued = False
        sends = []
        for conn in sorted(self._connections, key=lambda c: c.seq):
            overdue = [job_id for job_id, deadline in conn.leases.items()
                       if now >= deadline]
            for job_id in overdue:
                del conn.leases[job_id]
                self.lease_expiries += 1
                job = self._jobs.get(job_id)
                attempts = job.attempts if job is not None else 0
                did, send = self._drop_lease_locked(job_id, (
                    f"job {job_id} timed out on {attempts} workers "
                    f"(last: {conn.name or conn.peer}, lease "
                    f"{self.lease_timeout_s:.0f}s); giving up"
                ))
                requeued = requeued or did
                if send is not None:
                    sends.append(send)
        return requeued, sends

    def _drop_lease_locked(self, job_id: int, message: str):
        """Handle one lost lease: requeue or fail (caller holds _cv).

        Returns ``(requeued, send)`` — ``send`` is a ``batch_result``
        error frame when the job just ran out of attempts (``None``
        otherwise).
        """
        job = self._jobs.get(job_id)
        if job is None:
            return False, None  # resolved, cancelled, or session closed
        session = self._sessions[job.session]
        if job.attempts >= self.max_attempts:
            del self._jobs[job_id]
            session.completed += 1
            self.jobs_completed += 1
            return False, self._batch_result(session, job, "error", message)
        # Front of the owning session's queue: the lost job is its
        # oldest outstanding work, so it must not wait behind the whole
        # backlog again.
        session.queue.appendleft(job_id)
        self.reschedules += 1
        return True, None

    def _stale_connections_locked(self) -> list[_Connection]:
        """Connections gone silent past their heartbeat tolerance.

        A peer that advertised a *slower* heartbeat than the default
        in its ``hello`` (``--heartbeat 45``) is judged against that
        interval — three missed beats — not the global floor, so a
        legitimately configured fleet is never evicted while healthy.
        Clients are evicted like workers (a half-open client session
        would otherwise hold its queue forever); observers never are.
        """
        if self.heartbeat_timeout_s is None:
            return []
        now = time.monotonic()
        stale = []
        for conn in sorted(self._connections, key=lambda c: c.seq):
            if conn.evicting or conn.role == "observer":
                continue
            tolerance = max(self.heartbeat_timeout_s,
                            3.0 * conn.heartbeat_s)
            if now - conn.last_recv >= tolerance:
                stale.append(conn)
        for conn in stale:
            conn.evicting = True
        self.evictions += len(stale)
        return stale

    def _close_session_locked(self, session: _Session) -> None:
        """Garbage-collect a dead client session (caller holds _cv).

        Queued jobs are dropped before they waste a worker; jobs a
        worker already holds run out their lease, and their late
        results are dropped because the job rows are gone.  Nothing is
        retained: a client that died mid-batch must not leak its
        backlog or its results.  Every job row therefore belongs to a
        live session.
        """
        if self._sessions.pop(session.id, None) is None:
            return
        doomed = [job_id for job_id, job in self._jobs.items()
                  if job.session == session.id]
        for job_id in doomed:
            del self._jobs[job_id]
        session.queue.clear()
        self.sessions_closed += 1

    def _reap(self, conn: _Connection) -> None:
        """Connection died: reschedule its leases, drop its state.

        Callable from any thread (serve, monitor, dispatch): it only
        shuts the socket down; the fd itself is closed by the
        connection's serve thread when it exits.  A client connection's
        session is garbage-collected here — EOF and heartbeat eviction
        both funnel into this path.
        """
        self._disconnect_socket(conn.sock)
        sends = []
        with self._cv:
            if conn.reaped:
                return
            conn.reaped = True
            self._connections.discard(conn)
            for job_id in sorted(conn.leases):
                job = self._jobs.get(job_id)
                attempts = job.attempts if job is not None else 0
                _requeued, send = self._drop_lease_locked(job_id, (
                    f"job {job_id} lost {attempts} workers "
                    f"(last: {conn.name or conn.peer}); giving up"
                ))
                if send is not None:
                    sends.append(send)
            conn.leases.clear()
            if conn.session_id is not None:
                session = self._sessions.get(conn.session_id)
                if session is not None:
                    self._close_session_locked(session)
        if sends:
            self._send_all(sends)
        self._dispatch()
