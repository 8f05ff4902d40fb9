"""Worker side of the distributed evaluation service.

A worker is a single loop: connect to the coordinator, announce itself,
then pull one job at a time — each job is a pickled ``(fn, item)`` pair,
typically :func:`repro.exec.jobs._evaluate_chunk` bound to a platform
clone plus a chunk of knob configurations — execute it against this
process's local state, and stream the pickled result back.  Exceptions
travel back as ``error`` frames with the full traceback, so a bad knob
configuration surfaces in the tuning process instead of silently
stalling the queue.

Liveness: a daemon thread sends a ``ping`` every ``heartbeat_s``
seconds — on the same socket, so a worker that is busy inside a long
job still proves it is alive, and the coordinator's lease monitor only
reschedules jobs whose worker has actually gone silent or livelocked.
The job request itself *blocks*: the worker sends one ``request`` and
waits until the coordinator answers with a ``job`` the moment one is
enqueued.  Heartbeats are mandatory (``heartbeat_s`` must be > 0): a
coordinator that hears nothing from a worker evicts it.

Workers are launched either by ``python -m repro.cli worker --addr
host:port`` (any machine that can reach the coordinator) or spawned
locally by :class:`WorkerPool` /
:class:`~repro.dist.backend.DistributedBackend`.  Each evaluation chunk
attaches its caller's on-disk
:class:`~repro.sim.artifact.DiskArtifactStore`, so every worker on the
cluster reuses each trace artifact instead of recomputing it per
process; a ``cache_dir`` attaches a store before the first job.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
import traceback

from repro import obs
from repro.dist.protocol import (
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
    PROTOCOL_VERSION,
    ReceiveTimeout,
    client_handshake,
    connect,
    dumps_payload,
    loads_payload,
    recv_msg,
    send_msg,
)

#: Default heartbeat interval.  The coordinator evicts after
#: :data:`repro.dist.coordinator.DEFAULT_HEARTBEAT_TIMEOUT_S` of
#: silence, so this leaves an order of magnitude of slack.
WORKER_HEARTBEAT_S = 2.0

#: A worker that has heard *nothing* (no pong, no job) for this many
#: heartbeat intervals concludes the coordinator is gone — its own pings
#: elicit pongs, so a healthy link is never silent this long.
_COORDINATOR_SILENCE_FACTOR = 10.0


def _check_heartbeat(heartbeat_s: float) -> None:
    """Reject a heartbeat interval workers cannot run with."""
    if not heartbeat_s or heartbeat_s <= 0:
        raise ValueError(
            f"heartbeat_s must be > 0, got {heartbeat_s!r}: a worker "
            f"that never pings is evicted as hung"
        )


def _heartbeat_loop(sock: socket.socket, send_lock: threading.Lock,
                    interval_s: float, stop: threading.Event,
                    status_fn=None) -> None:
    """Send ``ping`` frames until stopped or the socket dies.

    With ``status_fn`` (a callable returning the ``status`` frame header
    fields, or ``None`` to skip a beat), each ping is followed by a
    ``status`` frame — the worker's metrics snapshot piggybacks on the
    liveness cadence instead of needing its own timer or connection.
    """
    while not stop.wait(interval_s):
        try:
            with send_lock:
                send_msg(sock, {"type": MSG_PING})
            if status_fn is not None:
                status = status_fn()
                if status:
                    with send_lock:
                        send_msg(sock, dict(status, type=MSG_STATUS))
        except (ConnectionError, OSError):
            return


def run_worker(
    addr: str,
    name: str | None = None,
    cache_dir: str | None = None,
    cache_max_entries: int | None = None,
    connect_retry_s: float = 10.0,
    max_jobs: int | None = None,
    heartbeat_s: float = WORKER_HEARTBEAT_S,
    stop: threading.Event | None = None,
    secret: str | None = None,
) -> int:
    """Serve jobs from the coordinator at ``addr`` until shutdown.

    Args:
        addr: coordinator ``host:port``.
        name: worker name announced to the coordinator (defaults to
            ``host-pid``).
        cache_dir: shared cache directory; enables the on-disk trace
            artifact store (under ``<cache_dir>/artifacts``) exactly as
            the tuning process does.
        cache_max_entries: artifact-store entry cap (LRU compaction).
        connect_retry_s: how long to keep retrying the initial connect —
            workers routinely start before the coordinator binds.
        max_jobs: exit after this many jobs (test hook; ``None`` serves
            until shutdown).
        heartbeat_s: ``ping`` interval in seconds (must be > 0).
        stop: optional event for a graceful drain — the worker finishes
            the job in hand, then disconnects instead of taking more.
        secret: shared secret for a coordinator serving an untrusted
            interface (``repro.cli serve --serve-secret``); the worker
            answers the ``auth_challenge`` in its hello.  Defaults to
            ``$REPRO_DIST_SECRET``.

    Returns:
        The number of jobs executed (including ones that raised).

    Raises:
        ValueError: ``heartbeat_s`` is not positive.
        RuntimeError: the coordinator rejected this worker (bad secret,
            protocol mismatch); the message carries its reason.
    """
    _check_heartbeat(heartbeat_s)
    if cache_dir:
        from repro.sim.artifact import attach_artifact_store

        attach_artifact_store(
            os.path.join(cache_dir, "artifacts"),
            max_entries=cache_max_entries,
        )
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    secret = secret or os.environ.get("REPRO_DIST_SECRET") or None
    sock = connect(addr, retry_for=connect_retry_s)
    send_lock = threading.Lock()
    stop = stop if stop is not None else threading.Event()
    heartbeat: threading.Thread | None = None
    # Shared with the heartbeat thread, which reports it in ``status``
    # frames (a list, not an int, so both threads see updates).
    executed_box = [0]

    def _status() -> dict:
        return {
            "jobs_executed": executed_box[0],
            "metrics": obs.snapshot().to_dict(),
        }

    try:
        with send_lock:
            client_handshake(sock, {
                "type": MSG_HELLO, "worker": worker_name,
                "proto": PROTOCOL_VERSION, "heartbeat": heartbeat_s,
            }, secret=secret)
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, float(heartbeat_s), stop, _status),
            name="dist-heartbeat", daemon=True,
        )
        heartbeat.start()
        silence_limit = heartbeat_s * _COORDINATOR_SILENCE_FACTOR
        while (max_jobs is None or executed_box[0] < max_jobs) \
                and not stop.is_set():
            with send_lock:
                send_msg(sock, {"type": MSG_REQUEST})
            frame = _await_reply(sock, addr, silence_limit, stop)
            if frame is None:  # stop requested / coordinator silent
                break
            header, payload = frame
            kind = header.get("type")
            if kind == MSG_SHUTDOWN:
                break
            if kind != MSG_JOB:
                raise ConnectionError(f"unexpected frame {header!r}")
            job_id = int(header["job"])
            executed_box[0] += 1
            obs.inc("worker.jobs_executed")
            # A stop request mid-job drains: the job in hand always
            # finishes and its result is sent before disconnecting.
            try:
                fn, item = loads_payload(payload or b"")
                result = fn(item)
            except BaseException as exc:  # noqa: BLE001 — travels to caller
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                with send_lock:
                    send_msg(
                        sock,
                        {
                            "type": MSG_ERROR,
                            "job": job_id,
                            "error": "".join(
                                traceback.format_exception(exc)
                            ).strip(),
                        },
                    )
            else:
                with send_lock:
                    send_msg(
                        sock,
                        {"type": MSG_RESULT, "job": job_id},
                        dumps_payload(result),
                    )
    except (ConnectionError, OSError):
        # Coordinator went away: treat as shutdown.  Anything this
        # worker held leased will be rescheduled on its side.
        pass
    finally:
        stop.set()
        if heartbeat is not None:
            heartbeat.join(timeout=2.0)
        try:
            sock.close()
        except OSError:
            pass
    return executed_box[0]


def _await_reply(sock, addr: str, silence_limit: float,
                 stop: threading.Event):
    """Wait for the coordinator's answer to a ``request``.

    Returns the ``(header, payload)`` frame, skipping ``pong``\\ s and
    storing ``prefetch`` pushes as they stream past, or ``None`` when a
    graceful stop was requested or the coordinator has been silent past
    ``silence_limit`` (dead link with no EOF).  A ``reject`` raises
    ``RuntimeError`` with the coordinator's reason.
    """
    last_frame = time.monotonic()
    while True:
        try:
            header, payload = recv_msg(sock, timeout=0.25)
        except ReceiveTimeout:
            if stop.is_set():
                return None
            if time.monotonic() - last_frame >= silence_limit:
                return None
            continue
        last_frame = time.monotonic()
        kind = header.get("type")
        if kind == MSG_PONG:
            continue
        if kind == MSG_PREFETCH:
            # Pushed artifacts arrive between the hello and the first
            # job (and whenever a client pushes mid-run): store them
            # before the next job needs the trace.
            _store_prefetched(payload)
            continue
        if kind == MSG_REJECT:
            raise RuntimeError(
                f"coordinator at {addr} rejected this worker: "
                f"{header.get('error', 'no reason given')}"
            )
        return header, payload


def _store_prefetched(payload: bytes | None) -> None:
    """Store one pushed trace artifact in the local artifact store."""
    obs.inc("prefetch.received")
    if payload is None:
        return
    from repro.sim.artifact import active_artifact_store

    try:
        artifact = loads_payload(payload)
    except Exception:  # noqa: BLE001 — a bad push must not kill the worker
        return
    store = active_artifact_store()
    if store is None or not hasattr(artifact, "fingerprint"):
        return
    try:
        store.put(artifact)
    except (OSError, ValueError, AttributeError):
        return
    obs.inc("prefetch.stored")


class WorkerPool:
    """Elastic pool of local worker processes with auto-respawn.

    The pool spawns ``count`` :func:`run_worker` processes against one
    coordinator address and then *keeps* that many alive: a monitor
    thread polls each slot and respawns any process that died — crashed
    on a poison job, OOM-killed, or torn down by a chaos test — so a
    long tuning run self-heals instead of slowly bleeding workers.

    Respawning is bounded by ``respawn_budget`` (total, across the pool
    lifetime): a systematically crashing fleet stops burning processes
    once the budget is spent, and the coordinator's poison-job attempts
    cap surfaces the underlying error.

    Args:
        addr: coordinator ``host:port`` the workers join.
        count: worker processes to keep alive.
        cache_dir / cache_max_entries: forwarded to every worker.
        respawn_budget: max respawns over the pool lifetime (``None``
            for ``2 * count + 2``; ``0`` disables respawning).
        heartbeat_s: worker heartbeat interval (must be > 0).
        secret: shared secret forwarded to every worker (a pool serving
            a secured ``repro.cli serve`` coordinator).
    """

    #: How often the monitor thread checks for dead workers.
    MONITOR_TICK_S = 0.2

    #: Lock discipline, statically enforced by the ``lock-discipline``
    #: checker (:mod:`repro.analysis`): the process list and the spawn/
    #: respawn accounting are shared between ``start``/``stop`` callers
    #: and the monitor thread.
    GUARDED_BY = {
        "_procs": "_lock",
        "_spawned": "_lock",
        "respawns": "_lock",
    }

    def __init__(self, addr: str, count: int,
                 cache_dir: str | None = None,
                 cache_max_entries: int | None = None,
                 respawn_budget: int | None = None,
                 heartbeat_s: float = WORKER_HEARTBEAT_S,
                 secret: str | None = None):
        if count < 1:
            raise ValueError("WorkerPool needs count >= 1")
        _check_heartbeat(heartbeat_s)
        self.addr = addr
        self.count = count
        self.cache_dir = cache_dir
        self.cache_max_entries = cache_max_entries
        self.respawn_budget = (2 * count + 2 if respawn_budget is None
                               else respawn_budget)
        self.heartbeat_s = heartbeat_s
        self.secret = secret
        self.respawns = 0
        self._spawned = 0
        self._procs: list[multiprocessing.Process] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None

    def _spawn_locked(self) -> multiprocessing.Process:
        """Start one worker process (caller holds ``_lock``)."""
        index = self._spawned
        self._spawned += 1
        proc = multiprocessing.Process(
            target=run_worker,
            args=(self.addr,),
            kwargs={
                "name": f"local-{index}",
                "cache_dir": self.cache_dir,
                "cache_max_entries": self.cache_max_entries,
                "heartbeat_s": self.heartbeat_s,
                "secret": self.secret,
            },
            daemon=True,
        )
        proc.start()
        return proc

    def start(self) -> None:
        """Spawn the initial workers and the respawn monitor."""
        with self._lock:
            if self._procs:
                return
            # Append as we go: if spawn k of N raises (fork limit), the
            # k-1 already-running workers are on record for stop().
            for _ in range(self.count):
                self._procs.append(self._spawn_locked())
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="dist-pool-monitor", daemon=True
        )
        self._monitor.start()

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for proc in self._procs if proc.is_alive())

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.MONITOR_TICK_S):
            with self._lock:
                if self._stop.is_set():
                    return
                for slot, proc in enumerate(self._procs):
                    if proc.is_alive():
                        continue
                    if self.respawns >= self.respawn_budget:
                        return  # budget spent: stop watching entirely
                    proc.join(timeout=0)  # reap the zombie
                    try:
                        self._procs[slot] = self._spawn_locked()
                    except OSError:
                        return  # host cannot fork anymore; stop trying
                    self.respawns += 1

    def stop(self) -> None:
        """Stop respawning and terminate the workers (idempotent)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
            self._monitor = None
        with self._lock:
            procs, self._procs = self._procs, []
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
