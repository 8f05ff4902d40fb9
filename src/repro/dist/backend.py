"""``DistributedBackend``: cluster execution as an ExecutionBackend.

Selecting ``backend=dist`` gives every tuner and use case multi-host
fan-out with zero call-site changes.  Every batch travels through one
:class:`~repro.dist.client.ClientSession`; the two modes differ only in
whose cluster the session joins:

* **Owner mode** (no ``dist_addr``): the backend starts a private
  :class:`~repro.dist.coordinator.Coordinator` on an ephemeral loopback
  port, keeps ``--dist-workers`` local worker processes alive through
  an elastic :class:`~repro.dist.worker.WorkerPool`, and joins that
  cluster as its only client session — a self-contained cluster that
  lives and dies with this run.
* **Client mode** (``dist_addr`` given): the address names an
  *external persistent* cluster (``repro.cli serve``); the backend
  spawns and owns **nothing**.  It opens its session there, prefetches
  the newest trace artifacts of this process's artifact store to the
  worker fleet, and submits its batches into the shared fair scheduler
  alongside every other tenant.

Either way the contract is the same as every other backend: ``map(fn,
items)`` in, ordered results out, bit-identical to serial execution.
The job layer chunks a batch by the backend's own workers: the spawn
count in owner mode, the session's live worker count in client mode.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import dumps_payload, loads_payload
from repro.dist.worker import WorkerPool

# Safe despite repro.exec.__init__ importing this module eagerly:
# repro.exec.backend itself only imports repro.dist lazily (inside
# backend_for), so the module graph stays acyclic.
from repro.exec.backend import default_jobs
from repro.sim.artifact import active_artifact_store

#: Newest local artifacts a client session pushes to the cluster ahead
#: of its first batch (see :meth:`DiskArtifactStore.recent`).
PREFETCH_RECENT_LIMIT = 8


class DistributedBackend:
    """Fan items out to workers connected over the dist protocol.

    Args:
        addr: ``host:port`` of an external persistent coordinator
            (``repro.cli serve``) to join as a client session; ``None``
            starts a private coordinator on an ephemeral loopback port
            (owner mode, purely local fan-out).
        spawn_workers: local worker processes to keep alive in owner
            mode (``None`` = :func:`~repro.exec.backend.default_jobs`).
            Rejected (non-zero) in client mode: a shared cluster's
            workers are started with ``repro.cli worker`` or
            ``repro.cli serve --workers``, never owned by one tenant.
        worker_grace: seconds ``map`` waits for a first worker before
            failing a run pointed at an empty cluster.
        lease_timeout: seconds a leased job may stay unresolved before
            the coordinator requeues it (owner mode only; a persistent
            cluster's lease policy is set by ``repro.cli serve``).
        respawn_budget: total local-worker respawns the elastic pool
            may perform (``None`` = pool default, ``0`` disables).
        priority: fair-share weight of this client session (client
            mode; ``None`` = 1.0).
        secret: shared secret for a secured coordinator (client mode;
            defaults to ``$REPRO_DIST_SECRET``).
        session: session name shown in ``repro.cli status`` rows.

    If the host cannot bind sockets or spawn processes at all
    (restricted sandboxes), owner mode degrades to serial in-process
    execution — results are identical either way, only slower.  Client
    mode never degrades silently: an unreachable or rejecting cluster
    is a loud error, because the user explicitly pointed at it.
    """

    def __init__(
        self,
        addr: str | None = None,
        spawn_workers: int | None = None,
        worker_grace: float = 60.0,
        lease_timeout: float | None = None,
        respawn_budget: int | None = None,
        priority: float | None = None,
        secret: str | None = None,
        session: str | None = None,
    ):
        self.client_mode = addr is not None
        if self.client_mode and spawn_workers:
            raise ValueError(
                "dist_addr points at an external persistent cluster; "
                "its workers are started with 'repro.cli worker' or "
                "'repro.cli serve --workers', not dist_workers"
            )
        if spawn_workers is None:
            # Nothing to connect remotely and nothing local would
            # deadlock; default to local fan-out when no addr is given.
            spawn_workers = 0 if addr else default_jobs()
        self.spawn_workers = spawn_workers
        self.addr = addr
        self.worker_grace = worker_grace
        self.lease_timeout = lease_timeout
        self.respawn_budget = respawn_budget
        self.priority = float(priority) if priority else 1.0
        self.secret = secret or None
        self.session_name = session
        self.name = (
            f"dist[{spawn_workers}]" if addr is None
            else f"dist-client@{addr}"
        )
        self.coordinator: Coordinator | None = None
        self.pool: WorkerPool | None = None
        self.client: ClientSession | None = None
        self._broken = False

    @property
    def jobs(self) -> int:
        """Worker count the job layer chunks batches for.

        Owner mode: the spawn count, which the elastic pool keeps
        alive.  Client mode: the live worker count from the session's
        status probes (an external cluster's size has nothing to do
        with this host's cores), :func:`default_jobs` until one answers.
        """
        if not self.client_mode:
            return max(1, self.spawn_workers)
        client = self.client
        live = client.workers_live() if client is not None else None
        return live or default_jobs()

    # -- lifecycle ------------------------------------------------------

    def _ensure_started(self) -> Coordinator | None:
        """Start (once) the owner-mode loopback cluster; ``None`` when
        this host cannot bind sockets or spawn processes."""
        if self._broken:
            return None
        if self.coordinator is not None:
            return self.coordinator
        coordinator = Coordinator(
            host="127.0.0.1", port=0,
            **({} if self.lease_timeout is None
               else {"lease_timeout_s": self.lease_timeout}),
        )
        try:
            bound = coordinator.start()
        except OSError:
            self._broken = True
            return None
        if self.spawn_workers:
            pool = WorkerPool(bound, self.spawn_workers,
                              respawn_budget=self.respawn_budget)
            try:
                pool.start()
            except (OSError, PermissionError):
                coordinator.shutdown()
                pool.stop()
                self._broken = True
                return None
            self.pool = pool
        self.coordinator = coordinator
        return coordinator

    def _ensure_session(self) -> ClientSession | None:
        """Open (once) this run's session; ``None`` when owner mode
        cannot start its loopback cluster (serial degradation).

        Client-mode failures are loud: the user explicitly pointed
        ``dist_addr`` at a persistent cluster, so an unreachable or
        rejecting coordinator must never degrade to a silent local run.
        """
        if self.client is not None:
            return self.client
        if self.client_mode:
            addr = self.addr
        else:
            coordinator = self._ensure_started()
            if coordinator is None:
                return None
            addr = coordinator.addr
        session = ClientSession(
            addr, session=self.session_name,
            priority=self.priority, secret=self.secret,
        )
        try:
            session.start()
        except (OSError, RuntimeError) as exc:
            # OSError: TCP connect failed.  RuntimeError: the socket
            # opened but the session never came up (half-dead listener,
            # rejected secret — the cause rides along in the message).
            hint = (f"; start one with 'python -m repro.cli serve "
                    f"--addr {addr}'" if self.client_mode else "")
            raise RuntimeError(
                f"cannot reach dist coordinator at {addr}: {exc}{hint}"
            ) from exc
        self.client = session
        if self.client_mode:
            self._prefetch_recent(session)
        return session

    def _prefetch_recent(self, session: ClientSession) -> None:
        """Push this process's newest artifacts before the first dispatch."""
        store = active_artifact_store()
        if store is None:
            return
        for artifact in store.recent(PREFETCH_RECENT_LIMIT):
            session.prefetch(artifact)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.coordinator is not None:
            self.coordinator.shutdown()
            self.coordinator = None
        if self.pool is not None:
            self.pool.stop()
            self.pool = None

    def __enter__(self) -> "DistributedBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- execution ------------------------------------------------------

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item via the cluster, in input order.

        Outcomes are drained in input order as they land, so the first
        failed job (in input order) raises at once instead of after the
        whole batch has run.
        """
        items = list(items)
        if not items:
            return []
        session = self._ensure_session()
        if session is None:
            return [fn(item) for item in items]
        tags = [
            session.submit(dumps_payload((fn, item))) for item in items
        ]
        try:
            results: list = []
            landed: dict[int, tuple[str, object]] = {}
            for tag, outcome in session.as_completed(
                tags, worker_grace=self.worker_grace
            ):
                landed[tag] = outcome
                while (len(results) < len(tags)
                       and tags[len(results)] in landed):
                    status, value = landed.pop(tags[len(results)])
                    if status != "ok":
                        raise RuntimeError(
                            f"distributed job failed:\n{value}"
                        )
                    results.append(loads_payload(value))
            return results
        finally:
            # Every batch ends here: forget its consumed outcomes, and
            # after a failure, tell the cluster to drop whatever it
            # still holds of the batch.
            session.cancel(tags)
