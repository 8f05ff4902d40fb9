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
  the newest local trace artifacts to the worker fleet (owner-mode
  workers attach the same cache dir instead), and submits its batches
  into the shared fair scheduler alongside every other tenant.

Either way the contract is the same as every other backend: ``map(fn,
items)`` in, ordered results out, bit-identical to serial execution.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import dumps_payload, loads_payload
from repro.dist.worker import WorkerPool

# Safe despite repro.exec.__init__ importing this module eagerly:
# repro.exec.backend itself only imports repro.dist lazily (inside the
# backend_for factory), so the module graph stays acyclic.
from repro.exec.backend import CacheSettingsMixin

#: Newest local artifacts a client session pushes to the cluster ahead
#: of its first batch (see :meth:`DiskArtifactStore.recent`).
PREFETCH_RECENT_LIMIT = 8


def _default_local_workers() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


class DistributedBackend(CacheSettingsMixin):
    """Fan items out to workers connected over the dist protocol.

    Args:
        jobs: explicit chunking hint: ``evaluate_configs`` splits a
            batch into at most this many chunks of whole generation
            groups.  When omitted, the hint tracks the *live* worker
            count once the cluster is up (an external cluster's size
            has nothing to do with this host's core count), with the
            spawn count — or the local-core default — as the
            pre-connect floor.
        addr: ``host:port`` of an external persistent coordinator
            (``repro.cli serve``) to join as a client session; ``None``
            starts a private coordinator on an ephemeral loopback port
            (owner mode, purely local fan-out).
        spawn_workers: local worker processes to keep alive in owner
            mode.  Rejected (non-zero) in client mode: a shared
            cluster's workers are started with ``repro.cli worker`` or
            ``repro.cli serve --workers``, never owned by one tenant.
        cache_dir: shared cache directory handed to spawned workers
            (and used locally) for the on-disk trace artifact store; in
            client mode it is also the prefetch seed.
        cache_max_entries: artifact/result store entry cap.
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
        jobs: int | None = None,
        addr: str | None = None,
        spawn_workers: int | None = None,
        cache_dir: str | None = None,
        cache_max_entries: int | None = None,
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
            spawn_workers = 0 if addr else _default_local_workers()
        self.spawn_workers = spawn_workers
        self._jobs_explicit = jobs if jobs and jobs > 0 else None
        self._jobs_floor = self._jobs_explicit or (
            spawn_workers or _default_local_workers()
        )
        self.addr = addr
        self._set_cache(cache_dir, cache_max_entries)
        self.worker_grace = worker_grace
        self.lease_timeout = lease_timeout
        self.respawn_budget = respawn_budget
        self.priority = float(priority) if priority else 1.0
        self.secret = secret or None
        self.session_name = session
        self.name = (
            f"dist[{self._jobs_floor}]" if addr is None
            else f"dist-client@{addr}"
        )
        self.coordinator: Coordinator | None = None
        self.pool: WorkerPool | None = None
        self.client: ClientSession | None = None
        self._broken = False

    @property
    def jobs(self) -> int:
        """Chunking hint: live cluster size once workers have joined.

        An explicit ``jobs=`` always wins.  Otherwise, once the
        session's status probes have counted the cluster's workers, the
        hint is that live count; sizing chunks for an external cluster
        from this host's ``cpu_count`` would be unrelated to reality.
        Before the first worker is counted it falls back to the
        spawn-count/core-count floor.
        """
        if self._jobs_explicit is not None:
            return self._jobs_explicit
        client = self.client
        live = client.workers_live() if client is not None else None
        return live or self._jobs_floor

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
            pool = WorkerPool(
                bound, self.spawn_workers,
                cache_dir=self.cache_dir,
                cache_max_entries=self.cache_max_entries,
                respawn_budget=self.respawn_budget,
            )
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
        """Push the newest local artifacts before the first dispatch."""
        spec = self.artifact_store_spec()
        if spec is None:
            return
        from repro.sim.artifact import attach_artifact_store

        root, cap = spec
        try:
            store = attach_artifact_store(root, max_entries=cap)
        except ValueError:
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
