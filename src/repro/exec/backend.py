"""Pluggable execution backends for independent evaluation jobs.

Modeled on the worker-pool idiom of instrumentation infrastructures: the
orchestration layer (tuners, the cloning driver) only ever says "run this
function over these items"; *how* the items run — in-process, on a thread
pool, fanned out over worker processes, or across a distributed cluster
(:mod:`repro.dist`) — is the backend's business.  Every backend preserves
input order, so a tuning run is bit-identical regardless of which one
executes it.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Protocol, Sequence, runtime_checkable

#: Recognized ``MicroGradConfig.backend`` spellings.
BACKEND_NAMES = ("auto", "serial", "thread", "process", "dist")


def default_jobs() -> int:
    """Worker count used when ``jobs=0`` asks for "all cores"."""
    return max(1, (os.cpu_count() or 2) - 1)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can map a function over items, preserving order.

    ``jobs`` is the worker count the job layer chunks batches for.
    """

    name: str
    jobs: int

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item; results come back in input order."""
        ...

    def close(self) -> None:
        """Release worker resources (idempotent)."""
        ...


class SerialBackend:
    """In-process, one-at-a-time execution — the reference backend."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:  # nothing to release
        pass


class PoolBackend:
    """Fan items out to a ``concurrent.futures`` executor.

    The pool is created lazily on first use and reused across calls, so
    per-epoch batches do not pay worker startup repeatedly; a batch of
    one item runs in the caller.  If the pool cannot start (restricted
    sandboxes) or breaks mid-batch (a worker died: OOM, signal), the
    batch runs in-process instead and a broken pool is recreated on the
    next call — results are identical either way, only slower.
    """

    #: ``concurrent.futures`` executor class, and the ``name`` prefix.
    executor: Callable
    kind: str

    def __init__(self, jobs: int | None = None):
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.name = f"{self.kind}[{self.jobs}]"
        self._pool = None
        self._unavailable = False

    def _ensure_pool(self):
        if self._pool is None and not self._unavailable:
            try:
                self._pool = self.executor(max_workers=self.jobs)
            except OSError:
                self._unavailable = True
        return self._pool

    def map(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        pool = self._ensure_pool() if len(items) > 1 else None
        if pool is not None:
            try:
                return list(pool.map(fn, items))
            except BrokenExecutor:
                # A worker died: run this batch here, and let the next
                # call start a fresh pool.
                self.close()
        return [fn(item) for item in items]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "PoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class ThreadBackend(PoolBackend):
    """Fan items out to an in-process thread pool.

    For platforms whose evaluation is dominated by pickling rather than
    compute — :class:`~repro.core.platform.NativeExecutionPlatform`
    interprets short windows, so shipping whole platforms and programs
    to worker processes costs more than it saves — threads share memory
    and skip serialization entirely.  Unpicklable platforms (closures,
    injected fakes) also run fine here.
    """

    executor = ThreadPoolExecutor
    kind = "thread"


class ProcessPoolBackend(PoolBackend):
    """Fan items out to worker processes; ``fn`` and items must pickle."""

    executor = ProcessPoolExecutor
    kind = "process"


def backend_for(
    backend: str = "auto",
    jobs: int | None = 1,
    *,
    dist_addr: str | None = None,
    dist_workers: int | None = None,
    dist_lease_timeout: float | None = None,
    dist_priority: float | None = None,
    dist_secret: str | None = None,
) -> ExecutionBackend:
    """Build the execution backend a config asks for.

    Args:
        backend: ``"serial"``, ``"thread"``, ``"process"``, ``"dist"``
            or ``"auto"``.  Auto picks the process pool whenever more
            than one job is requested (``jobs > 1`` or ``jobs == 0``
            meaning "all cores"); ``"thread"`` suits native-execution
            platforms where process pickling is pure overhead;
            ``"dist"`` fans out to coordinator/worker clusters
            (:mod:`repro.dist`) and chunks by its own worker count.
        jobs: thread/process worker count; ``0`` means all cores,
            ``None``/``1`` serial.  Ignored by ``"dist"``.
        dist_addr: ``host:port`` of an external persistent cluster
            (``repro.cli serve``) to join as a client session (dist
            only; ``None`` starts a private loopback coordinator).
        dist_workers: local worker processes the dist backend spawns in
            owner mode (dist only; rejected alongside ``dist_addr``).
        dist_lease_timeout: seconds a leased dist job may stay
            unresolved before the coordinator reschedules it (dist
            only; ``None`` keeps the coordinator default).
        dist_priority: fair-share weight of the client session on a
            shared cluster (dist only; ``None`` means equal share).
        dist_secret: shared secret answering a secured coordinator's
            auth challenge (dist only; ``None`` falls back to
            ``$REPRO_DIST_SECRET``).
    """
    if backend not in BACKEND_NAMES:
        valid = "|".join(n for n in BACKEND_NAMES if n != "auto")
        raise ValueError(
            f"unknown execution backend {backend!r}: valid backends are "
            f"{valid} (or 'auto' to pick from the jobs count)"
        )
    if backend == "dist":
        from repro.dist.backend import DistributedBackend

        return DistributedBackend(
            addr=dist_addr, spawn_workers=dist_workers,
            lease_timeout=dist_lease_timeout, priority=dist_priority,
            secret=dist_secret,
        )
    if (dist_addr is not None or dist_workers is not None
            or dist_lease_timeout is not None or dist_priority is not None
            or dist_secret is not None):
        # Silently ignoring these would leave the run outside the
        # cluster the user pointed it at.
        raise ValueError(
            f"dist_addr/dist_workers/dist_lease_timeout/dist_priority/"
            f"dist_secret only apply to backend='dist', got "
            f"backend={backend!r}"
        )
    if backend == "thread":
        return ThreadBackend(jobs)
    if backend == "process" or (
        backend == "auto" and jobs is not None and (jobs == 0 or jobs > 1)
    ):
        return ProcessPoolBackend(jobs)
    return SerialBackend()
