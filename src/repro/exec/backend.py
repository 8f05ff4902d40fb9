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
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Protocol, Sequence, runtime_checkable

#: Recognized ``MicroGradConfig.backend`` spellings.
BACKEND_NAMES = ("auto", "serial", "thread", "process", "dist")


def default_jobs() -> int:
    """Worker count used when ``jobs=0`` asks for "all cores"."""
    return max(1, (os.cpu_count() or 2) - 1)


class CacheSettingsMixin:
    """Shared ``cache_dir``/``cache_max_entries`` plumbing.

    Every backend carries the run's cache settings so the job layer
    (:func:`repro.exec.jobs.evaluate_configs`) can attach the shared
    on-disk trace-artifact store in whichever process evaluation runs —
    the calling process for serial/thread execution, each worker for
    pools and distributed clusters.
    """

    cache_dir: str | None = None
    cache_max_entries: int | None = None

    def _set_cache(self, cache_dir: str | None,
                   cache_max_entries: int | None) -> None:
        self.cache_dir = cache_dir
        self.cache_max_entries = cache_max_entries

    def artifact_store_spec(self) -> tuple[str, int | None] | None:
        """(store root, max entries) for workers, or ``None`` when off."""
        if not self.cache_dir:
            return None
        return (
            os.path.join(str(self.cache_dir), "artifacts"),
            self.cache_max_entries,
        )


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can map a function over items, preserving order.

    ``jobs`` is the worker count the job layer chunks batches for;
    :meth:`artifact_store_spec` comes from :class:`CacheSettingsMixin`.
    """

    name: str
    jobs: int

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item; results come back in input order."""
        ...

    def artifact_store_spec(self) -> tuple[str, int | None] | None:
        """(store root, max entries) for workers, or ``None`` when off."""
        ...

    def close(self) -> None:
        """Release worker resources (idempotent)."""
        ...


class SerialBackend(CacheSettingsMixin):
    """In-process, one-at-a-time execution — the reference backend."""

    name = "serial"
    jobs = 1

    def __init__(self, cache_dir: str | None = None,
                 cache_max_entries: int | None = None):
        self._set_cache(cache_dir, cache_max_entries)

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]

    def close(self) -> None:  # nothing to release
        pass


class ThreadBackend(CacheSettingsMixin):
    """Fan items out to an in-process thread pool.

    For platforms whose evaluation is dominated by pickling rather than
    compute — :class:`~repro.core.platform.NativeExecutionPlatform`
    interprets short windows, so shipping whole platforms and programs
    to worker processes costs more than it saves — threads share memory
    and skip serialization entirely.  Unpicklable platforms (closures,
    injected fakes) also run fine here.  Results preserve input order,
    so runs are bit-identical to serial execution.
    """

    def __init__(self, jobs: int | None = None,
                 cache_dir: str | None = None,
                 cache_max_entries: int | None = None):
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.name = f"thread[{self.jobs}]"
        self._set_cache(cache_dir, cache_max_entries)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.jobs)
        return self._pool

    def map(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessPoolBackend(CacheSettingsMixin):
    """Fan items out to a ``concurrent.futures`` process pool.

    The pool is created lazily on first use and reused across calls, so
    per-epoch batches do not pay worker startup repeatedly.  ``fn`` and
    the items must be picklable.  If the host cannot spawn processes at
    all (restricted sandboxes), the backend degrades to serial execution
    — results are identical either way, only slower.
    """

    def __init__(self, jobs: int | None = None,
                 cache_dir: str | None = None,
                 cache_max_entries: int | None = None):
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.name = f"process[{self.jobs}]"
        self._set_cache(cache_dir, cache_max_entries)
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._broken:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, PermissionError):
                self._broken = True
                return None
        return self._pool

    def map(self, fn: Callable, items: Sequence) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        if pool is None:
            return [fn(item) for item in items]
        try:
            return list(pool.map(fn, items))
        except BrokenProcessPool:
            # A worker died (OOM, signal); recreate on next call but do
            # not lose this batch.
            self.close()
            return [fn(item) for item in items]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


def _make_serial(jobs, cache, dist):
    return SerialBackend(**cache)


def _make_thread(jobs, cache, dist):
    return ThreadBackend(jobs, **cache)


def _make_process(jobs, cache, dist):
    return ProcessPoolBackend(jobs, **cache)


def _make_dist(jobs, cache, dist):
    from repro.dist.backend import DistributedBackend

    return DistributedBackend(jobs, **cache, **dist)


def _make_auto(jobs, cache, dist):
    wants_parallel = jobs is not None and (jobs == 0 or jobs > 1)
    return (ProcessPoolBackend(jobs, **cache) if wants_parallel
            else SerialBackend(**cache))


#: Registry mapping ``backend=`` spellings to factories; each factory
#: takes ``(jobs, cache-settings dict, dist-settings dict)``.
_BACKEND_FACTORIES = {
    "serial": _make_serial,
    "thread": _make_thread,
    "process": _make_process,
    "dist": _make_dist,
    "auto": _make_auto,
}


def backend_for(
    backend: str = "auto",
    jobs: int | None = 1,
    *,
    cache_dir: str | None = None,
    cache_max_entries: int | None = None,
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
            (:mod:`repro.dist`).
        jobs: worker count; ``0`` means all cores, ``None``/``1`` serial.
        cache_dir: run cache directory, propagated to every backend so
            workers can share the on-disk trace-artifact store.
        cache_max_entries: cache entry cap (LRU compaction).
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
    try:
        factory = _BACKEND_FACTORIES[backend]
    except KeyError:
        valid = "|".join(n for n in BACKEND_NAMES if n != "auto")
        raise ValueError(
            f"unknown execution backend {backend!r}: valid backends are "
            f"{valid} (or 'auto' to pick from the jobs count)"
        ) from None
    if backend != "dist" and (dist_addr is not None
                              or dist_workers is not None
                              or dist_lease_timeout is not None
                              or dist_priority is not None
                              or dist_secret is not None):
        # Silently ignoring these would leave the run outside the
        # cluster the user pointed it at.
        raise ValueError(
            f"dist_addr/dist_workers/dist_lease_timeout/dist_priority/"
            f"dist_secret only apply to backend='dist', got "
            f"backend={backend!r}"
        )
    cache = {"cache_dir": cache_dir, "cache_max_entries": cache_max_entries}
    dist = {"addr": dist_addr, "spawn_workers": dist_workers,
            "lease_timeout": dist_lease_timeout,
            "priority": dist_priority, "secret": dist_secret}
    return factory(jobs, cache, dist)

