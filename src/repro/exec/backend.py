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
    #: Smallest chunk worth shipping when evaluation can batch
    #: equivalence groups: chunking below this size shears groups apart
    #: and forfeits the shared simulation pass (see
    #: :func:`chunk_on_groups`).  ``1`` preserves the historical
    #: pure-``jobs`` chunking.
    batch_group_min: int = 1

    def _set_cache(self, cache_dir: str | None,
                   cache_max_entries: int | None,
                   batch_group_min: int = 1) -> None:
        self.cache_dir = cache_dir
        self.cache_max_entries = cache_max_entries
        self.batch_group_min = max(1, int(batch_group_min))

    def chunk_hint(self, n_items: int) -> int:
        """How many chunks an ``n_items`` batch should split into.

        The worker count (``self.jobs`` — on the distributed backend a
        *live* connection count) capped so the average chunk stays at
        least :attr:`batch_group_min` items: more workers than that
        would shear equivalence groups across chunk boundaries, and a
        split group forfeits the generation-batched shared pass.
        """
        chunks = max(1, self.jobs)
        if self.batch_group_min > 1:
            chunks = min(chunks, max(1, n_items // self.batch_group_min))
        return chunks

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

    The chunk-planning members (``batch_group_min``, :meth:`chunk_hint`,
    :meth:`artifact_store_spec`) come from :class:`CacheSettingsMixin`.
    """

    name: str
    jobs: int
    batch_group_min: int

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item; results come back in input order."""
        ...

    def chunk_hint(self, n_items: int) -> int:
        """How many chunks an ``n_items`` batch should split into."""
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
                 cache_max_entries: int | None = None,
                 batch_group_min: int = 1):
        self._set_cache(cache_dir, cache_max_entries, batch_group_min)

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
                 cache_max_entries: int | None = None,
                 batch_group_min: int = 1):
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.name = f"thread[{self.jobs}]"
        self._set_cache(cache_dir, cache_max_entries, batch_group_min)
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
                 cache_max_entries: int | None = None,
                 batch_group_min: int = 1):
        self.jobs = jobs if jobs and jobs > 0 else default_jobs()
        self.name = f"process[{self.jobs}]"
        self._set_cache(cache_dir, cache_max_entries, batch_group_min)
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
    batch_group_min: int = 1,
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
        batch_group_min: smallest chunk worth shipping when evaluation
            batches equivalence groups; caps every backend's
            ``chunk_hint`` so whole groups land on one worker.
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
    cache = {"cache_dir": cache_dir, "cache_max_entries": cache_max_entries,
             "batch_group_min": batch_group_min}
    dist = {"addr": dist_addr, "spawn_workers": dist_workers,
            "lease_timeout": dist_lease_timeout,
            "priority": dist_priority, "secret": dist_secret}
    return factory(jobs, cache, dist)


def chunk_on_groups(
    items: Sequence, chunks: int, keys: Sequence, min_chunk: int = 1
) -> list[list]:
    """Split ``items`` into contiguous pieces along group boundaries.

    ``keys[i]`` labels item ``i``'s equivalence group; adjacent items
    with equal keys form a *run*, and no run is ever split across two
    chunks — a split group forfeits the generation-batched shared pass,
    which costs more than a slightly uneven chunk ever could.  The chunk
    count is additionally capped so the *average* chunk holds at least
    ``min_chunk`` items (individual chunks may be smaller when group
    layout forces it — this is a packing hint, not a guarantee).

    Order is preserved under concatenation; no chunk is empty.  With
    all-distinct keys and ``min_chunk=1`` this degenerates to even
    chunking: sizes differ by at most one.
    """
    items = list(items)
    keys = list(keys)
    if len(items) != len(keys):
        raise ValueError(f"{len(items)} items but {len(keys)} keys")
    if not items:
        return []
    runs: list[int] = []
    start = 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i] != keys[start]:
            runs.append(i - start)
            start = i
    chunks = max(1, min(
        chunks,
        max(1, len(items) // max(1, min_chunk)),
        len(runs),
    ))
    out = []
    pos = 0
    run_idx = 0
    remaining = len(items)
    for chunks_left in range(chunks, 0, -1):
        if chunks_left == 1:
            out.append(items[pos:])
            break
        target = -(-remaining // chunks_left)  # ceil
        # Reserve one run for each later chunk so none ends up empty.
        limit = len(runs) - (chunks_left - 1)
        size = runs[run_idx]
        run_idx += 1
        while run_idx < limit and size + runs[run_idx] <= target:
            size += runs[run_idx]
            run_idx += 1
        out.append(items[pos:pos + size])
        pos += size
        remaining -= size
    return out
