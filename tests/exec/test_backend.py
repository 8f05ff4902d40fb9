"""Unit tests for the execution backends (ordering, selection, chunking)."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.exec.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    backend_for,
    default_jobs,
)
from repro.exec.jobs import chunk_groups


def _square(x):
    return x * x


def _fail_initializer():
    raise RuntimeError("worker cannot start")


class _FirstPoolBreaks:
    """Executor factory whose first pool is broken: every worker's
    initializer raises, so its ``map`` raises ``BrokenExecutor``."""

    def __init__(self, executor):
        self.executor = executor
        self.pools = []

    def __call__(self, max_workers):
        initializer = None if self.pools else _fail_initializer
        pool = self.executor(max_workers=max_workers,
                             initializer=initializer)
        self.pools.append(pool)
        return pool


def _check_broken_pool_falls_back(backend, executor):
    factory = _FirstPoolBreaks(executor)
    backend.executor = factory
    try:
        # The broken pool's batch runs in-process, in order...
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        # ...and the pool is dropped, not reused...
        assert backend._pool is None
        # ...so the next batch starts a fresh one.
        assert backend.map(_square, [4, 5]) == [16, 25]
        assert len(factory.pools) == 2
        assert backend._pool is factory.pools[1]
    finally:
        backend.close()


class TestSerialBackend:
    def test_maps_in_order(self):
        assert SerialBackend().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert SerialBackend().map(_square, []) == []

    def test_close_is_idempotent(self):
        backend = SerialBackend()
        backend.close()
        backend.close()


class TestThreadBackend:
    def test_maps_in_order(self):
        with ThreadBackend(jobs=4) as backend:
            assert backend.map(_square, list(range(8))) == [
                x * x for x in range(8)
            ]

    def test_unpicklable_work_is_fine(self):
        # The whole point of the thread backend: closures and platforms
        # that cannot pickle still fan out (no serialization boundary).
        offset = 10
        with ThreadBackend(jobs=2) as backend:
            assert backend.map(lambda x: x + offset, [1, 2, 3]) == [
                11, 12, 13
            ]

    def test_single_item_stays_in_caller(self):
        backend = ThreadBackend(jobs=2)
        assert backend.map(_square, [3]) == [9]
        assert backend._pool is None
        backend.close()

    def test_jobs_zero_means_all_cores(self):
        backend = ThreadBackend(jobs=0)
        assert backend.jobs == default_jobs()
        backend.close()

    def test_reusable_after_close(self):
        backend = ThreadBackend(jobs=2)
        assert backend.map(_square, [1, 2]) == [1, 4]
        backend.close()
        assert backend.map(_square, [2, 3]) == [4, 9]
        backend.close()

    def test_name_reports_workers(self):
        assert ThreadBackend(jobs=3).name == "thread[3]"

    def test_broken_pool_falls_back_in_process(self):
        _check_broken_pool_falls_back(ThreadBackend(jobs=2),
                                      ThreadPoolExecutor)


class TestProcessPoolBackend:
    def test_maps_in_order(self):
        with ProcessPoolBackend(jobs=2) as backend:
            assert backend.map(_square, list(range(8))) == [
                x * x for x in range(8)
            ]

    def test_single_item_stays_in_process(self):
        backend = ProcessPoolBackend(jobs=2)
        assert backend.map(_square, [3]) == [9]
        # No pool should have been spun up for a single item.
        assert backend._pool is None
        backend.close()

    def test_jobs_zero_means_all_cores(self):
        backend = ProcessPoolBackend(jobs=0)
        assert backend.jobs == default_jobs()
        backend.close()

    def test_reusable_after_close(self):
        backend = ProcessPoolBackend(jobs=2)
        assert backend.map(_square, [1, 2]) == [1, 4]
        backend.close()
        assert backend.map(_square, [2, 3]) == [4, 9]
        backend.close()

    def test_broken_pool_falls_back_in_process(self):
        _check_broken_pool_falls_back(ProcessPoolBackend(jobs=2),
                                      ProcessPoolExecutor)

    def test_pool_that_cannot_start_runs_in_process(self):
        def no_processes(max_workers):
            raise PermissionError("sandbox forbids fork")

        backend = ProcessPoolBackend(jobs=2)
        backend.executor = no_processes
        assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert backend._pool is None
        backend.close()


class TestBackendFor:
    def test_serial_by_name(self):
        assert isinstance(backend_for("serial", jobs=8), SerialBackend)

    def test_thread_by_name(self):
        backend = backend_for("thread", jobs=3)
        assert isinstance(backend, ThreadBackend)
        assert backend.jobs == 3
        backend.close()

    def test_process_by_name(self):
        backend = backend_for("process", jobs=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3
        backend.close()

    def test_auto_serial_for_one_job(self):
        assert isinstance(backend_for("auto", jobs=1), SerialBackend)

    def test_auto_process_for_many_jobs(self):
        backend = backend_for("auto", jobs=4)
        assert isinstance(backend, ProcessPoolBackend)
        backend.close()

    def test_auto_process_for_all_cores(self):
        backend = backend_for("auto", jobs=0)
        assert isinstance(backend, ProcessPoolBackend)
        backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            backend_for("gpu", jobs=1)


def _chunk_distinct(items, chunks):
    """``chunk_groups`` with one single-member group per item."""
    return chunk_groups(items, [1] * len(items), chunks)


class TestChunkEvenly:
    """All-singleton groups: ``chunk_groups`` degenerates to even chunks."""

    def test_concatenation_preserves_order(self):
        items = list(range(11))
        chunks = _chunk_distinct(items, 3)
        assert [x for chunk in chunks for x in chunk] == items

    def test_no_empty_chunks(self):
        assert all(_chunk_distinct([1, 2], 5))

    @pytest.mark.parametrize("n,chunks", [(10, 3), (7, 7), (1, 4), (12, 4)])
    def test_sizes_differ_by_at_most_one(self, n, chunks):
        sizes = [len(c) for c in _chunk_distinct(list(range(n)), chunks)]
        assert len(sizes) == min(n, chunks)
        assert max(sizes) - min(sizes) <= 1


class TestChunkOnGroups:
    """``chunk_groups`` over groups of several members."""

    def _chunk(self, sizes, chunks):
        """Chunk group ids ``0..len(sizes)-1`` weighted by ``sizes``."""
        return chunk_groups(list(range(len(sizes))), sizes, chunks)

    def test_concatenation_preserves_order(self):
        chunks = self._chunk([2, 3, 1, 2], 3)
        assert [g for chunk in chunks for g in chunk] == [0, 1, 2, 3]

    def test_groups_never_split(self):
        sizes = [3, 4, 2, 5]
        for n in range(1, 8):
            chunks = self._chunk(sizes, n)
            # Whole groups are the unit: every group id lands in exactly
            # one chunk, and the chunk count never exceeds the groups.
            assert sorted(g for chunk in chunks for g in chunk) == [0, 1, 2, 3]
            assert len(chunks) == min(n, len(sizes))

    def test_no_empty_chunks(self):
        assert all(self._chunk([1, 1, 1], 10))

    def test_balances_member_counts(self):
        # One big group fills the first chunk on its own; the singletons
        # share the second, five members each.
        assert self._chunk([5, 1, 1, 1, 1, 1], 2) == [[0], [1, 2, 3, 4, 5]]

    def test_distinct_keys_degenerate_to_even_chunks(self):
        assert [len(c) for c in self._chunk([1] * 10, 3)] == [4, 3, 3]

    def test_single_group_yields_single_chunk(self):
        assert self._chunk([9], 4) == [[0]]

    def test_empty_input(self):
        assert self._chunk([], 3) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            chunk_groups([1, 2], [1], 2)
