"""Unit tests for the execution backends (ordering, selection, chunking)."""

import pytest

from repro.exec.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    backend_for,
    chunk_on_groups,
    default_jobs,
)


def _square(x):
    return x * x


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
    """``chunk_on_groups`` with one group per item."""
    return chunk_on_groups(items, chunks, [str(x) for x in items])


class TestChunkEvenly:
    """All-distinct keys: ``chunk_on_groups`` degenerates to even chunks."""

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
    def _chunk(self, keys, chunks, min_chunk=1):
        from repro.exec.backend import chunk_on_groups

        items = list(range(len(keys)))
        return chunk_on_groups(items, chunks, keys, min_chunk=min_chunk)

    def test_concatenation_preserves_order(self):
        keys = ["a", "a", "b", "b", "b", "c", "d", "d"]
        chunks = self._chunk(keys, 3)
        assert [x for chunk in chunks for x in chunk] == list(range(8))

    def test_groups_never_split(self):
        keys = ["a"] * 3 + ["b"] * 4 + ["c"] * 2 + ["d"] * 5
        for n in range(1, 8):
            for chunk in self._chunk(keys, n):
                labels = [keys[i] for i in chunk]
                # Each group's items land contiguously in one chunk.
                for label in set(labels):
                    assert labels.count(label) == keys.count(label)

    def test_no_empty_chunks(self):
        keys = ["a", "b", "c"]
        assert all(self._chunk(keys, 10))

    def test_min_chunk_caps_chunk_count(self):
        keys = [str(i) for i in range(12)]
        assert len(self._chunk(keys, 12, min_chunk=4)) <= 3

    def test_distinct_keys_degenerate_to_even_chunks(self):
        keys = [str(i) for i in range(10)]
        assert [len(c) for c in self._chunk(keys, 3)] == [4, 3, 3]

    def test_single_group_yields_single_chunk(self):
        assert self._chunk(["x"] * 9, 4) == [list(range(9))]

    def test_empty_input(self):
        assert self._chunk([], 3) == []

    def test_length_mismatch_rejected(self):
        from repro.exec.backend import chunk_on_groups

        with pytest.raises(ValueError, match="keys"):
            chunk_on_groups([1, 2], 2, ["a"])

    def test_chunk_hint_respects_batch_group_min(self):
        backend = SerialBackend(batch_group_min=4)
        assert backend.chunk_hint(3) == 1
        backend = ThreadBackend(jobs=8, batch_group_min=4)
        try:
            assert backend.chunk_hint(8) == 2
            assert backend.chunk_hint(64) == 8
        finally:
            backend.close()

    def test_backend_for_threads_batch_group_min(self):
        backend = backend_for("thread", jobs=4, batch_group_min=6)
        try:
            assert backend.batch_group_min == 6
        finally:
            backend.close()
