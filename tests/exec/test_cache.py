"""Unit tests for the persistent on-disk result cache."""

from repro.exec.cache import DiskResultCache

KEY = (("ADD", 4.0), ("B_PATTERN", 0.3))
METRICS = {"ipc": 1.25, "branch": 0.1}


class TestDiskResultCache:
    def test_round_trip(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.put("perf:large|i=8000", KEY, METRICS)
        assert cache.get("perf:large|i=8000", KEY) == METRICS

    def test_miss_returns_none(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        assert cache.get("ctx", KEY) is None

    def test_survives_process_boundary(self, tmp_path):
        DiskResultCache(tmp_path).put("ctx", KEY, METRICS)
        fresh = DiskResultCache(tmp_path)
        assert fresh.get("ctx", KEY) == METRICS

    def test_context_isolates_entries(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.put("perf:large|i=8000", KEY, METRICS)
        assert cache.get("perf:small|i=8000", KEY) is None
        assert cache.get("perf:large|i=4000", KEY) is None

    def test_different_configs_do_not_alias(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        other_key = (("ADD", 5.0), ("B_PATTERN", 0.3))
        cache.put("ctx", KEY, METRICS)
        cache.put("ctx", other_key, {"ipc": 9.0})
        assert cache.get("ctx", KEY) == METRICS
        assert cache.get("ctx", other_key) == {"ipc": 9.0}
        assert len(cache) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.put("ctx", KEY, METRICS)
        digest = cache.digest("ctx", KEY)
        (tmp_path / f"{digest}.json").write_text("{not json")
        assert DiskResultCache(tmp_path).get("ctx", KEY) is None

    def test_returns_a_copy(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.put("ctx", KEY, METRICS)
        first = cache.get("ctx", KEY)
        first["ipc"] = -1.0
        assert cache.get("ctx", KEY)["ipc"] == 1.25

    def test_put_survives_a_vanished_cache_dir(self, tmp_path):
        import shutil

        cache = DiskResultCache(tmp_path / "cache")
        shutil.rmtree(cache.root)
        # Writes are best-effort: losing the directory mid-run must not
        # fail the evaluation whose metrics are being stored...
        cache.put("ctx", KEY, METRICS)
        # ...and the value is still served, from memory.
        assert cache.get("ctx", KEY) == METRICS

    def test_hit_and_miss_counters(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        cache.get("ctx", KEY)
        cache.put("ctx", KEY, METRICS)
        cache.get("ctx", KEY)
        assert cache.misses == 1
        assert cache.hits == 1


def _key(i):
    return (("ADD", float(i)),)


class TestEviction:
    def test_size_cap_enforced(self, tmp_path):
        cache = DiskResultCache(tmp_path, max_entries=4)
        for i in range(10):
            cache.put("ctx", _key(i), {"ipc": float(i)})
        assert len(cache) <= 4
        assert cache.evictions >= 6

    def test_oldest_entries_evicted_first(self, tmp_path):
        import os
        import time

        seed = DiskResultCache(tmp_path)
        now = time.time()
        for i in range(3):
            seed.put("ctx", _key(i), {"ipc": float(i)})
            # Backdate: entry 0 is the least recently used.
            path = seed._path(seed.digest("ctx", _key(i)))
            stamp = now - 300 + 100 * i
            os.utime(path, (stamp, stamp))
        cache = DiskResultCache(tmp_path, max_entries=2)
        assert cache.compact() == 1
        fresh = DiskResultCache(tmp_path)
        assert fresh.get("ctx", _key(0)) is None
        assert fresh.get("ctx", _key(2)) == {"ipc": 2.0}

    def test_evicted_entries_forgotten_in_memory_too(self, tmp_path):
        import os
        import time

        cache = DiskResultCache(tmp_path, max_entries=1)
        cache.put("ctx", _key(0), {"ipc": 0.0})
        path = cache._path(cache.digest("ctx", _key(0)))
        old = time.time() - 300
        os.utime(path, (old, old))
        # The next put compacts and must evict entry 0 everywhere —
        # including the in-process promotion map.
        cache.put("ctx", _key(1), {"ipc": 1.0})
        assert cache.get("ctx", _key(0)) is None
        assert cache.get("ctx", _key(1)) == {"ipc": 1.0}

    def test_memory_hits_refresh_recency(self, tmp_path):
        import os
        import time

        cache = DiskResultCache(tmp_path, max_entries=1)
        cache.put("ctx", _key(0), {"ipc": 0.0})
        path = cache._path(cache.digest("ctx", _key(0)))
        old = time.time() - 300
        os.utime(path, (old, old))
        # A memory-served hit must re-touch the file, or compaction
        # would evict the hottest entry first.
        cache.get("ctx", _key(0))
        assert path.stat().st_mtime > old + 100

    def test_unbounded_by_default(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        for i in range(80):
            cache.put("ctx", _key(i), {"ipc": float(i)})
        assert len(cache) == 80
        assert cache.compact() == 0

    def test_invalid_cap_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="max_entries"):
            DiskResultCache(tmp_path, max_entries=0)


class TestSchemaStamp:
    def test_entries_record_the_schema(self, tmp_path):
        import json

        cache = DiskResultCache(tmp_path, schema="trace-v1")
        cache.put("ctx", KEY, METRICS)
        path = cache._path(cache.digest("ctx", KEY))
        assert json.loads(path.read_text())["schema"] == "trace-v1"

    def test_different_schema_is_a_miss(self, tmp_path):
        DiskResultCache(tmp_path, schema="trace-v1").put("ctx", KEY, METRICS)
        stale = DiskResultCache(tmp_path, schema="trace-v2")
        assert stale.get("ctx", KEY) is None

    def test_unstamped_entries_survive_schema_introduction(self, tmp_path):
        # Pre-schema caches (including every entry written before this
        # refactor) keep hitting: the pipeline is bit-identical.
        DiskResultCache(tmp_path).put("ctx", KEY, METRICS)
        upgraded = DiskResultCache(tmp_path, schema="trace-v1")
        assert upgraded.get("ctx", KEY) == METRICS

    def test_same_schema_hits(self, tmp_path):
        DiskResultCache(tmp_path, schema="trace-v1").put("ctx", KEY, METRICS)
        fresh = DiskResultCache(tmp_path, schema="trace-v1")
        assert fresh.get("ctx", KEY) == METRICS


class TestGetMany:
    def _keys(self, n):
        return [(("ADD", float(i)), ("B_PATTERN", 0.3)) for i in range(n)]

    def test_matches_sequential_gets(self, tmp_path):
        keys = self._keys(6)
        writer = DiskResultCache(tmp_path)
        for i in (0, 2, 5):
            writer.put("ctx", keys[i], {"ipc": float(i)})
        batch_cache = DiskResultCache(tmp_path)
        batch = batch_cache.get_many("ctx", keys)
        serial_cache = DiskResultCache(tmp_path)
        serial = [serial_cache.get("ctx", key) for key in keys]
        assert batch == serial
        assert batch_cache.hits == serial_cache.hits == 3
        assert batch_cache.misses == serial_cache.misses == 3

    def test_memory_promotion_serves_repeat_probes(self, tmp_path):
        key = self._keys(1)[0]
        DiskResultCache(tmp_path).put("ctx", key, METRICS)
        cache = DiskResultCache(tmp_path)
        # Duplicate keys in one batch: first promotes from disk, the
        # rest hit memory — counters identical to sequential gets.
        results = cache.get_many("ctx", [key, key, key])
        assert results == [METRICS] * 3
        assert cache.hits == 3
        assert cache.misses == 0

    def test_empty_batch(self, tmp_path):
        cache = DiskResultCache(tmp_path)
        assert cache.get_many("ctx", []) == []
        assert cache.misses == 0

    def test_stale_schema_is_a_miss(self, tmp_path):
        keys = self._keys(2)
        DiskResultCache(tmp_path, schema="v1").put("ctx", keys[0], METRICS)
        DiskResultCache(tmp_path, schema="v2").put("ctx", keys[1], METRICS)
        cache = DiskResultCache(tmp_path, schema="v2")
        assert cache.get_many("ctx", keys) == [None, METRICS]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        keys = self._keys(2)
        writer = DiskResultCache(tmp_path)
        writer.put("ctx", keys[0], METRICS)
        writer.put("ctx", keys[1], {"ipc": 2.0})
        digest = writer.digest("ctx", keys[0])
        (tmp_path / f"{digest}.json").write_text("{not json")
        cache = DiskResultCache(tmp_path)
        assert cache.get_many("ctx", keys) == [None, {"ipc": 2.0}]

    def test_results_are_copies(self, tmp_path):
        key = self._keys(1)[0]
        cache = DiskResultCache(tmp_path)
        cache.put("ctx", key, METRICS)
        [first] = cache.get_many("ctx", [key])
        first["ipc"] = -1.0
        assert cache.get("ctx", key)["ipc"] == 1.25
