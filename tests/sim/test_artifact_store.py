"""DiskArtifactStore tests: schema stamps, LRU compaction, write races."""

import multiprocessing
import time

import pytest

from repro.codegen import generate_test_case
from repro.codegen.wrapper import GenerationOptions
from repro.sim.artifact import (
    GLOBAL_ARTIFACT_CACHE,
    DiskArtifactStore,
    TraceArtifact,
    TraceArtifactCache,
    attach_artifact_store,
    detach_artifact_store,
    trace_schema_fingerprint,
)
from repro.sim.config import core_by_name
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def _no_leaked_store():
    """Tests attach process-wide stores; never leak one across tests."""
    detach_artifact_store()
    yield
    detach_artifact_store()


def _program(n: int = 0):
    return generate_test_case(
        {"ADD": n % 5 + 1, "LD": n % 3 + 1, "REG_DIST": 2 + n},
        GenerationOptions(loop_size=60),
    )


def _artifact(n: int = 0, instructions: int = 2_000) -> TraceArtifact:
    artifact = TraceArtifact.build(_program(n), instructions)
    artifact.trace(4, 64)  # memoize one stage so persistence is visible
    return artifact


class TestRoundtrip:
    def test_put_get_preserves_artifact_and_memos(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        artifact = _artifact()
        store.put(artifact)
        loaded = store.get(artifact.fingerprint, artifact.instructions)
        assert loaded is not None
        assert loaded.fingerprint == artifact.fingerprint
        assert loaded.instructions == artifact.instructions
        assert loaded.loop_size == artifact.loop_size
        # The memoized stages travel with the pickle — that is the point.
        assert loaded.memo_count() == artifact.memo_count()
        assert store.hits == 1

    def test_unknown_key_is_a_miss(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        assert store.get("deadbeef", 2_000) is None
        assert store.misses == 1

    def test_budget_keys_do_not_alias(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        artifact = _artifact(instructions=2_000)
        store.put(artifact)
        assert store.get(artifact.fingerprint, 4_000) is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        artifact = _artifact()
        store.put(artifact)
        path = store._path(artifact.fingerprint, artifact.instructions)
        path.write_bytes(b"not a pickle")
        assert store.get(artifact.fingerprint, artifact.instructions) is None


class TestSchemaStamp:
    def test_entries_live_under_the_active_schema(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        assert store.schema == trace_schema_fingerprint()
        assert store.dir == tmp_path / trace_schema_fingerprint()

    def test_schema_bump_invalidates_old_entries(self, tmp_path):
        old = DiskArtifactStore(tmp_path, schema="schema-v1")
        artifact = _artifact()
        old.put(artifact)
        assert len(old) == 1
        new = DiskArtifactStore(tmp_path, schema="schema-v2")
        assert new.get(artifact.fingerprint, artifact.instructions) is None
        assert len(new) == 0
        # The old entries are untouched (a rollback still hits them).
        assert old.get(artifact.fingerprint, artifact.instructions) \
            is not None


class TestCompaction:
    def test_lru_compaction_keeps_newest_entries(self, tmp_path):
        store = DiskArtifactStore(tmp_path, max_entries=3)
        artifacts = [_artifact(n) for n in range(6)]
        for artifact in artifacts:
            store.put(artifact)
            time.sleep(0.02)  # distinct mtimes on coarse filesystems
        assert len(store) <= 3
        assert store.evictions >= 3
        # Oldest gone, newest present.
        first, last = artifacts[0], artifacts[-1]
        assert store.get(first.fingerprint, first.instructions) is None
        assert store.get(last.fingerprint, last.instructions) is not None

    def test_hits_refresh_recency(self, tmp_path):
        store = DiskArtifactStore(tmp_path, max_entries=2)
        keep, *rest = [_artifact(n) for n in range(4)]
        store.put(keep)
        for artifact in rest[:1]:
            time.sleep(0.02)
            store.put(artifact)
        time.sleep(0.02)
        # Touch the old entry, then push it over the cap with new ones.
        assert store.get(keep.fingerprint, keep.instructions) is not None
        time.sleep(0.02)
        store.put(rest[1])
        store.compact()
        assert store.get(keep.fingerprint, keep.instructions) is not None

    def test_rejects_bad_cap(self, tmp_path):
        with pytest.raises(ValueError):
            DiskArtifactStore(tmp_path, max_entries=0)


def _racing_writer(root, n, barrier):
    store = DiskArtifactStore(root)
    artifact = _artifact(0)  # same program → same fingerprint
    barrier.wait(timeout=20)
    for _ in range(10):
        store.put(artifact)


class TestConcurrentWriters:
    def test_two_processes_race_safely_on_one_fingerprint(self, tmp_path):
        barrier = multiprocessing.Barrier(2)
        writers = [
            multiprocessing.Process(
                target=_racing_writer, args=(str(tmp_path), n, barrier)
            )
            for n in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        # Exactly one entry, and it loads as a valid artifact.
        store = DiskArtifactStore(tmp_path)
        assert len(store) == 1
        reference = _artifact(0)
        loaded = store.get(reference.fingerprint, reference.instructions)
        assert loaded is not None
        assert loaded.fingerprint == reference.fingerprint
        # No stray temp files left behind by the race.
        assert list(store.dir.glob("*.tmp")) == []


class TestCacheIntegration:
    def test_fresh_cache_loads_from_attached_store(self, tmp_path):
        store = attach_artifact_store(tmp_path)
        program = _program(1)
        GLOBAL_ARTIFACT_CACHE.clear()
        stats_cold = Simulator(core_by_name("small")).run(
            program, instructions=2_000
        )
        assert len(store) == 1  # run_many persisted the artifact
        # An empty in-memory cache (e.g. a new process) must load from
        # the store instead of rebuilding.
        GLOBAL_ARTIFACT_CACHE.clear()
        stats_warm = Simulator(core_by_name("small")).run(
            program, instructions=2_000
        )
        assert store.hits >= 1
        assert stats_warm == stats_cold

    def test_attach_is_idempotent_per_root(self, tmp_path):
        first = attach_artifact_store(tmp_path)
        second = attach_artifact_store(tmp_path)
        assert second is first
        other = attach_artifact_store(tmp_path / "other")
        assert other is not first

    def test_reattach_applies_new_cap(self, tmp_path):
        store = attach_artifact_store(tmp_path)
        for n in range(4):
            store.put(_artifact(n))
            time.sleep(0.02)
        assert len(store) == 4
        # Same root, new explicit cap: the cap must take effect (and
        # compact immediately), not be silently ignored.
        again = attach_artifact_store(tmp_path, max_entries=2)
        assert again is store
        assert store.max_entries == 2
        assert len(store) <= 2

    def test_micrograd_close_detaches_its_store(self, tmp_path):
        from repro.core.config import MicroGradConfig
        from repro.core.framework import MicroGrad
        from repro.sim.artifact import active_artifact_store

        config = MicroGradConfig(
            use_case="stress", metrics=("ipc",), core="small",
            max_epochs=1, instructions=2_000, loop_size=60,
            cache_dir=str(tmp_path),
        )
        mg = MicroGrad(config)
        assert active_artifact_store() is not None
        mg.close()
        # A later cache-less run must not inherit this run's store.
        assert active_artifact_store() is None

    def test_store_attached_later_receives_a_persisted_artifact(
        self, tmp_path
    ):
        # The dirty mark is per store: a second store attached in the
        # same process gets the artifact the first already holds.
        simulator = Simulator(core_by_name("small"))
        program = _program(6)
        first = attach_artifact_store(tmp_path / "a")
        simulator.run(program, instructions=2_000)
        second = attach_artifact_store(tmp_path / "b")
        simulator.run(program, instructions=2_000)
        assert (len(first), len(second)) == (1, 1)

    def test_disk_hit_marks_only_the_store_it_came_from(self, tmp_path):
        first = attach_artifact_store(tmp_path / "a")
        first.put(_artifact(7))
        cache = TraceArtifactCache()
        artifact = cache.get_or_build(_program(7), 2_000)
        assert first.hits == 1
        assert not cache.persist(artifact)  # the store it came from
        second = attach_artifact_store(tmp_path / "b")
        assert cache.persist(artifact)
        assert len(second) == 1
