"""DistributedBackend tests: ordering, reuse, errors, bit-identity."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.core.platform import PerformancePlatform
from repro.dist.backend import DistributedBackend
from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import dumps_payload, loads_payload
from repro.dist.worker import run_worker
from repro.exec.backend import (
    ProcessPoolBackend,
    SerialBackend,
    backend_for,
    default_jobs,
)
from repro.exec.jobs import evaluate_configs
from repro.sim.artifact import (
    DiskArtifactStore,
    TraceArtifact,
    attach_artifact_store,
    detach_artifact_store,
)
from repro.sim.config import core_by_name
from tests.dist.conftest import wait_all


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad item {x}")


def _fail_first_else_sleep(x):
    """Item 0 fails at once; every later item holds its worker 5 s."""
    if x == 0:
        raise ValueError("first item fails")
    time.sleep(5)
    return x


class TestDistributedBackend:
    def test_maps_in_order(self):
        with DistributedBackend(spawn_workers=2) as backend:
            assert backend.map(_square, list(range(12))) == [
                n * n for n in range(12)
            ]

    def test_empty_batch_never_starts_cluster(self):
        backend = DistributedBackend(spawn_workers=2)
        assert backend.map(_square, []) == []
        assert backend.coordinator is None
        backend.close()

    def test_coordinator_reused_across_batches(self):
        with DistributedBackend(spawn_workers=2) as backend:
            assert backend.map(_square, [1, 2]) == [1, 4]
            coordinator = backend.coordinator
            assert backend.map(_square, [3, 4]) == [9, 16]
            assert backend.coordinator is coordinator

    def test_worker_exception_propagates(self):
        with DistributedBackend(spawn_workers=1) as backend:
            with pytest.raises(RuntimeError, match="bad item 7"):
                backend.map(_boom, [7])

    def test_failed_batch_leaves_nothing_behind(self):
        with DistributedBackend(spawn_workers=2) as backend:
            assert backend.map(_square, [1, 2]) == [1, 4]  # warm cluster
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="first item fails"):
                backend.map(_fail_first_else_sleep, list(range(4)))
            # Fail-fast: the in-order drain raises on job 0 without
            # waiting for the sleeping jobs behind it.
            assert time.monotonic() - start < 2.0
            # The session forgets the batch at once...
            session = backend.client
            with session._cv:
                assert not session._outcomes and not session._pending
            # ...and the coordinator drops it once the cancel lands.
            coordinator = backend.coordinator
            deadline = time.monotonic() + 10
            while coordinator._jobs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not coordinator._jobs  # nothing leaks

    def test_close_is_idempotent(self):
        backend = DistributedBackend(spawn_workers=1)
        backend.map(_square, [2])
        backend.close()
        backend.close()

    def test_name_and_jobs(self):
        # Owner mode chunks by the spawn count the elastic pool keeps
        # alive.
        backend = DistributedBackend(spawn_workers=3)
        assert backend.name == "dist[3]"
        assert backend.jobs == 3
        backend.close()
        assert DistributedBackend().jobs == default_jobs()
        # Client mode chunks by the session's live worker count, and by
        # default_jobs() until a status probe has answered.
        addressed = DistributedBackend(addr="127.0.0.1:0", spawn_workers=0)
        assert "@127.0.0.1:0" in addressed.name
        assert addressed.client is None
        assert addressed.jobs == default_jobs()
        addressed.client = SimpleNamespace(workers_live=lambda: 5)
        assert addressed.jobs == 5
        addressed.client = None
        addressed.close()

    def test_external_worker_joins(self):
        # An addressed backend is a tenant of a persistent cluster it
        # does not own: here a standalone coordinator plus a worker
        # thread standing in for `repro.cli serve` + a remote host.
        cluster = Coordinator()
        addr = cluster.start()
        worker = threading.Thread(
            target=run_worker, args=(addr,),
            kwargs={"name": "external"}, daemon=True,
        )
        worker.start()
        backend = DistributedBackend(addr=addr, worker_grace=20.0)
        try:
            assert backend.map(_square, [5, 6]) == [25, 36]
            # The tenant spawned and owns nothing of the cluster.
            assert backend.coordinator is None
            assert backend.pool is None
        finally:
            backend.close()
            cluster.shutdown()
            worker.join(timeout=5)

    def test_client_mode_rejects_spawn_workers(self):
        with pytest.raises(ValueError, match="external persistent"):
            DistributedBackend(addr="127.0.0.1:9900", spawn_workers=2)

    def test_backend_for_builds_dist(self):
        backend = backend_for("dist", jobs=2, dist_workers=1)
        try:
            assert isinstance(backend, DistributedBackend)
            assert backend.spawn_workers == 1
            assert backend.map(_square, [3]) == [9]
        finally:
            backend.close()

    @pytest.mark.parametrize("make_backend", [
        lambda: ProcessPoolBackend(jobs=2),
        lambda: DistributedBackend(spawn_workers=2),
    ], ids=["process", "dist"])
    def test_workers_attach_the_callers_store(self, tmp_path, make_backend):
        platform = PerformancePlatform(core_by_name("small"),
                                       instructions=2_000)
        options = GenerationOptions(loop_size=80)
        # Distinct ADD:LD ratios: every config is its own program, and
        # the two batches share none, so each batch builds anew.
        configs = [{"ADD": n + 1, "LD": 8 - n, "REG_DIST": 2}
                   for n in range(8)]
        root = tmp_path / "artifacts"
        detach_artifact_store()
        backend = make_backend()
        try:
            # No store attached: the workers (started here, so they
            # inherit nothing) write none.
            evaluate_configs(backend, platform, options, configs[:4])
            assert not root.exists()
            # The caller attaches one: the same, already running
            # workers now write every artifact they build into it.
            attach_artifact_store(root)
            evaluate_configs(backend, platform, options, configs[4:])
        finally:
            backend.close()
            detach_artifact_store()
        assert len(DiskArtifactStore(root)) == 4

    def test_unknown_backend_lists_valid_names(self):
        with pytest.raises(ValueError, match="serial|thread|process|dist"):
            backend_for("gpu", jobs=1)

    def test_dist_flags_rejected_on_other_backends(self):
        # Silently dropping these would leave remote workers pointed at
        # a coordinator that never binds.
        with pytest.raises(ValueError, match="backend='dist'"):
            backend_for("auto", jobs=4, dist_addr="127.0.0.1:9900")
        with pytest.raises(ValueError, match="backend='dist'"):
            backend_for("serial", jobs=1, dist_workers=2)

    def test_unreachable_cluster_is_loud(self):
        # An addressed backend pointed at a dead cluster must raise,
        # not silently degrade to a local serial run.
        probe = Coordinator()
        dead_addr = probe.start()
        probe.shutdown()  # nothing listens there anymore
        backend = DistributedBackend(addr=dead_addr)
        with pytest.raises(RuntimeError, match="cannot reach"):
            backend.map(_square, [1])
        backend.close()

    def test_implicit_addr_degrades_to_serial_on_bind_failure(self):
        backend = DistributedBackend(spawn_workers=1)
        backend._broken = True  # simulate an unbindable sandbox
        assert backend.map(_square, [4]) == [16]
        backend.close()


class TestClientPrefetch:
    @pytest.mark.parametrize("attached", [True, False])
    def test_first_map_pushes_the_attached_store(self, tmp_path, attached):
        artifacts = [
            TraceArtifact.build(generate_test_case(
                {"ADD": n + 1, "LD": 1, "REG_DIST": 2},
                GenerationOptions(loop_size=60),
            ), 2_000)
            for n in range(3)
        ]
        detach_artifact_store()
        if attached:
            store = attach_artifact_store(tmp_path)
            for artifact in artifacts:
                store.put(artifact)
        cluster = Coordinator()
        addr = cluster.start()
        worker = threading.Thread(target=run_worker, args=(addr,),
                                  daemon=True)
        worker.start()
        backend = DistributedBackend(addr=addr, worker_grace=20.0)
        try:
            assert backend.map(_square, [3]) == [9]
            with cluster._cv:
                held = {(fingerprint, instructions) for
                        fingerprint, instructions, _ in
                        cluster._artifacts.values()}
        finally:
            backend.close()
            cluster.shutdown()
            worker.join(timeout=5)
            detach_artifact_store()
        assert not worker.is_alive()
        expected = {(artifact.fingerprint, artifact.instructions)
                    for artifact in artifacts}
        assert held == (expected if attached else set())


class TestMicroGradChunking:
    def test_dist_workers_each_get_a_chunk_with_default_jobs(self):
        """``--backend dist --dist-workers 2`` without ``--jobs`` ships
        one chunk per worker: two per batch, not one."""
        def run(**execution):
            mg = MicroGrad(MicroGradConfig(
                use_case="stress", metrics=("ipc",), core="small",
                max_epochs=2, seed=1, instructions=4_000, loop_size=120,
                **execution,
            ))
            try:
                return mg.run()
            finally:
                mg.close()

        serial = run(backend="serial")
        dist = run(backend="dist", dist_workers=2)
        assert serial.run_report["counters"][
            "engine_path.evaluate.batch"] == 2
        assert dist.run_report["counters"][
            "engine_path.evaluate.batch"] == 4
        assert dist.metrics == serial.metrics
        assert dist.knobs == serial.knobs


class TestBitIdentity:
    def test_dist_sweep_matches_serial_exactly(self):
        configs = [
            {"ADD": n % 5 + 1, "LD": n % 3, "REG_DIST": 2} for n in range(6)
        ]
        platform = PerformancePlatform(core_by_name("small"),
                                       instructions=2_000)
        options = GenerationOptions(loop_size=80)
        serial = evaluate_configs(SerialBackend(), platform, options, configs)
        with DistributedBackend(spawn_workers=2) as backend:
            parallel = evaluate_configs(backend, platform, options, configs)
        assert parallel == serial


class TestCoordinator:
    """The coordinator driven the only way jobs enter it: a session."""

    def test_submit_wait_roundtrip(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        worker = threading.Thread(target=run_worker, args=(addr,),
                                  daemon=True)
        worker.start()
        try:
            with ClientSession(addr) as session:
                tags = [session.submit(dumps_payload((_square, n)))
                        for n in range(4)]
                outcomes = wait_all(session, tags, timeout=20)
            assert [loads_payload(v) for _, v in outcomes] == [0, 1, 4, 9]
            assert all(status == "ok" for status, _ in outcomes)
        finally:
            coordinator.shutdown()
            worker.join(timeout=5)

    def test_idle_shutdown_is_prompt(self):
        # Closing a listener does not wake the thread blocked in its
        # accept(); without a wakeup, shutdown sits out its 2 s join.
        coordinator = Coordinator()
        coordinator.start()
        with coordinator._cv:
            [accept] = [t for t in coordinator._threads
                        if t.name == "dist-accept"]
        start = time.perf_counter()
        coordinator.shutdown()
        assert time.perf_counter() - start < 0.5
        assert not accept.is_alive()

    def test_wait_times_out(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        try:
            with ClientSession(addr) as session:
                tag = session.submit(dumps_payload((_square, 2)))
                with pytest.raises(TimeoutError):
                    wait_all(session, [tag], timeout=0.2,
                             worker_grace=60.0)
        finally:
            coordinator.shutdown()

    def test_empty_cluster_fails_after_grace(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        try:
            with ClientSession(addr) as session:
                tag = session.submit(dumps_payload((_square, 2)))
                with pytest.raises(RuntimeError,
                                   match="no worker connected"):
                    wait_all(session, [tag], worker_grace=0.2)
        finally:
            coordinator.shutdown()

    def test_fully_crashed_fleet_fails_after_grace(self):
        # A cluster whose every worker died must not hang a wait
        # forever: the grace timer re-arms when the worker count hits 0.
        coordinator = Coordinator()
        addr = coordinator.start()
        worker = threading.Thread(
            target=run_worker, args=(addr,), kwargs={"max_jobs": 1},
            daemon=True,
        )
        worker.start()
        try:
            with ClientSession(addr) as session:
                first = session.submit(dumps_payload((_square, 3)))
                (status, payload), = wait_all(session, [first], timeout=20)
                assert loads_payload(payload) == 9
                worker.join(timeout=10)  # max_jobs reached: worker leaves
                orphan = session.submit(dumps_payload((_square, 4)))
                with pytest.raises(RuntimeError,
                                   match="every worker disconnected"):
                    wait_all(session, [orphan], worker_grace=0.3)
        finally:
            coordinator.shutdown()

    def test_submit_after_shutdown_rejected(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        session = ClientSession(addr)
        try:
            session.start()
            tag = session.submit(dumps_payload((_square, 2)))
            coordinator.shutdown()
            # The session notices the coordinator going away...
            with pytest.raises(RuntimeError):
                wait_all(session, [tag], timeout=10)
            # ...and refuses further work instead of queueing it nowhere.
            with pytest.raises(RuntimeError):
                session.submit(b"x")
        finally:
            session.close()
            coordinator.shutdown()

    def test_forgotten_jobs_do_not_poison_workers(self):
        # An abandoned batch (the caller cancelled its jobs) leaves
        # stale ids in the queue; a worker requesting afterwards must
        # skip them and keep serving, not lose its connection.
        coordinator = Coordinator()
        addr = coordinator.start()
        session = ClientSession(addr)
        worker = None
        try:
            session.start()
            stale = [session.submit(dumps_payload((_square, n)))
                     for n in range(3)]
            session.cancel(stale)
            worker = threading.Thread(target=run_worker, args=(addr,),
                                      daemon=True)
            worker.start()
            live = session.submit(dumps_payload((_square, 9)))
            (status, payload), = wait_all(session, [live], timeout=20)
            assert status == "ok"
            assert loads_payload(payload) == 81
        finally:
            session.close()
            coordinator.shutdown()
            if worker is not None:
                worker.join(timeout=5)
