"""Multi-tenant coordinator tests: sessions, fairness, admission, GC,
prefetch, and the empty-cluster grace."""

import socket
import threading
import time

import pytest

from repro.codegen import generate_test_case
from repro.codegen.wrapper import GenerationOptions
from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator, _Job, _Session
from repro.dist.protocol import (
    connect,
    dumps_payload,
    loads_payload,
    recv_msg,
    send_msg,
)
from repro.dist.worker import run_worker
from repro.sim.artifact import (
    TraceArtifact,
    active_artifact_store,
    detach_artifact_store,
)


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.01)
    return x * x


def _sleepy_square(x):
    time.sleep(1.5)
    return x * x


@pytest.fixture(autouse=True)
def _no_leaked_store():
    """Worker threads attach process-wide artifact stores; never leak."""
    detach_artifact_store()
    yield
    detach_artifact_store()


def _start_worker(addr, name="w", secret=None, stop=None, cache_dir=None):
    kwargs = {"name": name}
    if secret is not None:
        kwargs["secret"] = secret
    if stop is not None:
        kwargs["stop"] = stop
    if cache_dir is not None:
        kwargs["cache_dir"] = cache_dir
    worker = threading.Thread(target=run_worker, args=(addr,),
                              kwargs=kwargs, daemon=True)
    worker.start()
    return worker


def _collect(session, tags, timeout=30, worker_grace=60.0):
    """Drain a session's batch into tag-ordered plain values."""
    landed = {}
    for tag, (status, value) in session.as_completed(
            tags, timeout=timeout, worker_grace=worker_grace):
        assert status == "ok", value
        landed[tag] = loads_payload(value)
    return [landed[tag] for tag in tags]


def _seed_session(coordinator, sid, n_jobs, priority=1.0):
    """Install a fake client session with ``n_jobs`` queued (lock held)."""
    session = _Session(id=sid, name=f"s{sid}", priority=priority)
    coordinator._sessions[sid] = session
    for _ in range(n_jobs):
        job_id = coordinator._next_id
        coordinator._next_id += 1
        coordinator._jobs[job_id] = _Job(id=job_id, payload=b"",
                                         session=sid, tag=job_id)
        session.queue.append(job_id)
    return session


class TestStrideScheduler:
    def test_equal_priority_sessions_alternate(self):
        coordinator = Coordinator()
        with coordinator._cv:
            _seed_session(coordinator, 1, 4)
            _seed_session(coordinator, 2, 4)
            order = [coordinator._next_job_locked().session
                     for _ in range(8)]
        assert order == [1, 2, 1, 2, 1, 2, 1, 2]

    def test_priority_weights_dispatch_share(self):
        coordinator = Coordinator()
        with coordinator._cv:
            _seed_session(coordinator, 1, 8, priority=2.0)
            _seed_session(coordinator, 2, 8, priority=1.0)
            order = [coordinator._next_job_locked().session
                     for _ in range(6)]
        # A weight-2 session gets two slots for every one of weight-1.
        assert order.count(1) == 4
        assert order.count(2) == 2

    def test_flood_cannot_starve_small_session(self):
        coordinator = Coordinator()
        with coordinator._cv:
            _seed_session(coordinator, 1, 100)  # the flood
            _seed_session(coordinator, 2, 5)    # the small tenant
            order = [coordinator._next_job_locked().session
                     for _ in range(100)]
        # The small session fully drains within its fair share of the
        # first draws — the 100-job flood never pushes it to the back.
        assert order[:10].count(2) == 5
        assert order[10:].count(2) == 0

    def test_exhausted_sessions_cede_to_the_remaining_one(self):
        coordinator = Coordinator()
        with coordinator._cv:
            _seed_session(coordinator, 1, 2)
            _seed_session(coordinator, 2, 6)
            order = [coordinator._next_job_locked().session
                     for _ in range(8)]
            empty = coordinator._next_job_locked()
        assert sorted(order) == [1, 1, 2, 2, 2, 2, 2, 2]
        assert empty is None


class TestConcurrentSessions:
    def test_two_sessions_bit_identical_to_solo(self):
        cluster = Coordinator()
        addr = cluster.start()
        stop = threading.Event()
        workers = [_start_worker(addr, name=f"w{i}", stop=stop)
                   for i in range(2)]
        results = {}
        errors = []

        def tenant(name, values):
            try:
                with ClientSession(addr, session=name) as session:
                    tags = [session.submit(dumps_payload((_square, v)))
                            for v in values]
                    results[name] = _collect(session, tags)
            except Exception as exc:  # surfaced to the main thread
                errors.append((name, exc))

        try:
            a_vals, b_vals = list(range(10)), list(range(100, 112))
            threads = [
                threading.Thread(target=tenant, args=("a", a_vals)),
                threading.Thread(target=tenant, args=("b", b_vals)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, errors
            # Each tenant sees exactly what a solo serial run computes,
            # in submission order, despite interleaved dispatch.
            assert results["a"] == [v * v for v in a_vals]
            assert results["b"] == [v * v for v in b_vals]
            # Both tenants came and went: opened, drained, GCed (the
            # coordinator reaps a departed client asynchronously).
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                counters = cluster.status_report()["counters"]
                if counters["sessions_closed"] == 2:
                    break
                time.sleep(0.02)
            assert counters["sessions_opened"] == 2
            assert counters["sessions_closed"] == 2
            assert counters["jobs_completed"] == len(a_vals) + len(b_vals)
        finally:
            stop.set()
            cluster.shutdown()
            for worker in workers:
                worker.join(timeout=10)

    def test_flood_session_cannot_starve_small_one_end_to_end(self):
        cluster = Coordinator()
        addr = cluster.start()
        flood = ClientSession(addr, session="flood")
        small = ClientSession(addr, session="small")
        stop = threading.Event()
        worker = None
        try:
            flood.start()
            small.start()
            # Queue the flood first, then the small batch, and only
            # then let a single worker start draining: dispatch order
            # is the scheduler's alone.
            flood_tags = [flood.submit(dumps_payload((_slow_square, n)))
                          for n in range(40)]
            small_tags = [small.submit(dumps_payload((_slow_square, n)))
                          for n in range(4)]
            worker = _start_worker(addr, stop=stop)
            assert _collect(small, small_tags) == [n * n for n in range(4)]
            with cluster._cv:
                flood_done = next(
                    s.completed for s in cluster._sessions.values()
                    if s.name == "flood"
                )
            # Fair interleaving: when the small tenant finished, the
            # 40-job flood was still far from done.
            assert flood_done < 40
            assert _collect(flood, flood_tags) == [
                n * n for n in range(40)
            ]
        finally:
            stop.set()
            flood.close()
            small.close()
            cluster.shutdown()
            if worker is not None:
                worker.join(timeout=10)


class TestAuth:
    def test_wrong_secret_rejected_without_disturbing_live_sessions(self):
        cluster = Coordinator(secret="hunter2")
        addr = cluster.start()
        stop = threading.Event()
        worker = _start_worker(addr, secret="hunter2", stop=stop)
        live = ClientSession(addr, session="live", secret="hunter2")
        try:
            live.start()
            tags = [live.submit(dumps_payload((_square, n)))
                    for n in range(3)]
            assert _collect(live, tags) == [0, 1, 4]

            with pytest.raises(RuntimeError, match="rejected"):
                ClientSession(addr, session="evil",
                              secret="wrong").start()
            assert cluster.auth_rejections >= 1

            # The rejected hello never became a session, and the live
            # tenant keeps working as if nothing happened.
            with cluster._cv:
                names = sorted(s.name for s in
                               cluster._sessions.values())
            assert "evil" not in names
            more = [live.submit(dumps_payload((_square, n)))
                    for n in (7, 8)]
            assert _collect(live, more) == [49, 64]
        finally:
            stop.set()
            live.close()
            cluster.shutdown()
            worker.join(timeout=10)

    def test_missing_secret_rejected(self):
        cluster = Coordinator(secret="hunter2")
        addr = cluster.start()
        try:
            with pytest.raises(RuntimeError):
                ClientSession(addr, session="anon").start()
            assert cluster.auth_rejections >= 1
        finally:
            cluster.shutdown()

    def test_rejected_worker_raises_the_coordinator_reason(self):
        cluster = Coordinator(secret="hunter2")
        addr = cluster.start()
        try:
            with pytest.raises(RuntimeError,
                               match="rejected this worker: "
                                     "authentication failed"):
                run_worker(addr, name="intruder", secret="wrong",
                           connect_retry_s=0)
            assert cluster.worker_count() == 0
        finally:
            cluster.shutdown()


class TestVersionRejection:
    @pytest.mark.parametrize("first_frame", [
        {"type": "hello", "worker": "v1"},
        {"type": "hello", "worker": "v1", "proto": 1},
        {"type": "hello", "worker": "v2", "proto": 2, "heartbeat": 2.0},
        {"type": "request"},  # a v1 peer that never said hello
    ], ids=["no-proto", "proto-1", "proto-2", "no-hello"])
    def test_other_versions_rejected_without_disturbing_live_sessions(
        self, first_frame
    ):
        cluster = Coordinator()
        addr = cluster.start()
        stop = threading.Event()
        worker = _start_worker(addr, stop=stop)
        live = ClientSession(addr, session="live")
        sock = None
        try:
            live.start()
            tags = [live.submit(dumps_payload((_slow_square, n)))
                    for n in range(8)]
            sock = connect(addr)
            send_msg(sock, first_frame)
            header, _ = recv_msg(sock, timeout=10)
            assert header["type"] == "reject"
            assert header["error"]
            # ...and the coordinator hangs up on the refused peer.
            with pytest.raises((ConnectionError, OSError)):
                recv_msg(sock, timeout=10)
            assert _collect(live, tags) == [n * n for n in range(8)]
            # The refused peer never joined as a worker or a session.
            assert cluster.worker_count() == 1
            report = cluster.status_report()
            assert report["counters"]["workers_seen"] == 1
            assert [s["name"] for s in report["sessions"]] == ["live"]
        finally:
            if sock is not None:
                sock.close()
            stop.set()
            live.close()
            cluster.shutdown()
            worker.join(timeout=10)


class TestSessionGC:
    def test_killed_client_socket_reaps_session_and_jobs(self):
        # The orphaned-batch leak: a tenant that dies without cancelling
        # must not leave its queued jobs to run (and its results to
        # accumulate) forever.  No worker is connected, so every job
        # would previously have sat queued for good.
        cluster = Coordinator()
        addr = cluster.start()
        session = ClientSession(addr, session="doomed")
        try:
            session.start()
            for n in range(5):
                session.submit(dumps_payload((_square, n)))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with cluster._cv:
                    if any(s.name == "doomed" and len(s.queue) == 5
                           for s in cluster._sessions.values()):
                        break
                time.sleep(0.02)
            # Kill the client abruptly: no cancel, no goodbye.
            session._sock.shutdown(socket.SHUT_RDWR)
            session._sock.close()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with cluster._cv:
                    gone = (
                        all(s.name != "doomed"
                            for s in cluster._sessions.values())
                        and not cluster._jobs
                    )
                if gone:
                    break
                time.sleep(0.02)
            assert gone, "dead tenant's session or jobs were never GCed"
            assert cluster.sessions_closed >= 1
        finally:
            session._closed = True  # the socket is already gone
            cluster.shutdown()

    def test_cancel_drops_queued_jobs(self):
        cluster = Coordinator()
        addr = cluster.start()
        session = ClientSession(addr, session="fickle")
        try:
            session.start()
            tags = [session.submit(dumps_payload((_square, n)))
                    for n in range(4)]
            session.cancel(tags)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with cluster._cv:
                    if not cluster._jobs and cluster.jobs_cancelled >= 4:
                        break
                time.sleep(0.02)
            assert cluster.jobs_cancelled >= 4
            assert not cluster._jobs
        finally:
            session.close()
            cluster.shutdown()


class TestPrefetch:
    def test_prefetched_artifact_lands_in_worker_store(self, tmp_path):
        program = generate_test_case(
            {"ADD": 2, "LD": 1, "REG_DIST": 2},
            GenerationOptions(loop_size=60),
        )
        artifact = TraceArtifact.build(program, 2_000)
        cluster = Coordinator()
        addr = cluster.start()
        session = ClientSession(addr, session="seeder")
        stop = threading.Event()
        worker = None
        try:
            session.start()
            session.prefetch(artifact)
            # The worker joins *after* the push: its hello replays the
            # coordinator's prefetch table (late joiners still warm up).
            worker = _start_worker(addr, stop=stop,
                                   cache_dir=str(tmp_path))
            # The threaded worker attaches the process-global store.
            stop_probe = time.monotonic() + 15
            store = None
            while time.monotonic() < stop_probe:
                store = active_artifact_store()
                if store is not None and store.get(
                        artifact.fingerprint, artifact.instructions):
                    break
                time.sleep(0.05)
            assert store is not None
            assert store.get(artifact.fingerprint,
                             artifact.instructions) is not None
        finally:
            stop.set()
            session.close()
            cluster.shutdown()
            if worker is not None:
                worker.join(timeout=10)


class TestEmptyClusterGrace:
    def test_worker_joining_after_the_first_probe_stops_the_grace_clock(
        self
    ):
        # The session's opening probe counts zero workers; one joins
        # 0.3 s later and runs a 1.5 s job.  The wait must notice the
        # join before worker_grace (1 s) runs out instead of trusting
        # the stale zero until its next periodic probe.
        cluster = Coordinator()
        addr = cluster.start()
        session = ClientSession(addr, session="early")
        stop = threading.Event()
        joiner = threading.Timer(0.3, run_worker, args=(addr,),
                                 kwargs={"name": "late", "stop": stop})
        joiner.daemon = True
        try:
            session.start()
            assert session.workers_live() == 0
            tag = session.submit(dumps_payload((_sleepy_square, 6)))
            joiner.start()
            assert _collect(session, [tag], worker_grace=1.0) == [36]
            assert cluster.worker_count() == 1
        finally:
            stop.set()
            session.close()
            cluster.shutdown()
            joiner.join(timeout=10)
