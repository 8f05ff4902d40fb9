"""Liveness-layer tests: heartbeats, lease deadlines, blocking requests.

The headline chaos scenario: a worker *hangs* mid-job — its TCP
connection stays open (so EOF detection, the only detector PR 3 had,
never fires) but it stops heartbeating and never returns its result.
The coordinator must expire the lease within ``lease_timeout_s``,
reschedule the job onto a live worker, and finish the run with
:class:`~repro.sim.stats.SimStats` bit-identical to serial execution.
On the old EOF-only path this run hangs forever (pytest's timeout is
what would fail it).

The hang is simulated with :class:`_FakeWorker` — a raw protocol client
the test fully controls — rather than by poking a real worker's
internals: it says hello, takes a job, and then simply goes silent while
holding its socket open, exactly like a worker stuck in a syscall.
"""

import signal
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ReceiveTimeout,
    connect,
    dumps_payload,
    loads_payload,
    recv_msg,
    send_msg,
)
from repro.dist.worker import WorkerPool, run_worker
from repro.sim.config import core_by_name
from repro.sim.simulator import Simulator
from tests.dist.conftest import wait_all


def _square(x):
    return x * x


def _simulate(config: dict):
    """One deterministic evaluation returning the full SimStats."""
    program = generate_test_case(config, GenerationOptions(loop_size=80))
    return Simulator(core_by_name("small")).run(program, instructions=2_000)


CONFIGS = [
    {"ADD": n % 4 + 1, "LD": n % 3, "BEQ": n % 2, "REG_DIST": 2 + n % 3}
    for n in range(6)
]


class _FakeWorker:
    """A raw protocol client standing in for a worker under test control."""

    def __init__(self, addr: str, name: str = "fake",
                 heartbeat_s: float | None = None):
        self.sock = connect(addr)
        hello = {"type": "hello", "worker": name, "proto": PROTOCOL_VERSION}
        if heartbeat_s is not None:
            hello["heartbeat"] = heartbeat_s
        send_msg(self.sock, hello)

    def request(self) -> None:
        send_msg(self.sock, {"type": "request"})

    def take_job(self, timeout: float = 10.0) -> tuple[int, tuple]:
        """Request and receive one job: its id and ``(fn, item)``."""
        self.request()
        header, payload = self.recv(timeout=timeout)
        assert header["type"] == "job", f"expected a job, got {header!r}"
        return int(header["job"]), loads_payload(payload)

    def recv(self, timeout: float | None = None):
        return recv_msg(self.sock, timeout=timeout)

    def send_result(self, job_id: int, value) -> None:
        send_msg(self.sock, {"type": "result", "job": job_id},
                 dumps_payload(value))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestHungWorkerChaos:
    def test_hung_worker_lease_expires_and_stats_stay_bit_identical(self):
        serial_stats = [_simulate(config) for config in CONFIGS]
        # Heartbeat eviction deliberately out of reach (30s): this test
        # must prove the *lease deadline* path recovers on its own.
        coordinator = Coordinator(lease_timeout_s=1.0,
                                  heartbeat_timeout_s=30.0)
        addr = coordinator.start()
        session = ClientSession(addr, session="chaos")
        hung = None
        worker = None
        try:
            session.start()
            tags = [session.submit(dumps_payload((_simulate, c)))
                    for c in CONFIGS]
            # The hung worker grabs the first job, then goes silent with
            # its socket wide open — no EOF will ever arrive.
            hung = _FakeWorker(addr, name="hung")
            _, (_fn, config) = hung.take_job()
            assert config == CONFIGS[0]
            worker = threading.Thread(
                target=run_worker, args=(addr,),
                kwargs={"name": "live", "heartbeat_s": 0.2}, daemon=True,
            )
            worker.start()
            outcomes = wait_all(session, tags, timeout=90)
            assert all(status == "ok" for status, _ in outcomes)
            stats = [loads_payload(value) for _, value in outcomes]
            assert stats == serial_stats  # bit-identical, SimStats and all
            assert coordinator.lease_expiries >= 1
            assert coordinator.reschedules >= 1
            # EOF/eviction never fired — the lease deadline did the work.
            assert coordinator.evictions == 0
        finally:
            if hung is not None:
                hung.close()
            session.close()
            coordinator.shutdown()
            if worker is not None:
                worker.join(timeout=5)

    def test_silent_connection_is_evicted(self):
        # The complementary detector: heartbeat silence closes the
        # connection, which requeues its leases via the reap path.
        coordinator = Coordinator(lease_timeout_s=None,
                                  heartbeat_timeout_s=0.5)
        addr = coordinator.start()
        # The session itself heartbeats well inside the 0.5 s bar.
        session = ClientSession(addr, session="evictor", heartbeat_s=0.1)
        hung = None
        worker = None
        try:
            session.start()
            tag = session.submit(dumps_payload((_square, 7)))
            hung = _FakeWorker(addr, name="silent")
            _, (_fn, item) = hung.take_job()
            assert item == 7
            worker = threading.Thread(
                target=run_worker, args=(addr,),
                kwargs={"name": "live", "heartbeat_s": 0.1}, daemon=True,
            )
            worker.start()
            (status, value), = wait_all(session, [tag], timeout=30)
            assert status == "ok"
            assert loads_payload(value) == 49
            assert coordinator.evictions >= 1
            # The coordinator hung up on the silent connection.
            with pytest.raises((ConnectionError, OSError)):
                hung.recv(timeout=10)
        finally:
            if hung is not None:
                hung.close()
            session.close()
            coordinator.shutdown()
            if worker is not None:
                worker.join(timeout=5)

    def test_advertised_slow_heartbeat_raises_the_eviction_bar(self):
        # A worker that declares a slow --heartbeat in its hello must be
        # judged against ~3 of its own intervals, not the global floor.
        coordinator = Coordinator(lease_timeout_s=None,
                                  heartbeat_timeout_s=0.4)
        addr = coordinator.start()
        slow = None
        try:
            slow = _FakeWorker(addr, name="slow-beat", heartbeat_s=1.0)
            time.sleep(1.0)  # silent for >2x the global floor
            assert coordinator.worker_count() == 1
            assert coordinator.evictions == 0
            # ...but ~3 missed advertised beats still gets it evicted.
            deadline = time.monotonic() + 10
            while coordinator.worker_count() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert coordinator.worker_count() == 0
            assert coordinator.evictions == 1
        finally:
            if slow is not None:
                slow.close()
            coordinator.shutdown()


class TestHeartbeatsAreMandatory:
    """Protocol 1's idle-polling mode (``heartbeat_s=0``) is gone."""

    def test_run_worker_rejects_zero_heartbeat(self):
        with pytest.raises(ValueError, match="heartbeat_s must be > 0"):
            run_worker("127.0.0.1:1", heartbeat_s=0)

    def test_worker_pool_rejects_zero_heartbeat(self):
        with pytest.raises(ValueError, match="heartbeat_s must be > 0"):
            WorkerPool("127.0.0.1:1", 1, heartbeat_s=0)

    def test_cli_worker_rejects_zero_heartbeat(self):
        # The command installs a SIGTERM drain handler; keep pytest's.
        handler = signal.getsignal(signal.SIGTERM)
        try:
            with pytest.raises(SystemExit, match="heartbeat_s must be > 0"):
                cli_main(["worker", "--addr", "127.0.0.1:1",
                          "--heartbeat", "0", "--connect-retry", "0"])
        finally:
            signal.signal(signal.SIGTERM, handler)


class TestBlockingRequests:
    def test_request_blocks_until_work_is_submitted(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        session = ClientSession(addr, session="late")
        fake = None
        try:
            fake = _FakeWorker(addr)
            fake.request()
            # No busy-poll reply: the request parks until work arrives
            # (heartbeat pings would keep the link alive).
            with pytest.raises(ReceiveTimeout):
                fake.recv(timeout=0.4)
            session.start()
            tag = session.submit(dumps_payload((_square, 3)))
            header, payload = fake.recv(timeout=10)
            assert header["type"] == "job"
            assert loads_payload(payload) == (_square, 3)
            fake.send_result(header["job"], 9)
            (status, value), = wait_all(session, [tag], timeout=10)
            assert (status, loads_payload(value)) == ("ok", 9)
        finally:
            if fake is not None:
                fake.close()
            session.close()
            coordinator.shutdown()

    def test_ping_gets_pong(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        fake = None
        try:
            fake = _FakeWorker(addr)
            send_msg(fake.sock, {"type": "ping"})
            header, _ = fake.recv(timeout=10)
            assert header["type"] == "pong"
        finally:
            if fake is not None:
                fake.close()
            coordinator.shutdown()


class TestWaitAccounting:
    def test_wait_timeout_zero_times_out_immediately(self):
        # Regression: ``timeout=0`` used to be treated as "no timeout"
        # (falsy), turning a poll into an indefinite block.
        coordinator = Coordinator()
        addr = coordinator.start()
        try:
            with ClientSession(addr) as session:
                tag = session.submit(dumps_payload((_square, 2)))
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    session.wait_next([tag], timeout=0)
                assert time.monotonic() - start < 2.0
        finally:
            coordinator.shutdown()

    def test_wait_timeout_zero_returns_resolved_results(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        session = ClientSession(addr)
        fake = None
        try:
            session.start()
            tag = session.submit(dumps_payload((_square, 4)))
            fake = _FakeWorker(addr)
            taken, _ = fake.take_job()
            fake.send_result(taken, 16)
            deadline = time.monotonic() + 10
            while True:  # poll until the result frame lands
                try:
                    landed, (status, value) = session.wait_next(
                        [tag], timeout=0)
                    break
                except TimeoutError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            assert landed == tag
            assert (status, loads_payload(value)) == ("ok", 16)
        finally:
            if fake is not None:
                fake.close()
            session.close()
            coordinator.shutdown()

    def test_late_result_for_forgotten_job_is_dropped(self):
        # An abandoned batch's job must not come back as a result (it
        # would leak forever: no caller is left to drop it again).
        coordinator = Coordinator()
        addr = coordinator.start()
        session = ClientSession(addr)
        fake = None
        try:
            session.start()
            fake = _FakeWorker(addr)
            stale = session.submit(dumps_payload((_square, 5)))
            taken, _ = fake.take_job()
            session.cancel([stale])
            _wait_until(lambda: coordinator.jobs_cancelled == 1)
            fake.send_result(taken, 25)  # too late: already abandoned
            # A follow-up job proves the stale frame was processed first
            # (frames on one connection are handled in order).
            live = session.submit(dumps_payload((_square, 6)))
            taken, _ = fake.take_job()
            fake.send_result(taken, 36)
            (status, value), = wait_all(session, [live], timeout=10)
            assert (status, loads_payload(value)) == ("ok", 36)
            with session._cv:
                assert stale not in session._outcomes
            assert coordinator.jobs_completed == 1  # the live job only
        finally:
            if fake is not None:
                fake.close()
            session.close()
            coordinator.shutdown()

    def test_duplicate_resolution_counts_and_stores_once(self):
        # A lease expires, the job reruns elsewhere, and then *both*
        # workers finish: first resolution wins, no double counting.
        coordinator = Coordinator(lease_timeout_s=0.3,
                                  heartbeat_timeout_s=None)
        addr = coordinator.start()
        session = ClientSession(addr)
        slow = fast = None
        try:
            session.start()
            tag = session.submit(dumps_payload((_square, 9)))
            slow = _FakeWorker(addr, name="slow")
            job_id, _ = slow.take_job()
            # Let the lease expire and hand the rerun to a second worker.
            fast = _FakeWorker(addr, name="fast")
            rerun, _ = fast.take_job(timeout=10)
            assert rerun == job_id
            fast.send_result(job_id, 81)
            (status, value), = wait_all(session, [tag], timeout=10)
            assert (status, loads_payload(value)) == ("ok", 81)
            assert coordinator.jobs_completed == 1
            slow.send_result(job_id, 81)  # the original, finally done
            # Flush: a second job round-trip on the slow connection
            # proves the duplicate result frame has been processed.
            flush = session.submit(dumps_payload((_square, 3)))
            taken, (_fn, item) = slow.take_job(timeout=10)
            assert item == 3
            slow.send_result(taken, 9)
            wait_all(session, [flush], timeout=10)
            assert coordinator.jobs_completed == 2  # not 3
            assert coordinator.lease_expiries == 1
        finally:
            for worker in (slow, fast):
                if worker is not None:
                    worker.close()
            session.close()
            coordinator.shutdown()


class TestStreamingWaits:
    def test_as_completed_yields_in_landing_order(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        session = ClientSession(addr)
        fake = None
        try:
            session.start()
            tags = [session.submit(dumps_payload((_square, n)))
                    for n in range(3)]
            fake = _FakeWorker(addr)
            # Hold all three; item n is tag n's job.
            held = {}
            for _ in tags:
                job_id, (_fn, item) = fake.take_job()
                held[tags[item]] = job_id
            # Finish them out of submission order: 2, 0, 1.
            for tag in (tags[2], tags[0], tags[1]):
                fake.send_result(held[tag], tag * 100)
                landed, (status, value) = session.wait_next(
                    [tag], timeout=10
                )
                assert landed == tag
            order = [tag for tag, _ in
                     session.as_completed(tags, timeout=10)]
            assert sorted(order) == sorted(tags)  # all there, yielded once
        finally:
            if fake is not None:
                fake.close()
            session.close()
            coordinator.shutdown()

    def test_wait_next_empty_ids_rejected(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        try:
            with ClientSession(addr) as session:
                with pytest.raises(ValueError):
                    session.wait_next([])
        finally:
            coordinator.shutdown()
