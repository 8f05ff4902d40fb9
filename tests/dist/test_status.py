"""Cluster-status protocol tests: status frames, observers, reports."""

import threading
import time

import pytest

from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    connect,
    dumps_payload,
    recv_msg,
    send_msg,
)
from repro.dist.status import fetch_cluster_status
from repro.dist.worker import run_worker
from repro.obs import format_cluster_status
from tests.dist.conftest import wait_all


def _square(x):
    return x * x


def _run_jobs(addr, count=3, heartbeat_s=0.2):
    """Run ``count`` jobs through a session, drained by one real worker.

    The worker stays connected (idle) after the batch so status tests
    can inspect its row; call the returned ``stop()`` to drain it.
    """
    stop = threading.Event()
    worker = threading.Thread(
        target=run_worker, args=(addr,),
        kwargs={"name": "w1", "heartbeat_s": heartbeat_s, "stop": stop},
        daemon=True,
    )
    worker.start()
    with ClientSession(addr, session="jobs") as session:
        tags = [session.submit(dumps_payload((_square, n)))
                for n in range(count)]
        outcomes = wait_all(session, tags, timeout=60)
    assert all(status == "ok" for status, _ in outcomes)

    def stopper():
        stop.set()
        worker.join(timeout=10)

    return stopper


class TestStatusReport:
    def test_report_shape_and_worker_rows(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        stop_worker = None
        try:
            stop_worker = _run_jobs(addr, count=3)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                report = coordinator.status_report()
                rows = {w["name"]: w for w in report["workers"]}
                if rows.get("w1", {}).get("jobs_done", 0) >= 3:
                    break
                time.sleep(0.05)
            assert report["addr"] == addr
            assert report["counters"]["jobs_completed"] == 3
            assert report["counters"]["workers_seen"] == 1
            row = rows["w1"]
            assert row["jobs_done"] == 3
            assert row["leases"] == 0
            assert row["heartbeat_age_s"] is not None
        finally:
            if stop_worker is not None:
                stop_worker()
            coordinator.shutdown()

    def test_cluster_metrics_merge_worker_snapshots(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        stop_worker = None
        try:
            stop_worker = _run_jobs(addr, count=2)
            deadline = time.monotonic() + 10
            merged = {}
            while time.monotonic() < deadline:
                merged = coordinator.status_report()["cluster_metrics"]
                if merged.get("counters", {}).get(
                        "worker.jobs_executed", 0) >= 2:
                    break
                time.sleep(0.05)
            # The threaded test worker shares this process's registry, so
            # the counter is cumulative across tests — lower-bound it.
            assert merged["counters"]["worker.jobs_executed"] >= 2
        finally:
            if stop_worker is not None:
                stop_worker()
            coordinator.shutdown()


class TestObserverRole:
    def test_observer_not_counted_as_worker(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        sock = None
        try:
            sock = connect(addr)
            send_msg(sock, {"type": "hello", "worker": "watcher",
                            "proto": PROTOCOL_VERSION, "heartbeat": 0,
                            "role": "observer"})
            send_msg(sock, {"type": "status_request"})
            header, _ = recv_msg(sock, timeout=10)
            assert header["type"] == "status_reply"
            assert coordinator.worker_count() == 0
            assert coordinator.workers_seen == 0
            assert header["report"]["workers"] == []
        finally:
            if sock is not None:
                sock.close()
            coordinator.shutdown()

    def test_observer_never_receives_jobs(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        sock = None
        stop_worker = None
        try:
            sock = connect(addr)
            send_msg(sock, {"type": "hello", "worker": "watcher",
                            "proto": PROTOCOL_VERSION, "heartbeat": 0,
                            "role": "observer"})
            stop_worker = _run_jobs(addr, count=2)
            # All jobs resolved by the real worker; the observer socket
            # must have seen no job frames (nothing to read but our own
            # replies — there were no requests, so nothing at all).
            sock.settimeout(0.2)
            try:
                header, _ = recv_msg(sock, timeout=0.2)
            except Exception:
                header = None
            assert header is None or header.get("type") != "job"
        finally:
            if sock is not None:
                sock.close()
            if stop_worker is not None:
                stop_worker()
            coordinator.shutdown()


class TestFetchClusterStatus:
    def test_round_trip_against_live_coordinator(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        stop_worker = None
        try:
            stop_worker = _run_jobs(addr, count=3)
            report = fetch_cluster_status(addr, timeout=10)
            assert report["addr"] == addr
            assert report["counters"]["jobs_completed"] == 3
            # The observer hello behind fetch_cluster_status must not
            # pollute worker accounting: one real worker, still one.
            assert coordinator.worker_count() == 1
            assert coordinator.workers_seen == 1
            text = format_cluster_status(report)
            assert addr in text
            assert "jobs_completed=3" in text
        finally:
            if stop_worker is not None:
                stop_worker()
            coordinator.shutdown()

    def test_unreachable_coordinator_raises_without_retries(self):
        probe = Coordinator()
        dead_addr = probe.start()
        probe.shutdown()
        with pytest.raises((ConnectionError, OSError, TimeoutError)):
            fetch_cluster_status(dead_addr, timeout=1.0)

    def test_retries_cover_a_coordinator_still_coming_up(self):
        # Reserve a port, then bring the coordinator up only after a
        # delay: the first attempt(s) fail, a retry succeeds.
        import socket as socket_mod

        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        coordinator = Coordinator(port=port)

        def late_start():
            time.sleep(0.7)
            coordinator.start()

        starter = threading.Thread(target=late_start, daemon=True)
        starter.start()
        try:
            report = fetch_cluster_status(
                f"127.0.0.1:{port}", timeout=2.0, retries=10)
            assert report["addr"] == f"127.0.0.1:{port}"
        finally:
            starter.join(timeout=5)
            coordinator.shutdown()

    def test_secured_coordinator_round_trip_and_rejection(self):
        coordinator = Coordinator(secret="hunter2")
        addr = coordinator.start()
        try:
            report = fetch_cluster_status(addr, timeout=10,
                                          secret="hunter2")
            assert report["addr"] == addr
            # A wrong secret is a PermissionError immediately — never
            # retried, a wrong secret does not become right by asking.
            before = coordinator.auth_rejections
            with pytest.raises(PermissionError, match="rejected"):
                fetch_cluster_status(addr, timeout=10, retries=5,
                                     secret="wrong")
            assert coordinator.auth_rejections == before + 1
        finally:
            coordinator.shutdown()
