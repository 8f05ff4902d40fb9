"""Regression tests for deterministic connection iteration.

``Coordinator._connections`` is a set; before connections carried an
accept-order ``seq``, dispatch and lease-expiry order depended on the
hash seed — harmless for correctness, but it made scheduling decisions
(hence cache warm-up order, log order, reschedule targets) vary between
runs.  These tests pin the fixed behavior: iteration follows ``seq``,
never set order.
"""

import socket
import time

from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator, _Connection, _Job, _Session
from repro.dist.protocol import (
    FRAME_TYPES,
    MSG_JOB,
    PROTOCOL_VERSION,
    dumps_payload,
    loads_payload,
    recv_msg,
    send_msg,
)


def _fake_connection(seq: int) -> _Connection:
    # A real (unconnected) socket object so the dataclass stays honest;
    # nothing is ever sent through it in these tests.
    conn = _Connection(sock=socket.socket(), peer=f"peer-{seq}")
    conn.seq = seq
    conn.hungry = True
    return conn


def _queue_jobs(coordinator: Coordinator, count: int) -> None:
    """Queue ``count`` jobs in one client session (caller holds _cv)."""
    session = _Session(id=1, name="s1")
    coordinator._sessions[session.id] = session
    for job_id in range(count):
        coordinator._jobs[job_id] = _Job(id=job_id, payload=b"",
                                         session=session.id, tag=job_id)
        session.queue.append(job_id)
    coordinator._next_id = count


class TestDispatchOrder:
    def test_jobs_go_to_hungry_connections_in_accept_order(self):
        coordinator = Coordinator()
        # Insert in scrambled order: a set will iterate these however
        # the hash seed likes; dispatch must still follow seq.
        conns = {seq: _fake_connection(seq) for seq in (3, 0, 2, 1)}
        with coordinator._cv:
            coordinator._connections.update(conns.values())
            _queue_jobs(coordinator, 4)
            sends = coordinator._dispatch_locked()
        assert [conn.seq for conn, _header, _payload in sends] == [0, 1, 2, 3]
        assert all(header["type"] == MSG_JOB for _c, header, _p in sends)
        for conn in conns.values():
            conn.sock.close()

    def test_observers_never_receive_jobs(self):
        coordinator = Coordinator()
        worker = _fake_connection(1)
        observer = _fake_connection(0)
        observer.role = "observer"
        with coordinator._cv:
            coordinator._connections.update({worker, observer})
            _queue_jobs(coordinator, 1)
            sends = coordinator._dispatch_locked()
        assert [conn.seq for conn, _h, _p in sends] == [1]
        worker.sock.close()
        observer.sock.close()

    def test_accept_seq_increments_monotonically(self):
        coordinator = Coordinator()
        try:
            coordinator.start()
            socks = []
            for _ in range(3):
                sock = socket.create_connection(
                    ("127.0.0.1", coordinator.port), timeout=5.0)
                socks.append(sock)
            deadline_misses = 0
            while deadline_misses < 100:
                with coordinator._cv:
                    seqs = sorted(c.seq for c in coordinator._connections)
                if len(seqs) == 3:
                    break
                deadline_misses += 1
                time.sleep(0.02)
            assert seqs == [0, 1, 2]
            for sock in socks:
                sock.close()
        finally:
            coordinator.shutdown()


class TestFrameTypeRegistry:
    def test_every_msg_constant_is_declared(self):
        from repro.dist import protocol

        msg_values = {
            getattr(protocol, name) for name in dir(protocol)
            if name.startswith("MSG_")
        }
        assert msg_values == set(FRAME_TYPES)
        assert PROTOCOL_VERSION == 3

    def test_unknown_frame_type_is_silently_ignored(self):
        """Additive protocol: a newer peer's frame must not kill serve."""
        coordinator = Coordinator()
        session = None
        try:
            addr = coordinator.start()
            sock = socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=5.0)
            send_msg(sock, {"type": "hello", "proto": PROTOCOL_VERSION,
                            "worker": "t"})
            send_msg(sock, {"type": "frame-from-the-future", "x": 1})
            time.sleep(0.1)
            # The connection survived the unknown frame: a known
            # request/response still round-trips on the same socket.
            session = ClientSession(addr).start()
            session.submit(dumps_payload((None, None)))
            send_msg(sock, {"type": "request"})
            header, payload = recv_msg(sock)
            assert header["type"] == "job"
            assert loads_payload(payload) == (None, None)
            sock.close()
        finally:
            if session is not None:
                session.close()
            coordinator.shutdown()
