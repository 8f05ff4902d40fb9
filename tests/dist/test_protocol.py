"""Wire-protocol unit tests: framing, payloads, malformed peers."""

import socket
import threading
import time

import pytest

from repro.dist.coordinator import Coordinator
from repro.dist.protocol import (
    ProtocolError,
    connect,
    dumps_payload,
    format_addr,
    loads_payload,
    parse_addr,
    recv_msg,
    send_msg,
)


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_header_only_roundtrip(self):
        a, b = _pair()
        try:
            send_msg(a, {"type": "request"})
            header, payload = recv_msg(b)
            assert header == {"type": "request"}
            assert payload is None
        finally:
            a.close()
            b.close()

    def test_header_and_payload_roundtrip(self):
        a, b = _pair()
        try:
            body = dumps_payload({"metrics": [1.5, 2.5], "n": 3})
            send_msg(a, {"type": "result", "job": 17}, body)
            header, payload = recv_msg(b)
            assert header == {"type": "result", "job": 17}
            assert loads_payload(payload) == {"metrics": [1.5, 2.5], "n": 3}
        finally:
            a.close()
            b.close()

    def test_frames_are_self_delimiting(self):
        # Several frames written back to back come out one at a time.
        a, b = _pair()
        try:
            for n in range(5):
                send_msg(a, {"type": "job", "job": n}, dumps_payload(n * n))
            for n in range(5):
                header, payload = recv_msg(b)
                assert header["job"] == n
                assert loads_payload(payload) == n * n
        finally:
            a.close()
            b.close()

    def test_large_payload(self):
        a, b = _pair()
        received = {}

        def reader():
            header, payload = recv_msg(b)
            received["data"] = loads_payload(payload)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            blob = list(range(200_000))
            send_msg(a, {"type": "result", "job": 0}, dumps_payload(blob))
            thread.join(timeout=10)
            assert received["data"] == blob
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises_connection_error(self):
        a, b = _pair()
        a.sendall(b"\x00\x00\x00\x10")  # half a frame prefix, then EOF
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_msg(b)
        finally:
            b.close()

    def test_garbage_header_raises_protocol_error(self):
        a, b = _pair()
        try:
            import struct

            junk = b"\xff\xfe not json"
            a.sendall(struct.pack("!II", len(junk), 0) + junk)
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_typeless_header_rejected(self):
        a, b = _pair()
        try:
            send_msg(a, {"job": 1})
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            a.close()
            b.close()


class TestAddresses:
    def test_roundtrip(self):
        assert parse_addr(format_addr("10.0.0.7", 9900)) == ("10.0.0.7", 9900)

    def test_port_only_defaults_to_loopback(self):
        assert parse_addr(":8000") == ("127.0.0.1", 8000)

    @pytest.mark.parametrize("bad", ["nope", "host:", "host:abc", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_addr(bad)


class TestNoDelay:
    """Every dist socket sends small frames at once: with Nagle on, a
    request/reply exchange waits out the peer's delayed ACK."""

    @staticmethod
    def _nodelay(sock):
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_both_ends_of_a_connection_set_tcp_nodelay(self):
        coordinator = Coordinator()
        addr = coordinator.start()
        sock = connect(addr, timeout=5.0)
        try:
            assert self._nodelay(sock)
            deadline = time.monotonic() + 5.0
            while not coordinator._connections:
                assert time.monotonic() < deadline, "never accepted"
                time.sleep(0.01)
            (accepted,) = coordinator._connections
            assert self._nodelay(accepted.sock)
        finally:
            sock.close()
            coordinator.shutdown()
