"""Framing, flow control, and cluster-harness mechanics."""

import queue
import socket
import struct
import threading

import pytest

from repro.net import ClusterHarness, ConnectionClosed, Frame, Link
from repro.net.protocol import pack_edge, pack_run, split_edge, split_run
from repro.net.worker import parse_hostport


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    links = (Link(a), Link(b))
    yield links
    for link in links:
        link.close()


class TestLink:
    def test_frame_roundtrip(self, pair):
        tx, rx = pair
        tx.send(Frame.DATA, b"hello ", b"world")
        kind, body = rx.recv()
        assert kind == Frame.DATA
        assert bytes(body) == b"hello world"

    def test_memoryview_buffers(self, pair):
        tx, rx = pair
        payload = memoryview(bytearray(range(256)))
        tx.send(Frame.DATA, b"head-", payload)
        _kind, body = rx.recv()
        assert bytes(body) == b"head-" + bytes(range(256))

    def test_empty_frame(self, pair):
        tx, rx = pair
        tx.send(Frame.BYE)
        kind, body = rx.recv()
        assert kind == Frame.BYE
        assert len(body) == 0

    def test_large_frame_survives_partial_sends(self, pair):
        tx, rx = pair
        blob = bytes(range(256)) * 4096  # 1 MiB: several sendmsg calls
        got = {}

        def reader():
            got["frame"] = rx.recv()

        thread = threading.Thread(target=reader)
        thread.start()
        tx.send(Frame.DATA, blob)
        thread.join(10.0)
        kind, body = got["frame"]
        assert kind == Frame.DATA
        assert bytes(body) == blob

    def test_eof_raises_connection_closed(self, pair):
        tx, rx = pair
        tx.close()
        with pytest.raises(ConnectionClosed):
            rx.recv()

    def test_send_on_closed_raises(self, pair):
        tx, rx = pair
        tx.close()
        with pytest.raises(ConnectionClosed):
            tx.send(Frame.DATA, b"x")

    def test_oversized_header_rejected(self, pair):
        tx, rx = pair
        # Hand-craft a header claiming a 2 GiB body.
        tx._sock.sendall(struct.pack("!IB", 1 << 31, Frame.DATA))
        with pytest.raises(ConnectionClosed, match="oversized"):
            rx.recv()


class TestHelpers:
    def test_run_and_edge_headers(self):
        run, rest = split_run(memoryview(pack_run(42) + b"tail"))
        assert run == 42
        assert bytes(rest) == b"tail"
        header = pack_edge(7, "e12")
        run, rest = split_run(memoryview(header + b"payload"))
        assert run == 7
        edge, payload = split_edge(rest)
        assert edge == "e12"
        assert bytes(payload) == b"payload"

    def test_truncated_headers_raise(self):
        with pytest.raises(ConnectionClosed):
            split_run(memoryview(b"\x00"))
        with pytest.raises(ConnectionClosed):
            split_edge(memoryview(b"\x00"))

    def test_parse_hostport(self):
        assert parse_hostport("example.org:7070") == ("example.org", 7070)
        assert parse_hostport(":7070") == ("127.0.0.1", 7070)
        with pytest.raises(ValueError):
            parse_hostport("7070")


class TestCreditFlowControl:
    def _channels(self, link, credits=2):
        """The network ends of a worker hosting ``p0``: ``e0`` leaves
        it, ``e1`` arrives, ``e2`` passes it by."""
        from repro.net import net_channels

        out, inboxes = net_channels(
            ["p0"],
            {"e0": ("p0", "p1"), "e1": ("p1", "p0"), "e2": ("p1", "p2")},
            link, 1, credits,
        )
        assert (list(out), list(inboxes)) == (["e0"], ["e1"])
        return out["e0"], inboxes["e1"]

    def test_producer_blocks_without_credits(self, pair):
        tx, _rx = pair
        out, _inbox = self._channels(tx, credits=2)
        out.put_nowait(1)
        out.put_nowait(2)
        with pytest.raises(queue.Full):
            out.put_nowait(3)
        out.add_credit(1)
        out.put_nowait(3)  # credit granted: flows again

    def test_consumer_grants_credit_per_dequeue(self, pair):
        tx, rx = pair
        _out, inbox = self._channels(tx)
        from repro.net import encode

        blob = b"".join(bytes(b) for b in encode(41))
        inbox.push(memoryview(blob))
        assert inbox.get(timeout=1.0) == 41
        kind, body = rx.recv()  # the dequeue emitted a CREDIT frame
        assert kind == Frame.CREDIT
        run, rest = split_run(body)
        assert run == 1
        edge, counter = split_edge(rest)
        assert edge == "e1"
        assert struct.unpack("!I", counter)[0] == 1


class TestClusterHarness:
    def test_checkout_release_reuse(self):
        with ClusterHarness(size=2) as harness:
            links = harness.checkout(timeout=30.0)
            assert len(links) == 2
            assert all(link.alive for link in links)
            hosts = {link.host for link in links}
            assert len(hosts) == 2  # distinct worker processes
            harness.release(links)
            again = harness.checkout(timeout=10.0)
            assert set(again) == set(links)  # pooled, not respawned
            harness.release(again)

    def test_killed_socket_worker_reconnects(self):
        import time

        with ClusterHarness(size=1) as harness:
            (link,) = harness.checkout(timeout=30.0)
            link.link.close()  # the worker process survives and re-dials
            deadline = time.monotonic() + 5.0
            while link.alive and time.monotonic() < deadline:
                time.sleep(0.01)  # let the reader thread notice the EOF
            assert not link.alive
            harness.release([link])
            (fresh,) = harness.checkout(timeout=30.0)
            assert fresh is not link
            assert fresh.alive
            harness.release([fresh])

    def test_checkout_timeout_is_clean(self):
        with ClusterHarness(size=1, spawn=False) as harness:
            from repro.backends import BackendError

            with pytest.raises(BackendError, match="worker"):
                harness.checkout(timeout=0.3)
