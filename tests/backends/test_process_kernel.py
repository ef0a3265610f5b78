"""The kernel as one ``processes`` worker sees it: one hosted processor,
in-process edges beside pipe (and ring) channels to the others.

The substrate-independent contract — the same facts over local, pipe,
ring and tcp edges — is ``tests/codegen/test_kernel_contract.py``.
"""

import glob
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.codegen.kernel import Kernel, Shutdown
from repro.shm import RingChannel
from repro.shm.pipe import PipeChannel

from tests.codegen.test_kernel_contract import Parked, median_wake_latency


def make_kernel(**kw):
    defaults = dict(
        hosts="p0",
        placement={},
        stop=threading.Event(),
        poll_s=0.01,
    )
    defaults.update(kw)
    return Kernel(**defaults)


@pytest.fixture
def channels():
    made = []
    ctx = multiprocessing.get_context()

    def make(kind):
        channel = (PipeChannel(ctx, 4) if kind == "pipe"
                   else RingChannel(slots=8, slot_bytes=1024))
        made.append(channel)
        return channel

    yield make
    for channel in made:
        channel.destroy()


class TestSharedMemoryTransfer:
    """The kernel hands every value to the edge's channel as it is; on
    a pipe edge the channel moves large buffers through ``/dev/shm`` and
    everything else through the pipe."""

    @staticmethod
    def cross(pipe, value):
        """``value`` sent by one worker's kernel, received by another's;
        also the spill slots it occupied on the way (kept for reuse)."""
        make_kernel(remote={"r0": pipe}).send_("r0", value)
        spilled = glob.glob(glob.escape(pipe._spill_prefix) + "*")
        got = make_kernel(hosts="p1", remote={"r0": pipe}).recv_("r0")
        assert glob.glob(glob.escape(pipe._spill_prefix) + "*") == spilled
        return got, spilled

    def test_small_arrays_pass_through(self, channels):
        arr = np.arange(8)
        got, spilled = self.cross(channels("pipe"), arr)
        np.testing.assert_array_equal(got, arr)
        assert spilled == []

    def test_non_arrays_pass_through(self, channels):
        pipe = channels("pipe")
        for value in (42, "s", [1, 2], {"k": 1}, None):
            assert self.cross(pipe, value) == (value, [])

    def test_large_array_roundtrip(self, channels):
        arr = np.random.default_rng(0).integers(0, 255, size=(256, 256))
        got, spilled = self.cross(channels("pipe"), arr)
        np.testing.assert_array_equal(got, arr)
        assert got.flags.writeable and len(spilled) == 1

    def test_object_arrays_pass_through(self, channels):
        arr = np.array([{"a": 1}, None], dtype=object)
        got, _spilled = self.cross(channels("pipe"), arr)
        assert got.dtype == object and list(got) == list(arr)


class TestKernelPrimitives:
    def test_local_send_recv(self):
        kernel = make_kernel()
        kernel.send_("e0", 42)
        assert kernel.recv_("e0") == 42

    def test_stop_token_roundtrip(self):
        kernel = make_kernel()
        kernel.stop_("e0")
        assert kernel.is_stop(kernel.recv_("e0"))

    def test_alt_picks_ready_edge(self):
        kernel = make_kernel()
        kernel.send_("e1", "hello")
        edge, value = kernel.alt_(["e0", "e1"])
        assert (edge, value) == ("e1", "hello")

    def test_spawn_skips_remote_processes(self):
        kernel = make_kernel(placement={"proc_far": "p9", "proc_near": "p0"})
        ran = []
        stub = kernel.spawn_("proc_far", lambda: ran.append("far"))
        assert not stub.is_alive()
        stub.join()  # must be a no-op, not an error
        thread = kernel.spawn_("proc_near", lambda: ran.append("near"))
        thread.join(5.0)
        assert ran == ["near"]
        assert kernel.local_threads() == [thread]

    def test_stop_event_unblocks_recv(self):
        stop = threading.Event()
        kernel = make_kernel(stop=stop)
        stop.set()
        with pytest.raises(Shutdown):
            kernel.recv_("never")

    def test_stop_event_unblocks_send_on_full_queue(self):
        stop = threading.Event()
        kernel = make_kernel(stop=stop, queue_size=1)
        kernel.send_("e0", 1)  # fills the queue
        timer = threading.Timer(0.05, stop.set)
        timer.start()
        with pytest.raises(Shutdown):
            kernel.send_("e0", 2)
        timer.cancel()

    def test_call_records_wall_clock_spans(self):
        kernel = make_kernel(record_spans=True)
        assert kernel.call_(lambda a, b: a + b, 2, 3) == 5
        ((resource, owner, start, end),) = kernel.compute_spans
        assert resource == "p0"
        assert owner == threading.current_thread().name
        assert end >= start >= 0.0

    def test_call_without_recording(self):
        kernel = make_kernel(record_spans=False)
        assert kernel.call_(lambda: 7) == 7
        assert kernel.compute_spans == []


def _Parked(kernel, edges):
    """A thread parked in ``alt_`` over ``edges``."""
    return Parked(lambda: kernel.alt_(edges))


class TestBlockingAlt:
    """``alt_`` sleeps until a packet exists: local queues ring the
    waiter's doorbell, pipe channels are polled by fd, and only
    channels with neither (the ring transport) keep the polling tick.
    Every test parks with a *long* ``poll_s`` where it can, so waking
    on the timeout instead of the event fails the deadline."""

    def test_local_edge_wakes_a_parked_alt(self):
        kernel = make_kernel(poll_s=30.0)
        parked = _Parked(kernel, ["e0", "e1"])
        time.sleep(0.05)
        kernel.send_("e1", "late")
        assert parked.join() == ("e1", "late")

    def test_remote_pipe_edge_wakes_a_parked_alt(self, channels):
        pipe = channels("pipe")
        kernel = make_kernel(poll_s=30.0, remote={"r0": pipe})
        parked = _Parked(kernel, ["e0", "r0"])
        time.sleep(0.05)
        pipe.put_nowait(("remote", 1))
        assert parked.join() == ("r0", ("remote", 1))

    def test_mixed_local_and_pipe_edges(self, channels):
        pipe = channels("pipe")
        kernel = make_kernel(poll_s=30.0, remote={"r0": pipe})
        edges = ["r0", "e0", "e1"]
        for edge, send in (("e1", lambda: kernel.send_("e1", "a")),
                           ("r0", lambda: pipe.put_nowait("b")),
                           ("e0", lambda: kernel.send_("e0", "c"))):
            parked = _Parked(kernel, edges)
            time.sleep(0.02)
            send()
            assert parked.join()[0] == edge

    def test_large_array_over_a_pipe_edge_is_unpacked(self, channels):
        pipe = channels("pipe")
        frame = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
        make_kernel(remote={"r0": pipe}).send_("r0", frame)
        edge, value = make_kernel(remote={"r0": pipe}).alt_(["r0"])
        np.testing.assert_array_equal(value, frame)

    def test_aliased_edge_waits_on_the_channel_it_resolves_to(self, channels):
        pipe = channels("pipe")
        kernel = make_kernel(
            poll_s=30.0, remote={"r0": pipe},
            edge_aliases={"e5": "r0"},
        )
        parked = _Parked(kernel, ["e5"])
        time.sleep(0.02)
        pipe.put_nowait("through the fused router")
        assert parked.join() == ("e5", "through the fused router")

    def test_ring_edge_keeps_the_bounded_tick(self, channels):
        ring = channels("ring")
        kernel = make_kernel(remote={"r0": ring})
        assert kernel._waiter(["r0", "e0"]) is None
        parked = _Parked(kernel, ["r0", "e0"])
        time.sleep(0.02)
        ring.put_nowait("slot")
        assert parked.join() == ("r0", "slot")
        parked = _Parked(kernel, ["r0", "e0"])
        time.sleep(0.02)
        kernel.send_("e0", "local beside a ring")
        assert parked.join() == ("e0", "local beside a ring")

    def test_a_parked_alt_burns_no_cpu(self, channels):
        """The old ALT woke every 200 µs to poll each edge."""
        pipe = channels("pipe")
        kernel = make_kernel(poll_s=0.1, remote={"r0": pipe})
        parked = _Parked(kernel, ["r0", "e0", "e1"])
        time.sleep(0.5)
        kernel.send_("e0", "done")
        parked.join()
        assert parked.cpu_s < 0.01

    @pytest.mark.parametrize("remote", [False, True])
    def test_wake_latency_is_well_under_the_old_tick(self, channels, remote):
        pipe = channels("pipe")
        kernel = make_kernel(poll_s=30.0, remote={"r0": pipe})
        assert median_wake_latency(
            lambda: kernel.alt_(["r0", "e0"]),
            (lambda: pipe.put_nowait(0)) if remote
            else (lambda: kernel.send_("e0", 0))) < 120e-6

    def test_stop_wakes_a_parked_alt_within_a_poll_tick(self, channels):
        stop = threading.Event()
        pipe = channels("pipe")
        kernel = make_kernel(
            stop=stop, poll_s=0.02, remote={"r0": pipe})
        parked = _Parked(kernel, ["r0", "e0"])
        time.sleep(0.05)
        raised = time.perf_counter()
        stop.set()
        assert parked.join() == "shutdown"
        assert parked.returned_at - raised < 0.2

    def test_a_packet_that_lands_before_the_wait_is_not_missed(self):
        kernel = make_kernel(poll_s=30.0)
        for round_ in range(200):
            kernel.send_("e0", round_)
            assert kernel.alt_(["e0", "e1"]) == ("e0", round_)

    def test_no_wake_up_is_lost_under_concurrent_senders(self, channels):
        """More senders than cores, a shortened switch interval, and a
        ``poll_s`` long enough that one lost wake-up (a packet landing
        between the waiter's scan and its poll without ringing) would
        blow the time bound on its own."""
        pipe = channels("pipe")
        kernel = make_kernel(poll_s=60.0, remote={"r0": pipe})
        edges, rounds = ["e0", "e1", "r0"], 3000
        got = []

        def collect():
            for _ in range(len(edges) * rounds):
                got.append(kernel.alt_(edges))

        def feed(edge):
            for i in range(rounds):
                kernel.send_(edge, i)
                if i % 3 == 0:
                    time.sleep(0)

        threads = [threading.Thread(target=collect, daemon=True)] + [
            threading.Thread(target=feed, args=(edge,), daemon=True)
            for edge in edges
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        started = time.monotonic()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() - started < 30.0
        for edge in edges:  # per-edge FIFO, nothing lost or repeated
            assert [v for e, v in got if e == edge] == list(range(rounds))

    def test_executive_thread_closes_its_waiter_on_exit(self, channels):
        pipe = channels("pipe")
        stop = threading.Event()
        kernel = make_kernel(
            stop=stop, poll_s=0.01, remote={"r0": pipe})
        before = set(os.listdir("/proc/self/fd"))
        thread = kernel.spawn_("proc_m", lambda: kernel.alt_(["r0", "e0"]))
        time.sleep(0.05)
        assert set(os.listdir("/proc/self/fd")) - before  # the doorbell
        stop.set()
        thread.join(5.0)
        assert not thread.is_alive()
        assert set(os.listdir("/proc/self/fd")) == before
        assert kernel.channel("e0").bell is None
