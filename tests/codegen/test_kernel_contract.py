"""The kernel contract, stated once, over every kind of edge.

There is one threaded kernel (:class:`repro.codegen.kernel.Kernel`); a
substrate is a channel class.  So every fact below is asserted over one
*wire* — an edge ``e0`` between a sending and a receiving kernel — of
each kind the repo ships: ``local`` (one kernel, an in-process queue:
the ``threads`` backend and every colocated edge), ``pipe`` (the
``processes`` backend's default transport), ``ring`` (its
shared-memory transport; batches, has nothing to block on) and ``tcp``
(credit-controlled network channels over a real loopback connection,
with two pump threads standing in for the link readers of the two
workers and the coordinator between them).

Facts that need a descriptor or a doorbell to hold — a parked
``recv_``, ``send_`` or ``alt_`` costs no CPU, an ALT wakes well inside
the old 200 µs tick — are asserted where the channel is waitable (all
but ``ring``, which keeps the bounded tick).  No kernel wait has a
timer unless an ``alt_`` is handed a timeout, so a parked thread that
comes back at all was woken by its own event: the packet, the room, or
the stop.
"""

import importlib
import multiprocessing
import os
import queue
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.codegen import KERNEL_PRIMITIVES, AsyncioKernel
from repro.codegen import kernel as kernel_module
from repro.codegen.kernel import Kernel, Latch, RemoteStub, Shutdown
from repro.codegen.targets.standalone_target import kernel_module_source
from repro.net import ConnectionClosed, Link, encode, net_channels
from repro.net.protocol import split_edge, split_run
from repro.shm import RingChannel
from repro.shm.pipe import PipeChannel

KINDS = ["local", "pipe", "ring", "tcp"]
WAITABLE = ["local", "pipe", "tcp"]
REMOTE = ["pipe", "ring", "tcp"]
EDGE = "e0"
CAPACITY = 4


class Wire:
    """Edge ``e0`` from kernel ``tx`` to kernel ``rx`` (one and the
    same for a local wire), a stop flag both observe, and ``arrive`` —
    the packet ``0`` landing at the receiving end with no sender thread
    (and, on tcp, no encoding) in the way: what the latency
    measurements time from."""

    def __init__(self, tx, rx, stop, arrive):
        self.tx, self.rx, self.stop, self.arrive = tx, rx, stop, arrive


def _pump(link, on_frame):
    """A link reader: what ``WorkerSession.serve`` does per frame."""
    def loop():
        try:
            while True:
                kind, body = link.recv()
                _run, rest = split_run(body)
                on_frame(kind, *split_edge(rest))
        except ConnectionClosed:
            pass

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def make_wire():
    cleanups = []

    def make(kind, **kernel_kw):
        stop = Latch()
        cleanups.append(stop.set)  # unwinds whatever a test left parked
        kw = dict(stop=stop, queue_size=CAPACITY)
        kw.update(kernel_kw)
        if kind == "local":
            kernel = Kernel(**kw)
            return Wire(kernel, kernel, stop,
                        lambda: kernel.channel(EDGE).put_nowait(0))
        if kind == "tcp":
            server = socket.create_server(("127.0.0.1", 0))
            a = socket.create_connection(server.getsockname())
            b, _peer = server.accept()
            server.close()
            links = Link(a), Link(b)
            edges = {EDGE: ("p0", "p1")}
            out, _ = net_channels(["p0"], edges, links[0], 1, CAPACITY)
            _, inboxes = net_channels(["p1"], edges, links[1], 1, CAPACITY)
            pumps = [
                _pump(links[1], lambda kind, edge, body:
                      inboxes[edge].push(body)),
                _pump(links[0], lambda kind, edge, body:
                      out[edge].add_credit(1)),
            ]

            def close():
                for link in links:
                    link.close()
                for pump in pumps:
                    pump.join(5.0)

            cleanups.append(close)
            zero = memoryview(b"".join(bytes(b) for b in encode(0)))
            return Wire(
                Kernel(hosts="p0", remote=out, **kw),
                Kernel(hosts="p1", remote=inboxes, **kw), stop,
                lambda: inboxes[EDGE].push(zero),
            )
        channel = (
            PipeChannel(multiprocessing.get_context(), CAPACITY)
            if kind == "pipe" else RingChannel(slots=8, slot_bytes=1024))
        cleanups.append(channel.destroy)
        return Wire(
            Kernel(hosts="p0", remote={EDGE: channel}, **kw),
            Kernel(hosts="p1", remote={EDGE: channel}, **kw), stop,
            lambda: channel.put_nowait(0),
        )

    yield make
    for cleanup in cleanups:
        cleanup()


def run_thread(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def joined(thread, timeout=10.0):
    thread.join(timeout)
    return not thread.is_alive()


def send_from_an_executive_thread(kernel, edge, *values):
    """What generated code does: a spawned thread sends and exits —
    which is also the moment a batching channel's last batch goes out."""
    return kernel.spawn_(
        f"sender-{edge}", lambda: [kernel.send_(edge, v) for v in values])


class Parked:
    """A thread parked in a blocking primitive; records how it came
    back, when, and what the wait cost in thread-CPU seconds."""

    def __init__(self, call):
        self.outcome = self.returned_at = self.cpu_s = None
        entered = threading.Event()

        def run():
            cpu = time.thread_time()
            entered.set()
            try:
                self.outcome = call()
            except Shutdown:
                self.outcome = "shutdown"
            self.returned_at = time.perf_counter()
            self.cpu_s = time.thread_time() - cpu

        self.thread = run_thread(run)
        assert entered.wait(5.0)

    def join(self):
        assert joined(self.thread)
        return self.outcome


def blocking_call(wire, primitive):
    """A call that parks in ``primitive`` on ``wire`` until the stop:
    nobody sends, and nobody drains what ``send_`` fills."""
    if primitive == "send_":
        def call():
            while True:  # parks once the edge is full
                wire.tx.send_(EDGE, "filler")
    elif primitive == "recv_":
        def call():
            return wire.rx.recv_(EDGE)
    else:
        def call():
            return wire.rx.alt_(["idle", EDGE])
    return call


def process_cpu_over_a_second():
    """Process CPU seconds burnt in one second of this thread sleeping
    (after a moment for a just-started thread to reach its wait)."""
    time.sleep(0.05)
    cpu = time.process_time()
    time.sleep(1.0)
    return time.process_time() - cpu


def median_wake_latency(alt, arrive, rounds=41, batches=3):
    """What the kernel adds to waking a parked thread, in seconds.

    Median time from ``arrive()`` to a parked ``alt()`` returning, less
    two things measured in the same breath: an ``alt()`` that finds the
    packet already there (receiving has a price of its own) and a bare
    ``threading.Event`` wake-up (what this host, loaded as it is right
    now, charges for waking *any* thread).  The doorbell and the
    descriptor add 10-20 µs; a 200 µs polling tick adds 130 and up.  The
    best of ``batches`` is returned: a neighbour's burst lands in one
    batch, a tick is in all of them."""
    def wake(block, release):
        thread = Parked(block)
        time.sleep(0.005)  # let it reach the wait
        released = time.perf_counter()
        release()
        thread.join()
        return thread.returned_at - released

    def median(samples):
        return sorted(samples)[len(samples) // 2]

    added = []
    for _ in range(batches):
        parked, ready, bare = [], [], []
        for _ in range(rounds):
            parked.append(wake(alt, arrive))
            arrive()
            began = time.perf_counter()
            alt()
            ready.append(time.perf_counter() - began)
            event = threading.Event()
            bare.append(wake(event.wait, event.set))
        added.append(median(parked) - median(ready) - median(bare))
    return min(added)


# -- moving packets -----------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
class TestEveryEdgeKind:
    def test_fifo_through_a_bounded_edge(self, make_wire, kind):
        wire = make_wire(kind)
        packets = [("packet", i) for i in range(20 * CAPACITY)]
        sender = send_from_an_executive_thread(wire.tx, EDGE, *packets)
        assert [wire.rx.recv_(EDGE) for _ in packets] == packets
        assert joined(sender)

    def test_stop_token_crosses(self, make_wire, kind):
        wire = make_wire(kind)
        wire.tx.stop_(EDGE)
        token = wire.rx.recv_(EDGE)
        assert wire.rx.is_stop(token) and not wire.rx.is_stop(42)

    def test_try_recv_is_empty_until_a_packet_lands(self, make_wire, kind):
        """The non-blocking receive: an ALT with a zero timeout."""
        wire = make_wire(kind)
        with pytest.raises(queue.Empty):
            wire.rx.alt_([EDGE], 0)
        wire.tx.try_send_(EDGE, "now")
        deadline = time.monotonic() + 5.0
        while True:  # a tcp packet is still on its way for a moment
            try:
                assert wire.rx.alt_([EDGE], 0) == (EDGE, "now")
                break
            except queue.Empty:
                assert time.monotonic() < deadline
                time.sleep(0.001)

    # One edge alone and beside a local one: every wait path a receive
    # takes (a queue's condition, a poll, a ring's own get, a ring tick).

    @pytest.mark.parametrize("edges", [[EDGE], ["idle", EDGE]])
    def test_a_timed_alt_is_empty_no_earlier_than_its_timeout(
            self, make_wire, kind, edges):
        wire = make_wire(kind)
        began = time.monotonic()
        with pytest.raises(queue.Empty):
            wire.rx.alt_(edges, 0.05)
        assert time.monotonic() - began >= 0.05

    @pytest.mark.parametrize("edges", [[EDGE], ["idle", EDGE]])
    def test_a_timed_alt_returns_a_packet_that_lands_in_time(
            self, make_wire, kind, edges):
        wire = make_wire(kind)
        parked = Parked(lambda: wire.rx.alt_(edges, 30.0))
        time.sleep(0.05)
        send_from_an_executive_thread(wire.tx, EDGE, "in time")
        assert parked.join() == (EDGE, "in time")

    @pytest.mark.parametrize("edges", [[EDGE], ["idle", EDGE]])
    def test_a_zero_timeout_alt_is_one_try(self, make_wire, kind, edges):
        """``timeout=0`` never waits: it takes what has landed, or
        raises at once."""
        wire = make_wire(kind)
        began = time.monotonic()
        with pytest.raises(queue.Empty):
            wire.rx.alt_(edges, 0)
        assert time.monotonic() - began < 0.5
        wire.arrive()
        deadline = time.monotonic() + 5.0
        while True:
            try:
                assert wire.rx.alt_(edges, 0) == (EDGE, 0)
                break
            except queue.Empty:  # a tcp packet is still being pushed
                assert time.monotonic() < deadline
                time.sleep(0.001)

    def test_try_send_is_refused_whole_when_nobody_drains(
            self, make_wire, kind):
        wire = make_wire(kind)
        accepted = 0
        with pytest.raises(queue.Full):
            for accepted in range(100000):
                wire.tx.try_send_(EDGE, accepted)
        if kind != "ring":  # a ring's bound is slots of batches
            assert accepted == CAPACITY
        # Nothing refused was enqueued, nothing accepted was lost.
        assert [wire.rx.recv_(EDGE) for _ in range(accepted)] == list(
            range(accepted))
        with pytest.raises(queue.Empty):
            wire.rx.alt_([EDGE], 0)

    def test_alt_names_the_edge_that_delivered(self, make_wire, kind):
        wire = make_wire(kind)
        wire.tx.send_(EDGE, "hello")
        assert wire.rx.alt_(["idle", EDGE]) == (EDGE, "hello")
        wire.rx.send_("idle", "local beside it")
        assert wire.rx.alt_(["idle", EDGE]) == ("idle", "local beside it")

    def test_a_parked_alt_is_woken_by_the_packet(self, make_wire, kind):
        wire = make_wire(kind)
        parked = Parked(lambda: wire.rx.alt_(["idle", EDGE]))
        time.sleep(0.05)
        send_from_an_executive_thread(wire.tx, EDGE, "late")
        assert parked.join() == (EDGE, "late")

    def test_aliased_edge_is_the_channel_it_names(self, make_wire, kind):
        """A fused router: the edge on the worker's side of it *is* the
        edge on the far side, under either name, on both ends."""
        wire = make_wire(kind, edge_aliases={"e9": EDGE})
        for kernel in {wire.tx, wire.rx}:
            assert kernel.channel("e9") is kernel.channel(EDGE)
        wire.tx.send_("e9", "through the fused router")
        assert wire.rx.alt_(["e9"]) == ("e9", "through the fused router")
        wire.tx.try_send_(EDGE, "either name")
        assert wire.rx.recv_("e9") == "either name"

    @pytest.mark.parametrize("primitive", ["recv_", "alt_", "send_"])
    def test_stop_unblocks_within_a_poll_tick(
            self, make_wire, kind, primitive):
        """Raising the stop unwinds a parked primitive.  No wait has a
        timer to come back on, so completing before the join timeout
        is the proof that the stop's own event did the waking."""
        wire = make_wire(kind)
        parked = Parked(blocking_call(wire, primitive))
        time.sleep(0.1)
        assert parked.thread.is_alive()
        wire.stop.set()
        assert parked.join() == "shutdown"

    def test_no_wake_up_is_lost_under_concurrent_senders(
            self, make_wire, kind):
        """9 000 packets over three edges into one ALT, more senders
        than cores, a shortened switch interval, and — where the edge
        can wake the waiter — no timer at all: a single lost wake-up (a
        packet or a free slot appearing between a waiter's try and its
        poll without ringing) parks a thread for good."""
        wire = make_wire(kind)
        edges, rounds = ["l0", "l1", EDGE], 3000
        got = []

        def collect():
            for _ in range(len(edges) * rounds):
                got.append(wire.rx.alt_(edges))

        def feed(kernel, edge):
            for i in range(rounds):
                kernel.send_(edge, i)
                if i % 3 == 0:
                    time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [wire.rx.spawn_("collect", collect)] + [
                kernel.spawn_(f"feed-{edge}", lambda k=kernel, e=edge:
                              feed(k, e))
                for kernel, edge in zip((wire.rx, wire.rx, wire.tx), edges)
            ]
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for edge in edges:  # per-edge FIFO, nothing lost or repeated
            assert [v for e, v in got if e == edge] == list(range(rounds))


# -- waiting without polling --------------------------------------------------


@pytest.mark.parametrize("kind", WAITABLE)
class TestWaitableEdges:
    def test_a_parked_alt_burns_no_cpu(self, make_wire, kind):
        """The sleep-polling ALT woke every 200 µs to scan each edge."""
        wire = make_wire(kind)
        parked = Parked(lambda: wire.rx.alt_([EDGE, "l0", "l1"]))
        assert process_cpu_over_a_second() < 0.01
        wire.rx.send_("l0", "done")
        assert parked.join() == ("l0", "done")

    @pytest.mark.parametrize("primitive", ["recv_", "send_"])
    def test_a_parked_recv_or_send_burns_no_cpu(
            self, make_wire, kind, primitive):
        """They woke every 20 ms to look at the stop flag."""
        wire = make_wire(kind)
        parked = Parked(blocking_call(wire, primitive))
        assert process_cpu_over_a_second() < 0.01
        wire.stop.set()
        assert parked.join() == "shutdown"

    def test_wake_latency_is_well_under_the_old_tick(self, make_wire, kind):
        if kind == "tcp":
            # Its wake-up *is* the local one (asserted), and what its
            # receive adds — a credit frame through two more threads —
            # is priced by the host's scheduler, not by the kernel.
            assert isinstance(make_wire(kind).rx.channel(EDGE),
                              kernel_module._LocalChannel)
            return
        wire = make_wire(kind)
        assert median_wake_latency(
            lambda: wire.rx.alt_([EDGE, "l0"]), wire.arrive) < 120e-6

    def test_executive_thread_closes_its_waiter_on_exit(
            self, make_wire, kind):
        wire = make_wire(kind)
        wire.rx.channel("l0")
        before = set(os.listdir("/proc/self/fd"))
        thread = wire.rx.spawn_("proc_m", lambda: wire.rx.alt_([EDGE, "l0"]))
        time.sleep(0.05)
        assert set(os.listdir("/proc/self/fd")) - before  # the doorbell
        wire.stop.set()
        assert joined(thread, 5.0)
        assert set(os.listdir("/proc/self/fd")) == before
        assert wire.rx.channel("l0").bell is None


def test_a_ring_edge_keeps_the_bounded_tick(make_wire):
    assert make_wire("ring").rx._waiter([EDGE, "l0"]) is None


def test_a_ring_recv_blocks_in_the_rings_own_get(make_wire, monkeypatch):
    """One ring edge has nothing to poll: ``recv_`` waits in the ring's
    own ``get`` (as ``send_`` does in its ``put``), never in the
    multi-edge ALT's 200 µs scan."""
    wire = make_wire("ring")
    channel = wire.rx.channel(EDGE)
    timeouts = []
    real_get = channel.get

    def get(timeout=None):
        timeouts.append(timeout)
        return real_get(timeout=timeout)

    monkeypatch.setattr(channel, "get", get)
    monkeypatch.setattr(wire.rx, "_alt_tick", lambda edges: pytest.fail(
        "a one-edge receive scanned on the ALT's tick"))
    parked = Parked(lambda: wire.rx.recv_(EDGE))
    time.sleep(0.05)
    send_from_an_executive_thread(wire.tx, EDGE, "late")
    assert parked.join() == "late"
    assert set(timeouts) == {kernel_module._RING_WAIT_S}


# -- spans --------------------------------------------------------------------


class TestSpans:
    @pytest.mark.parametrize("kind", REMOTE)
    def test_a_send_on_a_remote_edge_is_a_transfer_span(
            self, make_wire, kind):
        wire = make_wire(kind, record_spans=True, edge_aliases={"e9": EDGE})
        wire.tx.send_("e9", "named by the real edge")
        wire.tx.send_("l0", "a local edge is not a transfer")
        ((resource, owner, start, end),) = wire.tx.transfer_spans
        assert (resource, owner) == (EDGE, threading.current_thread().name)
        assert 0.0 <= start <= end <= wire.tx.now_us()

    @pytest.mark.parametrize("kind", ["pipe", "tcp"])
    def test_a_transfer_span_times_the_move_not_the_back_pressure(
            self, make_wire, kind):
        """A consumer that sleeps before its first ``recv_`` holds the
        sender up for a slot (pipe) or a credit (tcp); that wait is the
        consumer's, not the edge's."""
        wire = make_wire(kind, record_spans=True)
        nap, packets = 0.2, CAPACITY + 1

        def consume():
            time.sleep(nap)
            for _ in range(packets):
                wire.rx.recv_(EDGE)

        consumer = run_thread(consume)
        began = time.perf_counter()
        for i in range(packets):
            wire.tx.send_(EDGE, i)
        assert time.perf_counter() - began >= 0.9 * nap  # it did wait
        assert joined(consumer)
        assert len(wire.tx.transfer_spans) == packets
        longest_us = max(
            end - start for _r, _o, start, end in wire.tx.transfer_spans)
        assert longest_us < nap * 1e6 / 4

    def test_nothing_is_recorded_unless_asked(self, make_wire):
        wire = make_wire("pipe")
        wire.tx.send_(EDGE, 1)
        assert wire.tx.call_(lambda: 7) == 7
        assert wire.tx.transfer_spans == wire.tx.compute_spans == []

    def test_compute_spans_name_the_threads_processor(self):
        kernel = Kernel(
            hosts={"p0", "p1"}, placement={"proc_a": "p1"},
            record_spans=True)
        thread = kernel.spawn_("proc_a", lambda: kernel.call_(sum, [1, 2]))
        assert joined(thread)
        kernel.call_(sum, [3])  # a thread the placement does not know
        spans = {owner: resource
                 for resource, owner, _s, _e in kernel.compute_spans}
        assert spans == {
            "proc_a": "p1", threading.current_thread().name: "p0+p1"}


# -- threads ------------------------------------------------------------------


class TestSpawn:
    PLACEMENT = {"proc_a": "p0", "proc_b": "p1", "proc_c": "p2"}

    @pytest.mark.parametrize("hosts, started", [
        (None, ["proc_a", "proc_b", "proc_c", "proc_unplaced"]),
        ("p1", ["proc_b", "proc_unplaced"]),
        ({"p0", "p2"}, ["proc_a", "proc_c", "proc_unplaced"]),
    ], ids=["all", "one", "set"])
    def test_only_hosted_threads_start(self, hosts, started):
        kernel = Kernel(hosts=hosts, placement=self.PLACEMENT)
        ran = []
        threads = [
            kernel.spawn_(name, lambda name=name: ran.append(name))
            for name in [*self.PLACEMENT, "proc_unplaced"]
        ]
        for thread in threads:
            thread.join(5.0)  # a stub's join is a no-op, not an error
            assert not thread.is_alive()
        assert sorted(ran) == started
        assert [t.name for t in kernel.local_threads()] == started
        assert sum(isinstance(t, RemoteStub) for t in threads) \
            == len(threads) - len(started)

    def test_a_fused_thread_is_answered_with_a_stub(self):
        kernel = Kernel(fused_threads=frozenset({"proc_df0_mw0"}))
        ran = []
        stub = kernel.spawn_("proc_df0_mw0", lambda: ran.append("router"))
        stub.join()
        assert isinstance(stub, RemoteStub) and ran == []

    def test_join_unwinds_what_is_still_blocked(self):
        kernel = Kernel()
        blocked = kernel.spawn_("blocked", lambda: kernel.recv_("never"))
        sink = kernel.spawn_("sink", lambda: None)
        kernel.join_([sink], timeout=5.0)
        assert kernel.stop.is_set() and joined(blocked, 2.0)

    def test_join_reports_a_sink_that_never_finishes(self):
        kernel = Kernel()
        stuck = kernel.spawn_("stuck", lambda: kernel.recv_("never"))
        with pytest.raises(RuntimeError, match="stuck"):
            kernel.join_([stuck], timeout=0.05)
        assert joined(stuck, 2.0)


@pytest.fixture(params=["in-tree", "emitted"])
def kernel_class(request, tmp_path, monkeypatch):
    """``Kernel`` from the package, and from ``skipper_kernel.py`` as
    ``repro emit`` writes it."""
    if request.param == "in-tree":
        return Kernel
    (tmp_path / "skipper_kernel.py").write_text(kernel_module_source())
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "skipper_kernel", raising=False)
    emitted = importlib.import_module("skipper_kernel")
    monkeypatch.delitem(sys.modules, "skipper_kernel")
    assert emitted.__file__ == str(tmp_path / "skipper_kernel.py")
    return emitted.Kernel


def test_racing_threads_get_one_channel_for_a_new_edge(kernel_class):
    """An edge's producer and consumer both ask for it first thing;
    check-then-set without the lock hands them two queues (33 times in
    3000 at this switch interval) — a lost packet and a hung run."""
    kernel = kernel_class()
    n_threads, rounds = 8, 300
    seen = [[] for _ in range(rounds)]
    barrier = threading.Barrier(n_threads)

    def ask():
        for round_, channels in enumerate(seen):
            barrier.wait(10.0)
            channels.append(kernel.channel(f"e{round_}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [run_thread(ask) for _ in range(n_threads)]
        assert all(joined(thread, 60.0) for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for channels in seen:
        assert len(channels) == n_threads
        assert len({id(channel) for channel in channels}) == 1


# -- the primitive set --------------------------------------------------------


class TestPrimitiveSet:
    def test_both_kernels_implement_every_primitive(self):
        assert "try_send_" in KERNEL_PRIMITIVES
        for cls in (Kernel, AsyncioKernel):
            for name in KERNEL_PRIMITIVES:
                assert callable(getattr(cls, name)), (cls, name)

    def test_asyncio_try_send_raises_queue_full(self):
        import asyncio

        async def probe():
            kernel = AsyncioKernel(queue_size=1)
            kernel.try_send_("e0", 1)
            with pytest.raises(queue.Full):
                kernel.try_send_("e0", 2)
            assert await kernel.recv_("e0") == 1

        asyncio.run(probe())

    def test_asyncio_parked_primitives_arm_no_timer(self):
        """A task parked in ``recv_``, on a full ``send_`` or in
        ``alt_`` sleeps on its queue: over half a second the loop arms
        one timer, the test's own sleep; join_ unwinds them all."""
        import asyncio

        async def probe():
            loop = asyncio.get_running_loop()
            armed = []
            call_at = loop.call_at

            def counting(when, *args, **kwargs):
                armed.append(when)
                return call_at(when, *args, **kwargs)

            kernel = AsyncioKernel(queue_size=1)
            kernel.try_send_("full", 0)

            async def parked():
                await kernel.recv_("e0")

            async def sending():
                await kernel.send_("full", 1)

            async def alting():
                await kernel.alt_(["e1", "e2"])

            tasks = [kernel.spawn_(f"t{i}", body) for i, body in
                     enumerate((parked, sending, alting))]
            await asyncio.sleep(0)
            loop.call_at = counting
            try:
                await asyncio.sleep(0.5)
            finally:
                del loop.call_at
            assert len(armed) == 1
            assert not any(task.done() for task in tasks)
            await kernel.join_([], timeout=1.0)
            assert all(task.done() for task in tasks)

        asyncio.run(probe())

    def test_call_drives_a_coroutine_function_to_its_result(self):
        async def fetch(x):
            import asyncio

            await asyncio.sleep(0)
            return x + 1

        assert Kernel().call_(fetch, 41) == 42

    def test_the_kernel_module_imports_only_the_standard_library(self):
        """What lets ``repro emit`` ship it verbatim: it loads in an
        interpreter with no site-packages and no ``PYTHONPATH``."""
        proc = subprocess.run(
            [sys.executable, "-I", "-S", kernel_module.__file__],
            stderr=subprocess.PIPE, text=True, timeout=60.0)
        assert proc.returncode == 0, proc.stderr
