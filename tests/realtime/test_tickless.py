"""The realtime layer waits on events, not on ticks.

Counts and liveness only: no test here compares two wall-clock
readings.  A wake-up that never comes shows as a ``WAIT``-second
liveness timeout failing the test (not hanging it), a tick that should
not exist as a count that is too high.  The inner kernel is a fake, as
in ``test_deadline_scan.py``: a clock the test sets and a network that
swallows released frames and hands them back at the delivery edge.
"""

import asyncio
import dataclasses
import multiprocessing
import queue
import struct
import threading

import pytest

from repro.backends import get_backend
from repro.codegen.kernel import Shutdown
from repro.machine import FAST_TEST
from repro.net import ClusterHarness
from repro.net.kernel import NetStreamBoard
from repro.realtime import LatencyBudget
from repro.realtime.async_kernel import AsyncRealtimeKernel
from repro.realtime import kernel as realtime_kernel
from repro.realtime.kernel import RealtimeKernel, StreamBoard
from repro.realtime.soak import frame_value, make_soak
from repro.realtime.topology import StreamTopology

#: Liveness bound of every wait below — far beyond any wake-up, far
#: below the 60 s deadlines a missing doorbell would sleep out.
WAIT = 20.0
ASLEEP_MS = 60_000.0

TOPOLOGY = StreamTopology(
    input_pid="stream.input", input_processor="p0",
    admission_edges=["e0"], output_pid="stream.output",
    output_processor="p0", delivery_edge="e9",
)

#: The same stream with its output on a processor the kernel under test
#: does not host: only the board connects admission and delivery.
REMOTE_OUTPUT = dataclasses.replace(TOPOLOGY, output_processor="p1")

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]


class FakeKernel:
    """What the threaded wrapper touches of a kernel."""

    hosts = None

    def __init__(self):
        self.stop = threading.Event()
        self.clock_us = 0.0
        #: ``try_send_`` raises ``queue.Full`` this many more times.
        self.refusals = 0
        self.network = queue.Queue()

    def now_us(self):
        return self.clock_us

    def is_stop(self, value):
        return False

    def try_send_(self, edge, value):
        if self.refusals > 0:
            self.refusals -= 1
            raise queue.Full
        self.network.put(value)

    def recv_(self, edge):
        return self.network.get(timeout=WAIT)

    def stop_(self, edge):
        self.network.put("STOP")


class Observed(RealtimeKernel):
    """Counts service rounds and says when the grabber parks."""

    def __init__(self, *args, **kwargs):
        self.ticked = threading.Semaphore(0)
        self.parked = threading.Event()
        super().__init__(*args, **kwargs)

    def _watch_tick(self):
        try:
            return super()._watch_tick()
        finally:
            self.ticked.release()

    def _offer(self, value):
        offered = super()._offer(value)
        if not offered:
            # Still under the admission lock: whoever takes it next
            # finds this thread inside ``_room.wait()``.
            self.parked.set()
        return offered

    def after_ticks(self, n):
        for _ in range(n):
            assert self.ticked.acquire(timeout=WAIT), "service thread asleep"


@pytest.fixture
def make_kernel():
    made = []

    def make(board=None, topology=TOPOLOGY, **budget):
        inner = FakeKernel()
        if topology is REMOTE_OUTPUT:
            inner.hosts = frozenset({"p0"})
        kernel = Observed(inner, topology, LatencyBudget(**budget),
                          board=board)
        made.append((kernel, board))
        kernel.after_ticks(1)   # the service thread is up and asleep
        return kernel, inner

    yield make
    for kernel, board in made:
        kernel.stop.set()
        kernel.shutdown()
        assert not kernel._watchdog.is_alive()
        if board is not None:
            board.close()


def events(kernel, kind):
    return [e.frame for e in kernel._core.events if e.kind == kind]


# -- (a) no tick: service rounds per frame ------------------------------------


@pytest.mark.parametrize("backend", ["threads", "asyncio"])
def test_a_paced_run_makes_a_few_service_rounds_per_frame(
        backend, monkeypatch):
    rounds = []
    tick = RealtimeKernel._watch_tick

    def counting(self):
        rounds.append(1)
        return tick(self)

    monkeypatch.setattr(RealtimeKernel, "_watch_tick", counting)
    frames = 20
    prog, table, mapping = make_soak(nproc=3, frames=frames, pieces=4,
                                     work_us=100.0)
    report = get_backend(backend).run(
        mapping, table, program=prog, costs=FAST_TEST, timeout=60.0,
        budget=LatencyBudget(deadline_ms=40.0, policy="block",
                             max_in_flight=2, frame_period_ms=40.0))
    assert [v for _k, v in report.outputs] == [
        frame_value(k, 4) for k in range(frames)]
    # One per delivery, and the odd deadline timer; a 2 ms tick made 20.
    assert 0 < len(rounds) <= 3 * frames


# -- (b) a delivery, and nothing else, releases the next frame ----------------


def test_a_delivery_releases_the_next_frame(make_kernel):
    kernel, inner = make_kernel(deadline_ms=ASLEEP_MS, policy="block",
                                max_in_flight=1, queue_depth=2)
    kernel.send_("e0", "a")              # released by the grabber itself
    kernel.send_("e0", "b")              # buffered: a is in flight
    assert kernel._board.in_flight() == 1 and len(kernel._pending) == 1
    assert kernel.recv_("e9") == "a"     # the delivery rings ...
    assert kernel.recv_("e9") == "b"     # ... or this waits out 60 s
    assert kernel._board.released() == 2


def _deliver(board):
    board.note_delivered()


@pytest.mark.parametrize("start_method", START_METHODS)
def test_a_delivery_in_another_process_releases_the_next_frame(
        make_kernel, start_method):
    ctx = multiprocessing.get_context(start_method)
    board = StreamBoard.shared(ctx)     # the fixture closes it
    kernel, inner = make_kernel(
        board=board, topology=REMOTE_OUTPUT, deadline_ms=ASLEEP_MS,
        policy="block", max_in_flight=1, queue_depth=2)
    kernel.send_("e0", "a")
    kernel.send_("e0", "b")
    assert inner.network.get(timeout=WAIT) == "a"
    assert inner.network.empty()
    child = ctx.Process(target=_deliver, args=(board,))
    child.start()
    assert inner.network.get(timeout=WAIT) == "b"
    child.join(WAIT)
    assert child.exitcode == 0


class _NoLink:
    def send(self, *frame):
        pass


def test_a_mirrored_delivery_count_rings_the_net_board():
    board = NetStreamBoard(_NoLink(), run=1)
    count = struct.Struct("!Bd")
    board.apply(memoryview(count.pack(0, 1.0)))      # a release: silent
    assert not board.bell.is_set()
    board.apply(memoryview(count.pack(1, 1.0)))      # a delivery: rings
    assert board.bell.is_set() and board.delivered() == 1
    board.wait(WAIT)
    assert not board.bell.is_set()
    board.apply(memoryview(count.pack(1, 1.0)))      # stale relay: silent
    assert not board.bell.is_set()
    board.note_delivered()                           # a local delivery
    assert board.bell.is_set() and board.delivered() == 2


def test_a_delivery_on_another_tcp_worker_releases_the_next_frame():
    frames = 6
    prog, table, mapping = make_soak(nproc=3, frames=frames, pieces=4,
                                     work_us=100.0)
    topology = StreamTopology.from_mapping(mapping)
    mapping.assignment[topology.output_pid] = "p1"
    hosts = {}

    def on_assign(assignment):
        hosts.update(assignment)

    with ClusterHarness(size=2) as cluster:
        report = get_backend("tcp").run(
            mapping, table, program=prog, costs=FAST_TEST, timeout=WAIT,
            budget=LatencyBudget(deadline_ms=ASLEEP_MS, policy="block",
                                 max_in_flight=1),
            cluster=cluster, scheduler="round-robin", on_assign=on_assign)
    assert hosts[topology.input_processor] is not hosts["p1"]
    assert [v for _k, v in report.outputs] == [
        frame_value(k, 4) for k in range(frames)]
    assert len(report.realtime.ledger.delivered) == frames


# -- (c) the timer path: a miss is flagged in flight, once, never early -------


def test_a_frame_never_delivered_is_flagged_once_by_the_timer(make_kernel):
    kernel, inner = make_kernel(deadline_ms=5.0, policy="block",
                                max_in_flight=1)
    kernel.send_("e0", "a")              # admitted at 0 us, never delivered
    kernel.after_ticks(3)                # the clock stands still: rounds
    assert events(kernel, "deadline-miss") == []    # come, flag nothing
    inner.clock_us = 5_000.0             # due, not over
    kernel.after_ticks(3)
    assert events(kernel, "deadline-miss") == []
    inner.clock_us = 5_001.0
    while not events(kernel, "deadline-miss"):
        kernel.after_ticks(1)            # no delivery, no admission: timer
    inner.clock_us = 50_000.0
    kernel.after_ticks(1)                # one idle sleep later: still once
    assert events(kernel, "deadline-miss") == [0]
    assert kernel._core.ledger.frames[0].deadline_missed
    assert kernel._core.ledger.frames[0].status == "in-flight"


def test_the_sleep_is_derived_from_the_earliest_open_deadline(monkeypatch):
    # A retry shorter than the open deadline below, so that it shows.
    monkeypatch.setattr(realtime_kernel, "_RETRY_S", 0.001)
    inner = FakeKernel()
    kernel = RealtimeKernel(inner, TOPOLOGY, LatencyBudget(
        deadline_ms=40.0, policy="block", max_in_flight=1, queue_depth=4),
        start_watchdog=False)
    assert kernel._watch_tick() == 0.040         # idle: one deadline
    inner.clock_us = 1_000.0
    kernel.send_("e0", "a")
    inner.clock_us = 3_000.0
    kernel.send_("e0", "b")
    inner.clock_us = 11_000.0
    assert kernel._watch_tick() == pytest.approx(0.030)   # a's, not b's
    inner.clock_us = 41_001.0
    assert kernel._watch_tick() == pytest.approx(0.001999)  # a flagged: b's
    kernel.recv_("e9")
    inner.refusals = 1
    assert kernel._watch_tick() == 0.001  # a full queue: retry
    inner.clock_us = 50_000.0
    assert kernel._watch_tick() == 0.040          # all flagged: idle again
    assert events(kernel, "deadline-miss") == [0, 1]


# -- (d) queue.Full is the one stall that is retried on a timer ---------------


def test_a_full_queue_is_retried_until_the_frame_lands_once(make_kernel):
    kernel, inner = make_kernel(deadline_ms=ASLEEP_MS, policy="block",
                                max_in_flight=2)
    inner.refusals = 4
    kernel.send_("e0", "a")
    assert inner.network.get(timeout=WAIT) == "a"
    assert inner.refusals == 0
    kernel.after_ticks(2)
    assert inner.network.empty()
    assert kernel._board.released() == 1 and not kernel._pending


def test_the_flush_parks_on_a_full_queue_and_ends_when_it_drains(
        make_kernel):
    kernel, inner = make_kernel(deadline_ms=ASLEEP_MS, policy="block",
                                max_in_flight=1, queue_depth=2)
    kernel.send_("e0", "a")
    kernel.send_("e0", "b")              # buffered behind a
    inner.refusals = 4
    kernel.stop_("e0")                   # returns once b is out
    assert [inner.network.get(timeout=WAIT) for _ in range(3)] == [
        "a", "b", "STOP"]
    assert inner.refusals == 0


# -- (e) the parked grabber ---------------------------------------------------


def park_a_grabber(kernel):
    """Fill the buffer, then send one frame more from a thread."""
    kernel.send_("e0", "a")              # in flight
    kernel.send_("e0", "b")              # the buffer (depth 1) is full
    outcome = []

    def grab():
        try:
            kernel.send_("e0", "c")
            outcome.append("admitted")
        except Shutdown:
            outcome.append("shutdown")

    grabber = threading.Thread(target=grab)
    grabber.start()
    assert kernel.parked.wait(WAIT)
    assert len(kernel._core.ledger.frames) == 2
    return grabber, outcome


def test_a_parked_grabber_resumes_when_the_head_is_released(make_kernel):
    kernel, inner = make_kernel(deadline_ms=ASLEEP_MS, policy="block",
                                max_in_flight=1, queue_depth=1)
    grabber, outcome = park_a_grabber(kernel)
    assert kernel.recv_("e9") == "a"     # frees the slot b takes
    grabber.join(WAIT)
    assert outcome == ["admitted"]
    assert [f.frame for f in kernel._core.ledger.frames] == [0, 1, 2]
    assert kernel.recv_("e9") == "b"
    assert kernel.recv_("e9") == "c"


def test_a_parked_grabber_unwinds_when_the_run_stops(make_kernel):
    kernel, inner = make_kernel(deadline_ms=ASLEEP_MS, policy="block",
                                max_in_flight=1, queue_depth=1)
    grabber, outcome = park_a_grabber(kernel)
    inner.stop.set()
    kernel.shutdown()
    grabber.join(WAIT)
    assert outcome == ["shutdown"]
    assert len(kernel._core.ledger.frames) == 2


# -- (f) the same on one event loop -------------------------------------------


class _Flag:
    def __init__(self):
        self.flag = False

    def is_set(self):
        return self.flag


class AsyncFakeKernel(FakeKernel):
    def __init__(self):
        super().__init__()
        self.stop = _Flag()
        self.network = asyncio.Queue()

    def try_send_(self, edge, value):
        if self.refusals > 0:
            self.refusals -= 1
            raise queue.Full
        self.network.put_nowait(value)

    async def recv_(self, edge):
        return await asyncio.wait_for(self.network.get(), WAIT)

    async def stop_(self, edge):
        self.network.put_nowait("STOP")


class AsyncObserved(AsyncRealtimeKernel):
    def __init__(self, *args, **kwargs):
        self.ticked = asyncio.Semaphore(0)
        super().__init__(*args, **kwargs)

    def _watch_tick(self):
        try:
            return super()._watch_tick()
        finally:
            self.ticked.release()

    async def after_ticks(self, n):
        for _ in range(n):
            await asyncio.wait_for(self.ticked.acquire(), WAIT)


def on_a_loop(scenario, **budget):
    """Run ``scenario(kernel, inner)`` against a started async wrapper."""
    async def main():
        inner = AsyncFakeKernel()
        kernel = AsyncObserved(inner, TOPOLOGY, LatencyBudget(**budget))
        kernel.start()
        try:
            await kernel.after_ticks(1)
            await scenario(kernel, inner)
        finally:
            await kernel.ashutdown()

    asyncio.run(main())


class TestOnOneEventLoop:
    def test_a_delivery_releases_the_next_frame(self):
        async def scenario(kernel, inner):
            await kernel.send_("e0", "a")
            await kernel.send_("e0", "b")
            assert len(kernel._pending) == 1
            assert await kernel.recv_("e9") == "a"
            assert await kernel.recv_("e9") == "b"

        on_a_loop(scenario, deadline_ms=ASLEEP_MS, policy="block",
                  max_in_flight=1, queue_depth=2)

    def test_a_frame_never_delivered_is_flagged_once_by_the_timer(self):
        async def scenario(kernel, inner):
            await kernel.send_("e0", "a")
            await kernel.after_ticks(3)
            inner.clock_us = 5_000.0
            await kernel.after_ticks(3)
            assert events(kernel, "deadline-miss") == []
            inner.clock_us = 5_001.0
            while not events(kernel, "deadline-miss"):
                await kernel.after_ticks(1)
            inner.clock_us = 50_000.0
            await kernel.after_ticks(1)
            assert events(kernel, "deadline-miss") == [0]

        on_a_loop(scenario, deadline_ms=5.0, policy="block",
                  max_in_flight=1)

    def test_a_full_queue_is_retried_until_the_frame_lands_once(self):
        async def scenario(kernel, inner):
            inner.refusals = 4
            await kernel.send_("e0", "a")
            assert await inner.recv_("e9") == "a"
            assert inner.refusals == 0
            await kernel.after_ticks(2)
            assert inner.network.empty()
            assert kernel._board.released() == 1 and not kernel._pending

        on_a_loop(scenario, deadline_ms=ASLEEP_MS, policy="block",
                  max_in_flight=2)

    def test_the_flush_parks_on_a_full_queue_and_ends_when_it_drains(self):
        async def scenario(kernel, inner):
            await kernel.send_("e0", "a")
            await kernel.send_("e0", "b")
            inner.refusals = 4
            await asyncio.wait_for(kernel.stop_("e0"), WAIT)
            assert [await inner.recv_("e9") for _ in range(3)] == [
                "a", "b", "STOP"]

        on_a_loop(scenario, deadline_ms=ASLEEP_MS, policy="block",
                  max_in_flight=1, queue_depth=2)

    def test_a_parked_grabber_resumes_or_unwinds(self):
        async def scenario(kernel, inner):
            await kernel.send_("e0", "a")
            await kernel.send_("e0", "b")
            grabber = asyncio.ensure_future(kernel.send_("e0", "c"))
            await asyncio.sleep(0)
            assert not grabber.done() and len(kernel._core.ledger.frames) == 2
            assert await kernel.recv_("e9") == "a"
            await asyncio.wait_for(grabber, WAIT)
            assert len(kernel._core.ledger.frames) == 3
            # ... and a second one, parked when the run is torn down.
            parked = asyncio.ensure_future(kernel.send_("e0", "d"))
            await asyncio.sleep(0)
            assert not parked.done()
            inner.stop.flag = True
            await kernel.ashutdown()
            with pytest.raises(Shutdown):
                await asyncio.wait_for(parked, WAIT)
            assert len(kernel._core.ledger.frames) == 3

        on_a_loop(scenario, deadline_ms=ASLEEP_MS, policy="block",
                  max_in_flight=1, queue_depth=1)
