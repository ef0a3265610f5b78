"""The watchdog's deadline scan: a cursor, not a walk over the whole run.

Driven by hand on a fake inner kernel with a settable clock — no
threads, no wall clock: the test admits, releases, delivers and ticks
in whatever order it likes and counts the records a tick looks at.
"""

import queue
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realtime import LatencyBudget
from repro.realtime.kernel import RealtimeKernel
from repro.realtime.topology import StreamTopology

TOPOLOGY = StreamTopology(
    input_pid="stream.input", input_processor="p0",
    admission_edges=["e0"], output_pid="stream.output",
    output_processor="p0", delivery_edge="e9",
)


class FakeKernel:
    """The slice of a kernel the realtime wrapper touches: a clock the
    test sets, a network that swallows frames (or refuses them while
    ``full``) and hands them back at the delivery edge."""

    hosts = None
    stop = threading.Event()    # never set

    def __init__(self):
        self.clock_us = 0.0
        self.full = False
        self.network = []

    def now_us(self):
        return self.clock_us

    def is_stop(self, value):
        return False

    def try_send_(self, edge, value):
        if self.full:
            raise queue.Full
        self.network.append(value)

    def recv_(self, edge):
        return self.network.pop(0)


class CountingList(list):
    """A list that counts the elements read out of it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)

    def __iter__(self):
        for item in list.__iter__(self):
            self.reads += 1
            yield item


def make_kernel(**budget):
    budget.setdefault("deadline_ms", 1.0)
    inner = FakeKernel()
    kernel = RealtimeKernel(inner, TOPOLOGY, LatencyBudget(**budget),
                            start_watchdog=False)
    kernel._frames = CountingList()
    return kernel, inner


def reads_of_one_tick(kernel):
    before = kernel._frames.reads
    kernel._watch_tick()
    return kernel._frames.reads - before


def full_scan_would_flag(kernel, now_us):
    """The scan this PR replaced, as an oracle: walk every record."""
    delivered = kernel._board.delivered()
    released_seen = 0
    flagged = []
    for rec in list.__iter__(kernel._frames):
        if rec.released_us is not None:
            released_seen += 1
        if rec.status != "in-flight" or rec.deadline_missed:
            continue
        if rec.released_us is not None and released_seen <= delivered:
            continue
        if now_us - rec.admitted_us > kernel._budget.deadline_us:
            flagged.append(rec.frame)
    return flagged


def miss_frames(kernel):
    return [e.frame for e in kernel._events if e.kind == "deadline-miss"]


class TestCursor:
    def test_a_tick_after_5000_delivered_frames_touches_only_the_window(self):
        kernel, inner = make_kernel(policy="block", max_in_flight=2,
                                    queue_depth=3)
        budget = kernel._budget
        window = budget.max_in_flight + budget.admission_depth
        ticks = 0
        for frame in range(5_000):
            inner.clock_us += 10.0
            kernel.send_("e0", frame)
            kernel.recv_("e9")
            if frame % 500 == 499:
                kernel._watch_tick()
                ticks += 1
        # Every record is walked past once, whenever the tick comes ...
        assert kernel._frames.reads <= 5_000 + ticks * window
        # ... so the next tick finds nothing left behind the cursor.
        assert reads_of_one_tick(kernel) <= window
        # ... and with frames on their way: two released, three pending.
        inner.full = False
        for frame in range(2):
            kernel.send_("e0", frame)
        inner.full = True
        for frame in range(3):
            kernel.send_("e0", frame)
        assert len(kernel._pending) == 3
        assert kernel._board.in_flight() == 2
        assert 0 < reads_of_one_tick(kernel) <= window
        assert miss_frames(kernel) == []
        inner.clock_us += 5_000.0
        assert reads_of_one_tick(kernel) <= window
        assert miss_frames(kernel) == [5_000, 5_001, 5_002, 5_003, 5_004]

    def test_a_flagged_pending_frame_still_counts_as_a_release_later(self):
        # The cursor must not pass a frame that is yet to be released:
        # the FIFO pairing counts releases from the start of the run.
        kernel, inner = make_kernel(policy="block", max_in_flight=1,
                                    queue_depth=4)
        kernel.send_("e0", "a")          # released at once
        kernel.send_("e0", "b")          # pending: a is in flight
        inner.clock_us = 2_000.0
        kernel._watch_tick()             # flags both ...
        kernel._watch_tick()             # ... and may move the cursor
        assert miss_frames(kernel) == [0, 1]
        kernel.recv_("e9")               # a delivered
        kernel._watch_tick()             # pump releases b
        kernel.send_("e0", "c")          # pending behind b
        kernel.recv_("e9")               # b delivered; pump releases c
        kernel._watch_tick()
        inner.clock_us = 4_000.0
        assert full_scan_would_flag(kernel, inner.clock_us) == [2]
        kernel._watch_tick()
        assert miss_frames(kernel) == [0, 1, 2]


OPS = st.lists(
    st.one_of(
        st.just(("admit",)),
        st.just(("deliver",)),
        st.just(("tick",)),
        st.tuples(st.just("clock"), st.integers(0, 1_500)),
        st.tuples(st.just("full"), st.booleans()),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=OPS,
       policy=st.sampled_from(["shed-newest", "shed-oldest", "degrade"]),
       max_in_flight=st.integers(1, 3), depth=st.integers(1, 3))
def test_cursor_scan_flags_exactly_what_a_full_scan_would(
        ops, policy, max_in_flight, depth):
    kernel, inner = make_kernel(policy=policy, max_in_flight=max_in_flight,
                                queue_depth=depth)
    expected = []
    for op in ops + [("clock", 5_000), ("tick",)]:
        if op[0] == "admit":
            kernel.send_("e0", len(kernel._frames))
        elif op[0] == "deliver":
            if inner.network:
                kernel.recv_("e9")
        elif op[0] == "clock":
            inner.clock_us += op[1]
        elif op[0] == "full":
            inner.full = op[1]
        else:
            with kernel._lock:
                kernel._drain()          # what the tick does first
            expected += full_scan_would_flag(kernel, inner.clock_us)
            kernel._watch_tick()
            assert miss_frames(kernel) == expected
