"""The core's deadline scan: a cursor, not a walk over the whole run.

Driven by hand on an :class:`~repro.realtime.admission.AdmissionCore`
with a clock the test sets — no threads, no wall clock: the test
admits, releases, delivers and ticks in whatever order it likes and
counts the records a tick looks at.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realtime import LatencyBudget
from repro.realtime.admission import AdmissionCore, Queue


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


class Driver:
    """A driver of one core: what it buffered and released, in order."""

    def __init__(self, **budget):
        budget.setdefault("deadline_ms", 1.0)
        self.core = AdmissionCore(LatencyBudget(**budget))
        self.core.ledger.frames = CountingList()
        self.clock_us = 0.0
        self.buffered = []
        self.flying = []

    def admit(self):
        for decision in self.core.offer(self.clock_us):
            if isinstance(decision, Queue):
                self.buffered.append(decision.frame)
            elif decision.frame in self.buffered:
                self.buffered.remove(decision.frame)

    def release(self):
        if self.core.may_release(len(self.flying)):
            frame = self.buffered.pop(0)
            self.core.released(frame, self.clock_us)
            self.flying.append(frame)

    def deliver(self):
        self.flying.pop(0)
        self.core.delivered(None, self.clock_us)   # FIFO, as the kernel

    def tick(self):
        return self.core.tick(self.clock_us)

    def reads_of_one_tick(self):
        before = self.core.ledger.frames.reads
        self.tick()
        return self.core.ledger.frames.reads - before


def full_scan_would_flag(core, now_us):
    """The scan the cursor replaced, as an oracle: walk every record."""
    return [rec.frame for rec in list.__iter__(core.ledger.frames)
            if rec.status == "in-flight" and not rec.deadline_missed
            and now_us - rec.admitted_us > core.budget.deadline_us]


def miss_frames(core):
    return [e.frame for e in core.events if e.kind == "deadline-miss"]


class TestCursor:
    def test_a_tick_after_5000_delivered_frames_touches_only_the_window(self):
        run = Driver(policy="block", max_in_flight=2, queue_depth=3)
        budget = run.core.budget
        window = budget.max_in_flight + budget.admission_depth
        ticks = 0
        for frame in range(5_000):
            run.clock_us += 10.0
            run.admit()
            run.release()
            run.deliver()
            if frame % 500 == 499:
                run.tick()
                ticks += 1
        frames = run.core.ledger.frames
        # Every record is walked past once, whenever the tick comes ...
        assert frames.reads <= 5_000 + ticks * window
        # ... so the next tick finds nothing left behind the cursor.
        assert run.reads_of_one_tick() <= window
        # ... and with frames on their way: two released, three pending.
        for _ in range(2):
            run.admit()
            run.release()
        for _ in range(3):
            run.admit()
        assert run.core.queued == 3 and run.core.in_flight == 2
        assert 0 < run.reads_of_one_tick() <= window
        assert miss_frames(run.core) == []
        run.clock_us += 5_000.0
        assert run.reads_of_one_tick() <= window
        assert miss_frames(run.core) == [5_000, 5_001, 5_002, 5_003, 5_004]

    def test_a_flagged_pending_frame_still_counts_as_a_release_later(self):
        run = Driver(policy="block", max_in_flight=1, queue_depth=4)
        run.admit()
        run.release()                    # a released at once
        run.admit()                      # b pending: a is in flight
        run.clock_us = 2_000.0
        run.tick()                       # flags both ...
        run.tick()                       # ... and may move the cursor
        assert miss_frames(run.core) == [0, 1]
        run.deliver()                    # a delivered
        run.release()                    # b released
        run.admit()                      # c pending behind b
        run.deliver()                    # b delivered
        run.release()                    # c released
        run.tick()
        run.clock_us = 4_000.0
        assert full_scan_would_flag(run.core, run.clock_us) == [2]
        run.tick()
        assert miss_frames(run.core) == [0, 1, 2]


OPS = st.lists(
    st.one_of(
        st.just(("admit",)),
        st.just(("release",)),
        st.just(("deliver",)),
        st.just(("tick",)),
        st.tuples(st.just("clock"), st.integers(0, 1_500)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=OPS,
       policy=st.sampled_from(["shed-newest", "shed-oldest", "degrade"]),
       max_in_flight=st.integers(1, 3), depth=st.integers(1, 3))
def test_cursor_scan_flags_exactly_what_a_full_scan_would(
        ops, policy, max_in_flight, depth):
    run = Driver(policy=policy, max_in_flight=max_in_flight,
                 queue_depth=depth)
    for op in ops + [("clock", 5_000), ("tick",)]:
        if op[0] == "admit":
            run.admit()
        elif op[0] == "release":
            run.release()
        elif op[0] == "deliver":
            if run.flying:
                run.deliver()
        elif op[0] == "clock":
            run.clock_us += op[1]
        else:
            expected = full_scan_would_flag(run.core, run.clock_us)
            assert run.tick() == expected
