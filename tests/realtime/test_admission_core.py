"""The admission core's properties under a scripted clock.

No thread, no sleep, no wall clock: a driver offers, starts, releases,
delivers, fails and ticks in whatever order Hypothesis picks, each event
at a clock reading the script advances by hand, and the policy's
invariants are checked after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realtime import OVERLOAD_POLICIES, LatencyBudget
from repro.realtime.admission import (
    DEGRADE_RATIO,
    PARK,
    AdmissionCore,
    Queue,
    Shed,
)

STEP = st.integers(0, 1_500)
OFFER = st.tuples(st.just("offer"), STEP)
OPS = st.lists(
    st.one_of(
        OFFER, OFFER, OFFER,    # offers often enough to reach depth
        st.tuples(st.just("started"), STEP),
        st.tuples(st.just("released"), STEP),
        st.tuples(st.just("delivered"), STEP, st.integers(0, 7)),
        st.tuples(st.just("failed"), STEP, st.integers(0, 15)),
        st.tuples(st.just("tick"), STEP),
    ),
    max_size=100,
)


class Driver:
    """Carries the core's decisions out, mirroring its buffer."""

    def __init__(self, budget):
        self.budget = budget
        self.core = AdmissionCore(budget)
        self.now = 0.0
        self.buffered = []      # the core's buffer, as its decisions say
        self.flying = []        # released and not settled yet
        self.started = None     # the head whose release has begun
        self.offered = 0        # offers the core recorded
        self.spell = []         # per offer while degraded: skipped?

    def offer(self):
        core = self.core
        was_degraded = core.degraded
        decisions = core.offer(self.now)
        if decisions == [PARK]:
            assert self.budget.policy == "block"
            assert len(self.buffered) >= self.budget.admission_depth
            return
        self.offered += 1
        *victims, last = decisions
        for victim in victims:
            assert isinstance(victim, Shed)
            assert victim.reason == "shed-oldest"
            assert victim.frame != self.started, "a started frame was shed"
            self.buffered.remove(victim.frame)
        assert isinstance(last, (Queue, Shed))
        assert last.frame == self.offered - 1
        if isinstance(last, Queue):
            self.buffered.append(last.frame)
        if was_degraded:
            self.spell.append(
                isinstance(last, Shed) and last.reason == "degraded")
            # Kept: exactly one offered frame in DEGRADE_RATIO.
            assert self.spell[-1] == bool(len(self.spell) % DEGRADE_RATIO)
        elif core.degraded:
            # The entering frame is kept by the mode (the overflow may
            # still shed it, when only a started head is buffered).
            assert getattr(last, "reason", "") != "degraded"
            self.spell = []

    def step(self, op):
        kind, advance = op[0], op[1]
        self.now += advance
        core = self.core
        if kind == "offer":
            self.offer()
        elif kind == "started" and self.buffered:
            self.started = self.buffered[0]
            core.started(self.started)
        elif kind == "released":
            may = core.may_release(len(self.flying))
            assert may == (bool(self.buffered) and len(self.flying)
                           < self.budget.max_in_flight)
            if may:
                frame = self.buffered.pop(0)
                core.released(frame, self.now)
                self.flying.append(frame)
                self.started = None
        elif kind == "delivered" and self.flying:
            frame = self.flying.pop(op[2] % len(self.flying))
            core.delivered(frame, self.now)
        elif kind == "failed" and (self.buffered or self.flying):
            pool = self.buffered + self.flying
            frame = pool[op[2] % len(pool)]
            (self.buffered if frame in self.buffered
             else self.flying).remove(frame)
            if frame == self.started:
                self.started = None
            core.failed(frame, self.now, "lost")
        elif kind == "tick":
            core.tick(self.now)

    def check(self):
        core, budget = self.core, self.budget
        ledger = core.ledger
        assert core.queued == len(self.buffered)
        assert core.in_flight == len(self.flying)
        assert len(self.flying) <= budget.max_in_flight
        assert (len(ledger.delivered) + len(ledger.shed) + len(ledger.failed)
                + core.in_flight + core.queued == self.offered)
        if budget.policy == "block":
            assert not ledger.shed
        if core.degraded:       # the exit is checked on every event
            assert self.buffered or (
                len(self.flying) > max(1, budget.max_in_flight // 2))
        misses = [e for e in core.events if e.kind == "deadline-miss"]
        assert len({e.frame for e in misses}) == len(misses), "flagged twice"
        for e in misses:
            admitted = ledger.frames[e.frame].admitted_us
            assert e.time_us - admitted > budget.deadline_us, "flagged early"
        # The wake is due no later than any frame still open could be
        # flagged by a tick.
        wake = core.next_wake(self.now)
        for rec in ledger.frames:
            if rec.status == "in-flight" and not rec.deadline_missed:
                assert wake is not None
                assert wake <= max(rec.admitted_us + budget.deadline_us,
                                   self.now)


@settings(max_examples=300, deadline=None)
@given(ops=OPS, policy=st.sampled_from(OVERLOAD_POLICIES),
       max_in_flight=st.integers(1, 3), depth=st.integers(1, 3))
def test_every_interleaving_keeps_the_policy_invariants(
        ops, policy, max_in_flight, depth):
    driver = Driver(LatencyBudget(deadline_ms=2.0, policy=policy,
                                  max_in_flight=max_in_flight,
                                  queue_depth=depth))
    for op in ops:
        driver.step(op)
        driver.check()


@settings(max_examples=200, deadline=None)
@given(ops=OPS, policy=st.sampled_from(OVERLOAD_POLICIES))
def test_a_tick_flags_nothing_before_the_wake(ops, policy):
    driver = Driver(LatencyBudget(deadline_ms=2.0, policy=policy,
                                  max_in_flight=2, queue_depth=2))
    for op in ops:
        if op[0] != "tick":
            driver.step(op)
            continue
        wake = driver.core.next_wake(driver.now)
        driver.now += op[1]
        if driver.core.tick(driver.now):
            assert wake is not None and wake <= driver.now


def test_an_offer_while_only_a_started_head_is_buffered_is_shed():
    core = AdmissionCore(LatencyBudget(policy="shed-oldest",
                                       max_in_flight=1, queue_depth=1))
    assert core.offer(0.0) == [Queue(0)]
    core.started(0)
    assert core.offer(1.0) == [Shed(1, "shed-oldest")]
    core.released(0, 2.0)
    assert [f.status for f in core.ledger.frames] == ["in-flight", "shed"]


def test_a_settled_frame_is_flagged_once_when_late():
    core = AdmissionCore(LatencyBudget(deadline_ms=1.0, policy="block"))
    for now in (0.0, 10.0):
        core.offer(now)
    core.released(0, 0.0)
    assert core.tick(500.0) == []
    assert core.next_wake(500.0) == 1_000.0
    assert core.tick(1_001.0) == [0]      # in flight
    core.delivered(0, 2_000.0)            # already flagged: not again
    core.released(1, 2_000.0)
    core.failed(1, 2_000.0, "lost")       # late when settled
    details = [e.detail for e in core.events if e.kind == "deadline-miss"]
    assert details == ["1.0 ms in flight", "2.0 ms when failed"]
