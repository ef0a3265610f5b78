"""Properties of the clock-free policy core, under a scripted clock.

:class:`repro.faults.farm.FarmSupervisor` decides everything a
supervised farm decides, on the kernels and in the simulator alike.
These tests drive it the way a driver does — events in, decisions out —
over random interleavings of dispatch / answer / silence / late answer /
beat-stops / tick / stop on a 2-6-worker farm, with no thread, no sleep
and no clock but the script's own ``now``.  A packet may be a ``Chunk``
of items, which the core times per item.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.kernel import Chunk
from repro.faults import FaultPolicy, FaultReport
from repro.faults.farm import (
    MAX_REDISPATCH, Abandon, FarmSupervisor, ReleaseStop, Send,
)
from repro.faults.topology import Farm, FarmWorker
from repro.health import HealthPolicy
from repro.sched.remap import RemapPolicy

#: Everything engages within a few script steps (which advance the
#: clock by 1 ms to 300 ms): detection, probation, stuck, hedging,
#: scoring, migration.
SNAPPY = FaultPolicy(
    packet_timeout_s=0.05, heartbeat_timeout_s=0.02, probe_after_s=0.1,
    health=HealthPolicy(stuck_after_s=0.02, hedge_floor_s=0.001,
                        hedge_min_samples=2, min_samples=2),
    remap=RemapPolicy(confirm_completions=3, probe_stride=4),
)


def make_farm(n):
    return Farm(sid="df0", kind="farm", owner_pid="df0.master",
                dispatcher_pid="df0.master", workers=[
        FarmWorker(pid=f"df0.worker{i}", index=i, processor=f"p{i + 1}",
                   slot=i, dispatch_edge=f"d{i}", work_in_edge=f"i{i}",
                   work_out_edge=f"o{i}", collect_edge=f"c{i}")
        for i in range(n)
    ])


class Driver:
    """A farm in a test tube: per-worker queues, a script-owned clock.

    Every decision the core returns is checked on the way in; what a
    real driver would put on an edge lands in the addressee's queue, to
    be answered (``answer``), sat on (``silent``) or answered late.
    """

    def __init__(self, n, policy=SNAPPY):
        self.core = FarmSupervisor(make_farm(n), policy, FaultReport())
        self.policy = policy
        self.n = n
        self.now = 100.0
        self.queues = [[] for _ in range(n)]
        self.silent = set()
        self.beating = set(range(n))
        self.port_of = {}  # seq -> the port it was dispatched on
        self.accepted = Counter()
        self.moves = Counter()  # seq -> re-dispatches (timeout or drain)
        self.released = Counter()
        self.stopped = []
        self.abandoned = False
        self.quiet_since = None  # (instant, next_wake then): no event since
        for w in range(n):
            self.core.beat(w, self.now)

    # -- carrying decisions out, checking them ------------------------------

    def carry_out(self, decisions):
        moved = set()
        for position, d in enumerate(decisions):
            if isinstance(d, Abandon):
                assert position == len(decisions) - 1
                self.abandoned = True
            elif isinstance(d, ReleaseStop):
                # Only with nothing in flight, after every Send of the
                # same scan (a driver queues in order), and only once.
                assert not self.core.inflight
                assert all(not isinstance(later, Send)
                           for later in decisions[position:])
                self.released[d.port] += 1
                assert self.released[d.port] <= self.stopped.count(d.port)
            else:
                assert d.why in ("redispatch", "hedge", "probe", "drain")
                if d.why in ("redispatch", "drain"):
                    assert d.seq not in moved  # once per conviction
                    moved.add(d.seq)
                    self.moves[d.seq] += 1
                    assert self.moves[d.seq] <= MAX_REDISPATCH
                self.queues[d.worker].append(d.seq)

    # -- script steps ---------------------------------------------------------

    def event(self):
        self.quiet_since = None

    def dispatch(self, port, items=1):
        if self.core.stopping or self.abandoned:
            return
        self.event()
        core = self.core
        shunned = core.quarantined | core.migrated | set(core.suspects)
        value = f"v{core.next_seq}"
        if items > 1:
            value = Chunk([value] * items)
        (d,) = core.dispatch(port, value, self.now)
        if isinstance(d, Abandon):
            self.abandoned = True
            return
        assert d.why == "dispatch"
        if shunned != set(range(self.n)):  # a peer exists
            assert d.worker not in shunned
        self.port_of[d.seq] = port
        self.queues[d.worker].append(d.seq)

    def answer(self, worker):
        if worker in self.silent or not self.queues[worker]:
            return
        self.event()
        seq = self.queues[worker].pop(0)
        origin = self.core.result(worker, seq, self.now)
        if origin is not None:
            assert origin == self.port_of[seq]
            self.accepted[seq] += 1
            assert self.accepted[seq] == 1  # duplicates never surface

    def advance(self, dt):
        if self.quiet_since is None:
            self.quiet_since = (self.now, self.core.next_wake(self.now))
        self.now += dt

    def beat(self):
        for w in self.beating:
            self.event()
            self.core.beat(w, self.now)

    def tick(self):
        wake = self.core.next_wake(self.now)
        decisions = self.core.tick(self.now)
        if decisions:
            # next_wake is never later than a deciding tick ...
            assert wake is not None and wake <= self.now
            if self.quiet_since is not None:
                # ... wherever the quiet stretch before it started.
                _, promised = self.quiet_since
                assert promised is not None and promised <= self.now
        self.event()
        self.carry_out(decisions)
        if not self.abandoned:
            # ... and a scan leaves nothing due at its own instant.
            after = self.core.next_wake(self.now)
            assert after is None or after > self.now

    def stop(self):
        if self.abandoned:
            return
        self.event()
        for port in range(self.n):
            self.stopped.append(port)
            self.carry_out(self.core.stop(port, self.now))

    def drain(self):
        """Let the run end: live workers answer everything, scans happen
        exactly when the core asks for them."""
        for _ in range(500):
            for w in range(self.n):
                while w not in self.silent and self.queues[w]:
                    self.answer(w)
            if self.abandoned or not (self.core.inflight
                                      or self.core.held_stops):
                return
            wake = self.core.next_wake(self.now)
            assert wake is not None, "packets in flight and no deadline"
            self.now = max(self.now, wake)
            self.beat()
            self.tick()
        raise AssertionError("the farm never settled")


STEP = st.one_of(
    st.tuples(st.just("dispatch"), st.integers(0, 5)),
    st.tuples(st.just("answer"), st.integers(0, 5)),
    st.tuples(st.just("advance"), st.sampled_from([0.001, 0.01, 0.05, 0.3])),
    st.tuples(st.just("beat"), st.just(0)),
    st.tuples(st.just("tick"), st.just(0)),
    st.tuples(st.just("silence"), st.integers(1, 5)),
    st.tuples(st.just("revive"), st.integers(1, 5)),
    st.tuples(st.just("beat-stops"), st.integers(1, 5)),
)
#: The same steps, where a dispatch may carry a chunk of 2-8 items.
CHUNK_STEP = st.one_of(
    STEP, st.tuples(st.just("chunk"), st.tuples(st.integers(0, 5),
                                                st.integers(2, 8))))


def play(n, steps, policy=SNAPPY):
    """Run ``steps`` on an ``n``-worker farm, stop it, let it settle —
    every packet accepted exactly once and every Stop out, or the run
    abandoned.  Worker 0 never goes silent, so a run can always end."""
    farm = Driver(n, policy)
    for name, arg in steps:
        worker = arg % n if isinstance(arg, int) else arg
        if name == "dispatch":
            farm.dispatch(worker)
        elif name == "chunk":
            farm.dispatch(arg[0] % n, items=arg[1])
        elif name == "answer":
            farm.answer(worker)
        elif name == "advance":
            farm.advance(arg)
        elif name == "beat":
            farm.beat()
        elif name == "tick":
            farm.tick()
        elif name == "silence" and worker:
            farm.silent.add(worker)
        elif name == "revive":
            farm.silent.discard(worker)  # its backlog is answered late
        elif name == "beat-stops" and worker:
            farm.beating.discard(worker)
    farm.stop()
    farm.drain()
    if farm.abandoned:
        assert farm.core.report.by_category("abandoned")
        return farm
    # accepted + abandoned == dispatched, each exactly once ...
    assert set(farm.accepted) == set(farm.port_of)
    assert set(farm.accepted.values()) <= {1}
    # ... and every Stop the dispatcher sent went out exactly once.
    assert farm.released == Counter(farm.stopped)
    assert not farm.core.inflight and not farm.core.held_stops
    return farm


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 6), steps=st.lists(STEP, max_size=120))
def test_every_packet_is_accepted_once_or_the_run_abandons(n, steps):
    play(n, steps)  # checks every decision on the way, and the end state


def test_seeded_scripts_reach_every_rule():
    """Hypothesis shrinks well but wanders little; 300 long seeded
    scripts make sure the properties above were checked against every
    rule of the core, not just the easy ones."""
    rng = random.Random(23)
    names = ["dispatch", "answer", "tick", "advance", "dispatch", "answer",
             "tick", "advance", "beat", "silence", "revive", "beat-stops"]
    seen = Counter()
    for _ in range(300):
        steps = []
        for _ in range(rng.randint(0, 120)):
            name = rng.choice(names)
            steps.append((name, rng.choice([0.001, 0.01, 0.05, 0.3])
                          if name == "advance" else rng.randint(0, 5)))
        farm = play(rng.randint(2, 6), steps)
        seen.update(r.category for r in farm.core.report.records)
        seen["settled" if not farm.abandoned else "gave up"] += 1
    for reached in ("detected", "quarantine", "redispatch", "duplicate",
                    "probe", "readmit", "limping", "restored", "hedge",
                    "hedge-win", "remap", "abandoned", "settled", "gave up"):
        assert seen[reached], f"no script reached {reached!r}"


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 6), steps=st.lists(CHUNK_STEP, max_size=120))
def test_every_chunk_is_accepted_once_or_the_run_abandons(n, steps):
    play(n, steps)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 6), steps=st.lists(STEP, max_size=120))
def test_health_layer_off_changes_no_invariant(n, steps):
    """The same script with scoring, hedging and migration switched off:
    the classic crash/stall supervisor alone keeps every promise."""
    farm = play(n, steps, FaultPolicy(
        packet_timeout_s=0.05, heartbeat_timeout_s=0.02, probe_after_s=0.1,
        health=HealthPolicy(enabled=False, hedge_enabled=False)))
    assert not farm.core.report.limping and not farm.core.report.hedges


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 6),
    unit=st.sampled_from([0.001, 0.01, 0.05]),
    services=st.lists(st.floats(1.0, 1.99), min_size=20, max_size=150),
)
def test_a_worker_near_the_median_is_never_touched(n, unit, services):
    """Service within ``clear_factor`` x the farm median (here: every
    service in [unit, 2 unit)) — never flagged, demoted, hedged around,
    migrated or quarantined, however the answers interleave."""
    policy = FaultPolicy(remap=RemapPolicy())
    assert policy.health_policy().clear_factor == 2.0
    core = FarmSupervisor(make_farm(n), policy, FaultReport())
    services = [s * unit for s in services]
    now = 50.0
    due = []  # (finish instant, worker, seq), one packet per port

    def dispatch(port):
        (d,) = core.dispatch(port, "x", now)
        assert d == Send(port, d.seq, "x", "dispatch")  # never rerouted
        due.append((now + services.pop(), port, d.seq))

    for port in range(n):
        dispatch(port)
    while due:
        due.sort()
        now, worker, seq = due.pop(0)
        for w in range(n):
            core.beat(w, now)
        assert core.tick(now) == []
        assert core.result(worker, seq, now) == worker
        assert core.tick(now) == []
        if len(services) > n:
            dispatch(worker)
    touched = [r for r in core.report.records if r.category != "health"]
    assert touched == []
    assert not core.quarantined and not core.migrated and not core.suspects


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 6),
    items=st.integers(2, 8),
    unit=st.sampled_from([0.001, 0.01, 0.05]),
    services=st.lists(st.floats(1.0, 1.99), min_size=20, max_size=150),
)
def test_a_worker_serving_chunks_at_its_peers_pace_is_never_touched(
        n, items, unit, services):
    """Worker 0 is fed chunks of ``items`` and serves each in
    ``[items * unit, 2 * items * unit)``, its peers singles in
    ``[unit, 2 unit)``: per item, one pace.  Timed per item, the chunk
    server is never flagged, demoted, hedged around, migrated or
    convicted — timed per packet it would read ``items`` times slower."""
    core = FarmSupervisor(make_farm(n), FaultPolicy(remap=RemapPolicy()),
                          FaultReport())
    services = [s * unit for s in services]
    now = 50.0
    due = []  # (finish instant, worker, seq), one packet per port

    def dispatch(port):
        value = Chunk(["x"] * items) if port == 0 else "x"
        (d,) = core.dispatch(port, value, now)
        assert d == Send(port, d.seq, value, "dispatch")  # never rerouted
        size = items if port == 0 else 1
        due.append((now + size * services.pop(), port, d.seq))

    for port in range(n):
        dispatch(port)
    while due:
        due.sort()
        now, worker, seq = due.pop(0)
        for w in range(n):
            core.beat(w, now)
        assert core.tick(now) == []
        assert core.result(worker, seq, now) == worker
        assert core.tick(now) == []
        if len(services) > n:
            dispatch(worker)
    touched = [r for r in core.report.records if r.category != "health"]
    assert touched == []
    assert not core.quarantined and not core.migrated and not core.suspects
