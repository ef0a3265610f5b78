"""Heartbeat staleness semantics, across OS-process boundaries.

The board is the supervisor's only liveness signal: a worker whose
latest beat is fresh is *alive* whatever else it fails to do.  These
tests pin the staleness boundaries as the policy core judges them (a
never-started worker is fresh; staleness is a strict inequality) and
prove the cross-process story on both the ``fork`` and ``spawn`` start
methods — a beat written in a child OS process must be visible, and
comparable, in the parent.

The second half drives the full BEAT-fresh/COUNT-flat path on the real
processes backend: a stalled worker keeps heartbeating but completes
nothing, so the supervisor must flag it *limping (stuck)* well before
the slow stall verdict retires it.
"""

import multiprocessing
import time

import pytest

from repro.backends import get_backend
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.demo import RECIPES, make_demo
from repro.faults.supervisor import HealthBoard
from repro.health import HealthPolicy
from repro.machine import FAST_TEST

from tests.faults.test_supervisor_units import make_core, takes_for_dead

START_METHODS = ["fork", "spawn"]


class TestStaleBoundaries:
    def test_never_started_slot_is_fresh(self):
        # A worker nobody has seen beat never ran: it cannot have died,
        # so it is fresh at any horizon.
        assert not takes_for_dead([], now=1e9, timeout=0.001)

    def test_exactly_at_timeout_is_fresh(self):
        # Synthetic timestamps that are exact binary fractions, so the
        # boundary arithmetic has no float rounding in it.
        # Staleness is strict: now - last == timeout is still fresh.
        assert not takes_for_dead([100.0], now=100.25, timeout=0.25)
        assert takes_for_dead([100.0], now=100.3125, timeout=0.25)

    def test_beat_refreshes(self):
        board = HealthBoard.local(2)
        board.beat(1)
        first = board.last(1)
        assert takes_for_dead([first], now=first + 1.0, timeout=0.5)
        board.beat(1)
        again = board.last(1)
        assert not takes_for_dead([first, again], now=again + 0.1,
                                  timeout=0.5)

    def test_slots_are_independent(self):
        core = make_core(packet_timeout_s=1e-9, stall_factor=1e18,
                         heartbeat_timeout_s=0.5,
                         health=HealthPolicy(enabled=False))
        core.beat(0, 100.0)  # worker 1 never started
        for port in (0, 1):
            core.dispatch(port, "held", 100.0)
        core.tick(101.0)
        assert [r.target for r in core.report.detected] == ["df0.worker0"]


def _beat_in_child(slots, slot):
    """Child-process body: one heartbeat into the shared board."""
    HealthBoard(slots).beat(slot)


class TestCrossProcessBoard:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_child_beat_is_visible_in_parent(self, method):
        ctx = multiprocessing.get_context(method)
        slots = ctx.Array("d", 3, lock=False)
        board = HealthBoard(slots)
        before = time.monotonic()
        child = ctx.Process(target=_beat_in_child, args=(slots, 1))
        child.start()
        child.join(30.0)
        assert child.exitcode == 0
        # CLOCK_MONOTONIC is system-wide on Linux: the child's timestamp
        # is comparable in the parent, and recent.
        assert before <= board.last(1) <= time.monotonic()
        assert board.last(0) == 0.0  # untouched slots stay never-started


#: Fast-detection policy: the stuck flag must fire long before the
#: stall verdict (packet_timeout_s x stall_factor) would.  Hedging is
#: off so the speculative duplicate cannot rescue the packet first —
#: this test isolates the BEAT-fresh/COUNT-flat detector.
STUCK_POLICY = FaultPolicy(
    packet_timeout_s=0.3,
    heartbeat_timeout_s=0.15,
    health=HealthPolicy(stuck_after_s=0.06, hedge_enabled=False),
)


class TestBeatsButNeverProgresses:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_stalled_worker_is_flagged_stuck(self, method):
        """BEAT fresh, COUNT flat: stalled, heartbeating, flagged early."""
        prog, table, args, mapping = make_demo("df")
        plan = FaultPlan([FaultSpec(
            kind="stall", process="df0.worker1", occurrence=0,
        )])
        report = get_backend("processes").run(
            mapping, table, program=prog, costs=FAST_TEST, args=args,
            timeout=60.0, fault_plan=plan, fault_policy=STUCK_POLICY,
            start_method=method,
        )
        want = get_backend("emulate").run(
            None, table, program=prog, costs=FAST_TEST,
            args=RECIPES["df"]()[2],
        )
        assert report.one_shot_results == want.one_shot_results
        faults = report.faults
        stuck = [r for r in faults.records
                 if r.category == "limping" and r.kind == "stuck"]
        assert stuck, "a heartbeating stalled worker must be flagged stuck"
        assert stuck[0].target == "df0.worker1"
        # The gray-failure flag is the early warning: it must precede
        # the classic stall detection that finally retires the worker.
        detected = [r for r in faults.detected
                    if r.target == "df0.worker1"]
        assert detected
        assert stuck[0].time_us < min(r.time_us for r in detected)
