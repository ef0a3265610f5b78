"""Integration: the four overload policies on the threads backend, the
watchdog's in-flight deadline detection, trace instants, and the
simulator's deterministic realtime projection."""

import pytest

from repro.backends import BackendError, get_backend
from repro.conformance.invariants import (
    check_deadline_accounting,
    check_frame_conservation,
)
from repro.machine import FAST_TEST
from repro.realtime import LatencyBudget
from repro.realtime.soak import frame_value, make_soak


def run_soak_program(backend, budget, *, frames=12, pieces=4,
                     work_us=300.0, record_trace=False):
    prog, table, mapping = make_soak(
        nproc=3, frames=frames, pieces=pieces, work_us=work_us,
    )
    return get_backend(backend).run(
        mapping, table, program=prog, costs=FAST_TEST, timeout=60.0,
        budget=budget, record_trace=record_trace,
    )


def assert_invariants(report):
    violations = (
        check_frame_conservation(report) + check_deadline_accounting(report)
    )
    assert violations == [], violations


def assert_delivered_values(report, pieces):
    for k, value in report.outputs:
        assert value == frame_value(k, pieces)


class TestPoliciesOnThreads:
    def test_block_delivers_every_frame(self):
        budget = LatencyBudget(deadline_ms=5_000.0, policy="block",
                               max_in_flight=2)
        report = run_soak_program("threads", budget, frames=10)
        rt = report.realtime
        assert rt is not None
        assert rt.ledger.submitted == 10
        assert len(rt.ledger.delivered) == 10
        assert rt.ledger.shed == []
        assert_invariants(report)
        assert_delivered_values(report, 4)

    @pytest.mark.parametrize("policy", ["shed-newest", "shed-oldest"])
    def test_shedding_conserves_frames(self, policy):
        # Free-running grabber vs slow workers: the admission buffer must
        # overflow, and every refused frame must be accounted for.
        budget = LatencyBudget(deadline_ms=5_000.0, policy=policy,
                               max_in_flight=1, queue_depth=1)
        report = run_soak_program(
            "threads", budget, frames=16, work_us=2_000.0,
        )
        rt = report.realtime
        assert rt.ledger.submitted == 16
        assert rt.ledger.shed, "overload never triggered shedding"
        for rec in rt.ledger.shed:
            assert rec.reason
        assert len(rt.by_kind("shed")) == len(rt.ledger.shed)
        assert_invariants(report)
        assert_delivered_values(report, 4)

    def test_shed_oldest_keeps_the_freshest_frames(self):
        budget = LatencyBudget(deadline_ms=5_000.0, policy="shed-oldest",
                               max_in_flight=1, queue_depth=1)
        report = run_soak_program(
            "threads", budget, frames=16, work_us=2_000.0,
        )
        rt = report.realtime
        # The final frame survives under shed-oldest (staleness is what
        # gets dropped); with shed-newest it would be the refused one.
        delivered = [f.frame for f in rt.ledger.delivered]
        assert delivered and delivered[-1] == max(
            f.frame for f in rt.ledger.frames
            if f.status in ("delivered", "failed")
        )

    def test_degrade_mode_enters_under_overload(self):
        budget = LatencyBudget(deadline_ms=5_000.0, policy="degrade",
                               max_in_flight=1, queue_depth=1)
        report = run_soak_program(
            "threads", budget, frames=16, work_us=2_000.0,
        )
        rt = report.realtime
        assert rt.degraded_spells >= 1
        # Degraded-mode skips are shed with the policy's reason so the
        # ledger still balances.
        assert rt.ledger.shed
        assert_invariants(report)
        assert_delivered_values(report, 4)

    def test_watchdog_flags_misses_in_flight(self):
        # 1 ms budget vs ~8 ms of work per frame: every delivered frame
        # is late, and the watchdog (2 ms tick) catches it while the
        # frame is still inside the network.
        budget = LatencyBudget(deadline_ms=1.0, policy="block",
                               max_in_flight=2)
        report = run_soak_program(
            "threads", budget, frames=6, work_us=2_000.0,
        )
        rt = report.realtime
        assert rt.ledger.deadline_misses > 0
        assert rt.deadline_miss_events
        in_flight = [e for e in rt.deadline_miss_events
                     if e.detail != "at delivery"]
        assert in_flight, "no miss was detected while in flight"
        assert_invariants(report)

    def test_trace_carries_rt_instants(self):
        budget = LatencyBudget(deadline_ms=1.0, policy="shed-oldest",
                               max_in_flight=1, queue_depth=1)
        report = run_soak_program(
            "threads", budget, frames=12, work_us=2_000.0,
            record_trace=True,
        )
        names = {i.name for i in report.trace.instants}
        assert any(n.startswith("rt:") for n in names)
        assert "rt:shed" in names or "rt:deadline-miss" in names

    def test_budget_on_one_shot_program_is_rejected(self):
        from repro.core import FunctionTable, ProgramBuilder
        from repro.pnt import expand_program
        from repro.syndex import distribute, ring

        def square(x):
            return x * x

        def add(a, b):
            return a + b

        table = FunctionTable()
        table.register("square", ins=["int"], outs=["int"])(square)
        table.register("add", ins=["int", "int"], outs=["int"],
                       properties=["commutative", "associative"])(add)
        b = ProgramBuilder("one_shot", table)
        (xs,) = b.params("xs")
        prog = b.returns(
            b.df(3, comp="square", acc="add", z=b.const(0), xs=xs)
        )
        mapping = distribute(expand_program(prog, table), ring(4))
        with pytest.raises(BackendError, match="stream"):
            get_backend("threads").run(
                mapping, table, program=prog, costs=FAST_TEST,
                args=([1, 2, 3],), timeout=30.0,
                budget=LatencyBudget(),
            )


class TestSimulatorProjection:
    def test_same_budget_same_ledger(self):
        budget = LatencyBudget(deadline_ms=100.0, policy="block")
        payloads = []
        for _ in range(2):
            report = run_soak_program("simulate", budget, frames=8)
            assert report.realtime is not None
            payloads.append(report.realtime.to_payload())
        assert payloads[0] == payloads[1]

    def test_virtual_deadline_misses_are_flagged(self):
        # FAST_TEST charges ~hundreds of virtual µs per frame; a 50 µs
        # budget must flag every delivered frame, deterministically.
        budget = LatencyBudget(deadline_ms=0.05, policy="block")
        report = run_soak_program("simulate", budget, frames=6)
        rt = report.realtime
        assert len(rt.ledger.delivered) == 6
        assert rt.ledger.deadline_misses == 6
        assert_invariants(report)

    def test_generous_budget_has_no_misses(self):
        budget = LatencyBudget(deadline_ms=10_000.0, policy="block")
        report = run_soak_program("simulate", budget, frames=6)
        rt = report.realtime
        assert rt.ledger.deadline_misses == 0
        assert rt.ledger.conserved()
        assert_invariants(report)
