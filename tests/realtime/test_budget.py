"""Unit tests for the realtime data model: budgets, the frame ledger,
and the admission/delivery join of :func:`assemble_report`."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.realtime import (
    OVERLOAD_POLICIES,
    FrameLedger,
    FrameRecord,
    LatencyBudget,
    RealtimeReport,
    assemble_report,
)


class TestLatencyBudget:
    def test_defaults_are_valid(self):
        budget = LatencyBudget()
        assert budget.policy == "block"
        assert budget.deadline_us == 40_000.0
        assert budget.admission_depth == budget.max_in_flight

    def test_all_policies_accepted(self):
        for policy in OVERLOAD_POLICIES:
            assert LatencyBudget(policy=policy).policy == policy

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown overload policy"):
            LatencyBudget(policy="panic")

    def test_bad_numbers(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            LatencyBudget(deadline_ms=0.0)
        with pytest.raises(ValueError, match="max_in_flight"):
            LatencyBudget(max_in_flight=0)
        with pytest.raises(ValueError, match="queue_depth"):
            LatencyBudget(queue_depth=-1)
        with pytest.raises(ValueError, match="degrade_ratio"):
            LatencyBudget(degrade_ratio=1)

    def test_unit_conversions(self):
        budget = LatencyBudget(deadline_ms=25.0, frame_period_ms=40.0)
        assert budget.deadline_us == 25_000.0
        assert budget.frame_period_s == 0.04

    def test_explicit_queue_depth_wins(self):
        budget = LatencyBudget(max_in_flight=4, queue_depth=7)
        assert budget.admission_depth == 7

    def test_round_trip(self):
        budget = LatencyBudget(
            deadline_ms=33.0, policy="shed-oldest", max_in_flight=2,
            queue_depth=5, frame_period_ms=40.0, degrade_ratio=3,
        )
        assert LatencyBudget.from_dict(budget.to_dict()) == budget

    @given(st.builds(
        LatencyBudget,
        deadline_ms=st.floats(0.001, 1e6),
        policy=st.sampled_from(OVERLOAD_POLICIES),
        max_in_flight=st.integers(1, 64),
        queue_depth=st.integers(0, 64),
        frame_period_ms=st.floats(0.0, 1e4),
        degrade_ratio=st.integers(2, 16),
    ))
    def test_every_budget_round_trips_equal(self, budget):
        # What crosses the serve / tcp wire is to_dict(): a field it
        # leaves out silently reverts to its default on the other side.
        wire = budget.to_dict()
        assert set(wire) == {f.name for f in dataclasses.fields(budget)}
        assert LatencyBudget.from_dict(wire) == budget


def frame(i, admitted, **kw):
    return FrameRecord(frame=i, admitted_us=admitted, **kw)


class TestFrameLedger:
    def test_conservation_identity(self):
        ledger = FrameLedger([
            frame(0, 0.0, status="delivered", delivered_us=10.0),
            frame(1, 1.0, status="shed", reason="shed-oldest"),
            frame(2, 2.0, status="failed", reason="aborted"),
        ])
        assert ledger.conserved()
        assert ledger.unaccounted() == 0
        ledger.frames.append(frame(3, 3.0))  # still in flight
        assert not ledger.conserved()
        assert ledger.unaccounted() == 1

    def test_latency_is_admission_to_delivery(self):
        rec = frame(0, 100.0, status="delivered", released_us=150.0,
                    delivered_us=400.0)
        assert rec.latency_us == 300.0
        assert frame(1, 0.0, status="shed").latency_us is None

    def test_percentiles_nearest_rank(self):
        ledger = FrameLedger([
            frame(i, 0.0, status="delivered", delivered_us=float(i + 1))
            for i in range(100)
        ])
        assert ledger.p50_us == 50.0
        assert ledger.p99_us == 99.0
        assert ledger.percentile_us(100.0) == 100.0

    def test_percentiles_of_empty_ledger(self):
        assert FrameLedger().p99_us == 0.0

    def test_payload_round_trip(self):
        ledger = FrameLedger([
            frame(0, 0.0, status="delivered", released_us=1.0,
                  delivered_us=9.0, deadline_missed=True),
            frame(1, 2.0, status="shed", reason="shed-newest"),
        ])
        again = FrameLedger.from_payload(ledger.to_payload())
        assert again.frames == ledger.frames
        assert again.deadline_misses == 1


class TestRealtimeReport:
    def test_event_views(self):
        report = RealtimeReport(budget=LatencyBudget())
        report.add_event("deadline-miss", 3, 50.0)
        report.add_event("degraded-enter", None, 60.0)
        report.add_event("degraded-exit", None, 90.0)
        assert [e.frame for e in report.deadline_miss_events] == [3]
        assert report.degraded_spells == 1

    def test_summary_reports_unaccounted_frames(self):
        report = RealtimeReport(budget=LatencyBudget())
        report.ledger.frames.append(frame(0, 0.0))  # in flight forever
        assert "UNACCOUNTED: 1 frame(s)" in report.summary()

    def test_payload_round_trip(self):
        report = RealtimeReport(budget=LatencyBudget(policy="degrade"))
        report.ledger.frames.append(
            frame(0, 0.0, status="delivered", delivered_us=5.0)
        )
        report.add_event("shed", 1, 2.0, detail="shed-oldest")
        again = RealtimeReport.from_payload(report.to_payload())
        assert again.budget == report.budget
        assert again.ledger.frames == report.ledger.frames
        assert again.events == report.events

    def test_annotate_trace_emits_rt_instants(self):
        from repro.machine.trace import Trace

        report = RealtimeReport(budget=LatencyBudget())
        report.add_event("deadline-miss", 2, 11.0)
        report.add_event("degraded-enter", None, 12.0, detail="backlog")
        trace = Trace()
        report.annotate_trace(trace)
        names = [i.name for i in trace.instants]
        assert names == ["rt:deadline-miss", "rt:degraded-enter"]
        assert trace.instants[0].detail == "frame 2"


class TestAssembleReport:
    BUDGET = LatencyBudget(deadline_ms=1.0)  # 1000 µs

    def admission(self, *frames, events=()):
        return {"frames": [f.to_dict() for f in frames],
                "events": list(events)}

    def test_fifo_pairing(self):
        report = assemble_report(
            self.BUDGET,
            self.admission(
                frame(0, 0.0, released_us=1.0),
                frame(1, 10.0, status="shed", reason="shed-oldest"),
                frame(2, 20.0, released_us=21.0),
            ),
            {"stamps": [500.0, 700.0], "events": []},
        )
        ledger = report.ledger
        assert [f.status for f in ledger.frames] == [
            "delivered", "shed", "delivered",
        ]
        # j-th stamp pairs with the j-th *released* frame: the shed frame
        # never entered the network and consumes no stamp.
        assert ledger.frames[0].delivered_us == 500.0
        assert ledger.frames[2].delivered_us == 700.0
        assert ledger.conserved()

    def test_released_but_undelivered_frames_fail(self):
        report = assemble_report(
            self.BUDGET,
            self.admission(
                frame(0, 0.0, released_us=1.0),
                frame(1, 2.0, released_us=3.0),
            ),
            {"stamps": [400.0], "events": []},
        )
        assert report.ledger.frames[1].status == "failed"
        assert report.ledger.frames[1].reason == "undelivered at teardown"
        assert report.ledger.conserved()

    def test_unreleased_in_flight_frames_fail(self):
        report = assemble_report(
            self.BUDGET,
            self.admission(frame(0, 0.0)),  # grabbed, never released
            {"stamps": [], "events": []},
        )
        assert report.ledger.frames[0].status == "failed"
        assert report.ledger.frames[0].reason == "aborted before release"

    def test_late_delivery_gets_backstop_miss_event(self):
        # Watchdog missed it (crossed the deadline between ticks): the
        # join must still flag the frame AND emit the event so the
        # deadline-accounting invariant holds.
        report = assemble_report(
            self.BUDGET,
            self.admission(frame(0, 0.0, released_us=1.0)),
            {"stamps": [5_000.0], "events": []},
        )
        rec = report.ledger.frames[0]
        assert rec.deadline_missed
        (event,) = report.deadline_miss_events
        assert event.frame == 0
        assert event.detail == "at delivery"

    def test_watchdog_event_suppresses_backstop(self):
        report = assemble_report(
            self.BUDGET,
            self.admission(
                frame(0, 0.0, released_us=1.0),
                events=[{"kind": "deadline-miss", "frame": 0,
                         "time_us": 1_000.0, "detail": "in flight"}],
            ),
            {"stamps": [5_000.0], "events": []},
        )
        (event,) = report.deadline_miss_events  # no duplicate
        assert event.detail == "in flight"

    def test_events_merge_sorted_from_both_sides(self):
        report = assemble_report(
            self.BUDGET,
            self.admission(
                frame(0, 0.0, status="shed", reason="shed-newest"),
                events=[{"kind": "shed", "frame": 0, "time_us": 30.0}],
            ),
            {"stamps": [],
             "events": [{"kind": "degraded-enter", "time_us": 10.0,
                         "frame": None}]},
        )
        assert [e.time_us for e in report.events] == [10.0, 30.0]

    def test_no_admission_side_yields_empty_report(self):
        report = assemble_report(self.BUDGET, None, None)
        assert not report
        assert report.ledger.conserved()
