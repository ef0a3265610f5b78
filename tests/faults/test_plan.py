"""Unit tests for fault plans: validation, serialisation, matching."""

import time

import pytest

from repro.backends import get_backend
from repro.faults import FaultPlan, FaultSpec, PlanError, PlanMatcher
from repro.faults.demo import make_demo
from repro.faults.inject import check_plan
from repro.faults.topology import FaultTopology
from repro.machine import FAST_TEST
from repro.realtime.soak import make_soak


class TestFaultSpecValidation:
    def test_minimal_specs(self):
        FaultSpec(kind="crash", process="df0.worker1")
        FaultSpec(kind="stall", processor="P2")
        FaultSpec(kind="delay", process="df0.worker0", delay_us=100.0)
        FaultSpec(kind="drop", edge="e7", occurrence=3)

    def test_unknown_kind(self):
        with pytest.raises(PlanError, match="unknown fault kind"):
            FaultSpec(kind="explode", process="x")

    def test_no_target(self):
        with pytest.raises(PlanError, match="exactly one"):
            FaultSpec(kind="crash")

    def test_two_targets(self):
        with pytest.raises(PlanError, match="exactly one"):
            FaultSpec(kind="crash", process="x", processor="P1")

    def test_drop_needs_an_edge(self):
        with pytest.raises(PlanError, match="target an edge"):
            FaultSpec(kind="drop", process="df0.worker1")

    def test_compute_faults_reject_edges(self):
        with pytest.raises(PlanError, match="process/processor"):
            FaultSpec(kind="crash", edge="e3")

    def test_negative_occurrence(self):
        with pytest.raises(PlanError, match=">= 0"):
            FaultSpec(kind="crash", process="x", occurrence=-1)

    def test_target_property(self):
        assert FaultSpec(kind="crash", process="w").target == "w"
        assert FaultSpec(kind="crash", processor="P1").target == "P1"
        assert FaultSpec(kind="drop", edge="e0").target == "e0"


class TestSerialisation:
    def test_round_trip(self):
        plan = FaultPlan(
            events=[
                FaultSpec(kind="crash", process="df0.worker1", occurrence=2),
                FaultSpec(kind="delay", processor="P3", delay_us=750.0),
                FaultSpec(kind="drop", edge="e4"),
            ],
            seed=17,
        )
        again = FaultPlan.loads(plan.dumps())
        assert again.events == plan.events
        assert again.seed == 17

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="stall", process="w")])
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)).events == plan.events

    def test_bool_and_len(self):
        assert not FaultPlan()
        plan = FaultPlan([FaultSpec(kind="crash", process="w")])
        assert plan
        assert len(plan) == 1

    def test_rejects_bad_json(self):
        with pytest.raises(PlanError, match="not valid JSON"):
            FaultPlan.loads("{nope")

    def test_rejects_wrong_version(self):
        with pytest.raises(PlanError, match="version"):
            FaultPlan.from_dict({"version": 9, "events": []})

    def test_rejects_non_list_events(self):
        with pytest.raises(PlanError, match="must be a list"):
            FaultPlan.from_dict({"events": "crash everything"})

    def test_rejects_unknown_event_field(self):
        with pytest.raises(PlanError, match="unknown fault-event field"):
            FaultPlan.from_dict(
                {"events": [{"kind": "crash", "process": "w", "boom": 1}]}
            )

    def test_rejects_missing_kind(self):
        with pytest.raises(PlanError, match="missing 'kind'"):
            FaultPlan.from_dict({"events": [{"process": "w"}]})


class TestPlanMatcher:
    def test_occurrence_is_zero_based(self):
        plan = FaultPlan([FaultSpec(kind="crash", process="w", occurrence=0)])
        matcher = PlanMatcher(plan)
        assert matcher.fire(process="w") == plan.events
        assert matcher.fire(process="w") == []  # fires exactly once

    def test_nth_occurrence(self):
        plan = FaultPlan([FaultSpec(kind="crash", process="w", occurrence=2)])
        matcher = PlanMatcher(plan)
        assert matcher.fire(process="w") == []
        assert matcher.fire(process="w") == []
        assert matcher.fire(process="w") == plan.events

    def test_non_matching_events_do_not_count(self):
        plan = FaultPlan([FaultSpec(kind="crash", process="w", occurrence=1)])
        matcher = PlanMatcher(plan)
        assert matcher.fire(process="other") == []
        assert matcher.fire(process="w") == []  # occurrence 0 of "w"
        assert matcher.fire(process="w") == plan.events

    def test_processor_and_edge_keys(self):
        plan = FaultPlan([
            FaultSpec(kind="stall", processor="P1"),
            FaultSpec(kind="drop", edge="e3"),
        ])
        matcher = PlanMatcher(plan)
        assert matcher.fire(process="w", processor="P1") == [plan.events[0]]
        assert matcher.fire(edge="e3", kinds=("drop",)) == [plan.events[1]]

    def test_kinds_filter(self):
        plan = FaultPlan([FaultSpec(kind="drop", edge="e0")])
        matcher = PlanMatcher(plan)
        # A compute site asking for compute kinds must not consume drops.
        assert matcher.fire(edge="e0", kinds=("crash", "stall")) == []
        assert matcher.fire(edge="e0", kinds=("drop",)) == plan.events

    def test_pending(self):
        plan = FaultPlan([
            FaultSpec(kind="crash", process="w"),
            FaultSpec(kind="crash", process="ghost"),
        ])
        matcher = PlanMatcher(plan)
        matcher.fire(process="w")
        assert matcher.pending() == [plan.events[1]]


class TestOverloadKinds:
    def test_validation(self):
        FaultSpec(kind="slow-worker", process="w", delay_us=500.0, count=3)
        FaultSpec(kind="burst", process="stream.input", count=4)
        FaultSpec(kind="input-surge", process="stream.input", factor=3.0)
        with pytest.raises(PlanError, match="count"):
            FaultSpec(kind="burst", process="w", count=0)
        with pytest.raises(PlanError, match="factor"):
            FaultSpec(kind="input-surge", process="w", factor=0.0)

    def test_round_trip_keeps_window_fields(self):
        plan = FaultPlan([
            FaultSpec(kind="slow-worker", process="w", delay_us=2_000.0,
                      count=4),
            FaultSpec(kind="input-surge", process="inp", occurrence=5,
                      count=3, factor=2.5),
            FaultSpec(kind="burst", process="inp", count=2),
        ])
        again = FaultPlan.loads(plan.dumps())
        assert again.events == plan.events

    def test_window_fires_count_consecutive_occurrences(self):
        plan = FaultPlan([FaultSpec(
            kind="burst", process="inp", occurrence=2, count=3,
        )])
        matcher = PlanMatcher(plan)
        fired = [bool(matcher.fire(process="inp")) for _ in range(8)]
        assert fired == [False, False, True, True, True,
                         False, False, False]

    def test_window_spec_is_pending_until_first_fire(self):
        plan = FaultPlan([FaultSpec(
            kind="slow-worker", process="w", delay_us=1.0, occurrence=1,
            count=2,
        )])
        matcher = PlanMatcher(plan)
        matcher.fire(process="w")
        assert matcher.pending() == plan.events
        matcher.fire(process="w")
        assert matcher.pending() == []

    def test_random_draws_windows_for_overload_kinds(self):
        plan = FaultPlan.random(
            5, workers=["w0", "w1"], kinds=("slow-worker", "burst"),
            n_events=6, max_count=5, delay_us=750.0,
        )
        assert len(plan) == 6
        for event in plan.events:
            assert event.kind in ("slow-worker", "burst")
            assert 1 <= event.count <= 5
            if event.kind == "slow-worker":
                assert event.delay_us == 750.0


class TestGrayFailureKinds:
    def test_validation(self):
        FaultSpec(kind="limplock", process="w", factor=5.0)
        FaultSpec(kind="partial-partition", edge="e2", count=3)
        FaultSpec(kind="credit-starvation", process="w", occurrence=4)

    def test_limplock_needs_a_real_slowdown(self):
        # factor <= 1 is "not actually limping": reject it loudly rather
        # than silently running a no-op chaos scenario.
        with pytest.raises(PlanError, match="slowdown factor > 1"):
            FaultSpec(kind="limplock", process="w", factor=1.0)
        with pytest.raises(PlanError, match="factor must be positive"):
            FaultSpec(kind="limplock", process="w", factor=-2.0)

    def test_partial_partition_targets_an_edge(self):
        with pytest.raises(PlanError, match="target an edge"):
            FaultSpec(kind="partial-partition", process="w")

    def test_credit_starvation_targets_a_process(self):
        with pytest.raises(PlanError, match="process/processor"):
            FaultSpec(kind="credit-starvation", edge="e1")

    def test_round_trip_keeps_gray_fields(self):
        plan = FaultPlan([
            FaultSpec(kind="limplock", process="w", factor=7.5),
            FaultSpec(kind="partial-partition", edge="e3", occurrence=2,
                      count=4),
            FaultSpec(kind="credit-starvation", process="w2"),
        ])
        again = FaultPlan.loads(plan.dumps())
        assert again.events == plan.events
        assert again.events[0].factor == 7.5
        assert again.events[1].count == 4


class TestValidationErrorPaths:
    def test_negative_delay_is_rejected(self):
        with pytest.raises(PlanError, match="delay_us must be >= 0"):
            FaultSpec(kind="delay", process="w", delay_us=-5.0)

    def test_delay_kinds_need_a_positive_delay(self):
        with pytest.raises(PlanError, match="positive delay_us"):
            FaultSpec(kind="delay", process="w")
        with pytest.raises(PlanError, match="positive delay_us"):
            FaultSpec(kind="slow-worker", process="w", delay_us=0.0)

    def test_delay_is_meaningless_elsewhere(self):
        with pytest.raises(PlanError, match="meaningless"):
            FaultSpec(kind="crash", process="w", delay_us=100.0)
        with pytest.raises(PlanError, match="meaningless"):
            FaultSpec(kind="limplock", process="w", factor=2.0,
                      delay_us=100.0)

    def test_non_integer_counters_are_rejected(self):
        with pytest.raises(PlanError, match="occurrence must be an integer"):
            FaultSpec(kind="crash", process="w", occurrence="3")
        with pytest.raises(PlanError, match="count must be an integer"):
            FaultSpec(kind="crash", process="w", count=True)

    def test_non_numeric_factor_is_rejected(self):
        with pytest.raises(PlanError, match="factor must be a number"):
            FaultSpec(kind="limplock", process="w", factor="fast")

    def test_unknown_field_suggests_the_close_match(self):
        with pytest.raises(PlanError, match="did you mean 'process'"):
            FaultPlan.from_dict(
                {"events": [{"kind": "crash", "proces": "w"}]}
            )

    def test_unknown_field_without_a_close_match(self):
        with pytest.raises(PlanError, match="known fields"):
            FaultPlan.from_dict(
                {"events": [{"kind": "crash", "process": "w",
                             "zzqqy": 1}]}
            )

    def test_random_limplock_draws_real_factors(self):
        plan = FaultPlan.random(
            3, workers=["w0", "w1"], kinds=("limplock",), n_events=5,
        )
        for event in plan.events:
            assert event.kind == "limplock"
            assert event.factor >= 1.5

    def test_random_edge_kinds_need_edges(self):
        with pytest.raises(PlanError, match="pass edges"):
            FaultPlan.random(
                0, workers=["w0"], kinds=("partial-partition",),
            )
        plan = FaultPlan.random(
            0, workers=["w0"], kinds=("partial-partition",),
            edges=["e1", "e2"], n_events=4, max_count=3,
        )
        for event in plan.events:
            assert event.edge in ("e1", "e2")
            assert 1 <= event.count <= 3


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        workers = ["df0.worker0", "df0.worker1", "df0.worker2"]
        a = FaultPlan.random(42, workers=workers, kinds=("crash", "stall"))
        b = FaultPlan.random(42, workers=workers, kinds=("crash", "stall"))
        assert a.events == b.events
        assert a.seed == 42

    def test_different_seeds_eventually_differ(self):
        workers = ["w0", "w1", "w2", "w3"]
        plans = {
            tuple(FaultPlan.random(seed, workers=workers).events)
            for seed in range(8)
        }
        assert len(plans) > 1

    def test_targets_stay_in_worker_set(self):
        workers = ["w0", "w1"]
        plan = FaultPlan.random(
            7, workers=workers, kinds=("delay",), n_events=5,
        )
        assert len(plan) == 5
        for event in plan.events:
            assert event.process in workers
            assert event.kind == "delay"
            assert event.delay_us > 0


class TestUnfireableTargets:
    """A spec whose target gives it no place to fire is refused before
    the run starts, naming the spec and the closest valid target."""

    @staticmethod
    def check(mapping, **spec):
        check_plan(FaultPlan([FaultSpec(**spec)]),
                   FaultTopology.from_mapping(mapping))

    @pytest.mark.parametrize("backend", ["simulate", "threads", "processes"])
    def test_a_crash_on_the_master_is_refused_at_once(self, backend):
        prog, table, args, mapping = make_demo("df")
        plan = FaultPlan([FaultSpec(kind="crash", process="df0.master")])
        began = time.monotonic()
        with pytest.raises(PlanError, match="'df0.master' is not a farm "
                                            "worker"):
            get_backend(backend).run(
                mapping, table, program=prog, costs=FAST_TEST, args=args,
                timeout=10.0, fault_plan=plan)
        assert time.monotonic() - began < 1.0

    def test_compute_and_starvation_need_a_worker(self):
        mapping = make_demo("df")[3]
        for kind in ("stall", "credit-starvation"):
            with pytest.raises(PlanError, match="did you mean 'df0.worker1'"):
                self.check(mapping, kind=kind, process="df0.wrker1")
            with pytest.raises(PlanError, match="processor hosting a farm"):
                self.check(mapping, kind=kind, processor="p0")
        self.check(mapping, kind="stall", processor="p2")

    def test_edges_must_exist(self):
        mapping = make_demo("df")[3]
        with pytest.raises(PlanError, match="'e99' is not an edge"):
            self.check(mapping, kind="drop", edge="e99")
        self.check(mapping, kind="partial-partition", edge="e14")

    def test_overload_needs_the_stream_input(self):
        _prog, _table, mapping = make_soak()
        source = "stream.input"
        self.check(mapping, kind="burst", process=source)
        self.check(mapping, kind="input-surge",
                   processor=mapping.processor_of(source))
        with pytest.raises(PlanError, match="not the stream input"):
            self.check(mapping, kind="burst", process="df0.worker0")
        with pytest.raises(PlanError, match="not the stream input"):
            self.check(make_demo("df")[3], kind="burst", process="in.xs")
