"""Chaos tests: real injected failures on the real backends.

The acceptance property: an ``scm``/``df`` farm with one injected
worker crash per run produces the same outputs as the fault-free
sequential emulation, on both the threads and the processes backends,
and the run report records the detection and re-dispatch with a
recovery latency.

Timeouts are shrunk well below the defaults so detection happens in
tens of milliseconds and the whole suite stays fast; the margins are
still generous against CI jitter (a worker only looks dead after both
its packet deadline *and* its heartbeat go stale).
"""

import pytest

from repro.backends import get_backend
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.demo import RECIPES, make_demo, worker_pids
from repro.faults.topology import FaultTopology
from repro.machine import FAST_TEST

#: Fast-detection policy for tests (defaults suit interactive runs).
POLICY = FaultPolicy(
    packet_timeout_s=0.3,
    heartbeat_timeout_s=0.15,
)

REAL_BACKENDS = ["threads", "processes"]


def run_with_faults(backend, skeleton, plan, policy=POLICY, **options):
    prog, table, args, mapping = make_demo(skeleton)
    return get_backend(backend).run(
        mapping, table, program=prog, costs=FAST_TEST, args=args,
        timeout=60.0, fault_plan=plan, fault_policy=policy, **options,
    )


def reference(skeleton):
    prog, table, args = RECIPES[skeleton]()
    return get_backend("emulate").run(
        None, table, program=prog, costs=FAST_TEST, args=args,
    )


def crash_plan(skeleton, worker=1):
    return FaultPlan([FaultSpec(
        kind="crash", process=f"{skeleton}0.worker{worker}", occurrence=0,
    )])


class TestCrashEquivalence:
    """One worker dies mid-run; outputs must match the emulation."""

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    @pytest.mark.parametrize("skeleton", ["df", "scm"])
    def test_farm_survives_worker_crash(self, backend, skeleton):
        plan = crash_plan(skeleton)
        report = run_with_faults(backend, skeleton, plan)
        assert report.one_shot_results == reference(skeleton).one_shot_results

        faults = report.faults
        assert faults is not None
        assert len(faults.injected) == 1
        assert len(faults.detected) >= 1
        assert faults.redispatches >= 1
        latencies = faults.recovery_latencies()
        assert latencies and all(lat > 0 for lat in latencies)
        assert any(
            f"{skeleton}0.worker1" in tag for tag in faults.quarantined
        )

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_tf_survives_worker_crash(self, backend):
        plan = crash_plan("tf")
        report = run_with_faults(backend, "tf", plan)
        assert report.one_shot_results == reference("tf").one_shot_results
        assert report.faults.redispatches >= 1


class TestOtherFaultKinds:
    def test_stall_recovery_on_threads(self):
        plan = FaultPlan([FaultSpec(
            kind="stall", process="df0.worker0", occurrence=0,
        )])
        report = run_with_faults("threads", "df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        faults = report.faults
        assert faults.redispatches >= 1
        assert any("df0.worker0" in tag for tag in faults.quarantined)

    def test_drop_recovery_on_threads(self):
        _prog, _table, _args, mapping = make_demo("df")
        topo = FaultTopology.from_mapping(mapping)
        edge = topo.farms[0].workers[2].dispatch_edge
        plan = FaultPlan([FaultSpec(kind="drop", edge=edge, occurrence=0)])
        report = run_with_faults("threads", "df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        faults = report.faults
        assert len(faults.injected) == 1
        assert faults.redispatches >= 1
        # The worker itself is healthy: a re-send, not a quarantine, is
        # the correct minimal recovery (a slow first attempt may still
        # escalate, so only the no-redispatch case would be a failure).

    def test_delay_is_absorbed_on_threads(self):
        plan = FaultPlan([FaultSpec(
            kind="delay", process="df0.worker1", occurrence=0,
            delay_us=30_000.0,
        )])
        report = run_with_faults("threads", "df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        assert len(report.faults.injected) == 1


class TestDeterministicReplay:
    def test_seeded_plan_replays_on_both_backends(self):
        _prog, _table, _args, mapping = make_demo("df")
        plan = FaultPlan.random(
            3, workers=worker_pids(mapping), kinds=("crash",),
        )
        want = reference("df").one_shot_results
        for backend in REAL_BACKENDS:
            report = run_with_faults(backend, "df", plan)
            assert report.one_shot_results == want
            assert len(report.faults.injected) == 1
            assert report.faults.injected[0].target == plan.events[0].process


class TestReportPlumbing:
    def test_fault_instants_reach_the_trace(self):
        report = run_with_faults(
            "threads", "df", crash_plan("df"), record_trace=True,
        )
        names = {i.name for i in report.trace.instants}
        assert "fault:injected" in names
        assert "fault:redispatch" in names

    def test_no_faults_without_plan(self):
        prog, table, args, mapping = make_demo("df")
        report = get_backend("threads").run(
            mapping, table, program=prog, costs=FAST_TEST, args=args,
            timeout=60.0,
        )
        assert report.one_shot_results == reference("df").one_shot_results
        assert report.faults is None or not report.faults
