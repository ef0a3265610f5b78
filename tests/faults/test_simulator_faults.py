"""Fault injection on the discrete-event simulator.

The simulator makes the planned fault happen and drives the kernels' own
policy core (:class:`repro.faults.farm.FarmSupervisor`) in *virtual*
seconds: detection fires when the same ``FaultPolicy`` deadlines expire
on the simulated clock, re-dispatch shows up as extra makespan, and the
recovered outputs stay bit-identical to the fault-free sequential
emulation.
"""

import pytest

from repro.backends import get_backend
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.demo import RECIPES, make_demo
from repro.faults.topology import FaultTopology
from repro.health import HealthPolicy
from repro.machine import FAST_TEST


def run_simulated(skeleton, plan=None, policy=None, record_trace=False):
    prog, table, args, mapping = make_demo(skeleton)
    return get_backend("simulate").run(
        mapping, table, program=prog, costs=FAST_TEST, args=args,
        fault_plan=plan, fault_policy=policy, record_trace=record_trace,
    )


def reference(skeleton):
    prog, table, args = RECIPES[skeleton]()
    return get_backend("emulate").run(
        None, table, program=prog, costs=FAST_TEST, args=args,
    )


class TestCrashRecovery:
    @pytest.mark.parametrize("skeleton", sorted(RECIPES))
    def test_outputs_survive_one_worker_crash(self, skeleton):
        plan = FaultPlan([FaultSpec(
            kind="crash", process=f"{skeleton}0.worker1", occurrence=0,
        )])
        report = run_simulated(skeleton, plan)
        assert report.one_shot_results == reference(skeleton).one_shot_results
        faults = report.faults
        assert len(faults.injected) == 1
        assert len(faults.detected) == 1
        assert faults.redispatches >= 1
        assert f"{skeleton}0.worker1" in faults.quarantined[0]

    def test_detection_latency_is_virtual(self):
        # Timeouts on the scale of the cost model (a FAST_TEST packet is
        # ~50 us), in virtual seconds; no hedge, so the packet waits for
        # the verdict.  A crashed worker's last beat is its death, so it
        # is convicted once its packet is overdue *and* the beat stale.
        policy = FaultPolicy(
            packet_timeout_s=0.002, heartbeat_timeout_s=0.001,
            health=HealthPolicy(hedge_enabled=False),
        )
        plan = FaultPlan([FaultSpec(
            kind="crash", process="df0.worker1", occurrence=0,
        )])
        report = run_simulated("df", plan, policy)
        faults = report.faults
        (injected,), (detected,) = faults.injected, faults.detected
        assert detected.kind == "crash"
        # The packet was sent at t~0 and swallowed 20 us later: the
        # verdict falls at least the deadline after the send, and in the
        # same order of magnitude.
        assert injected.time_us < 100.0
        assert 2000.0 <= detected.time_us < 20000.0
        assert report.makespan > 2000.0
        (latency,) = faults.recovery_latencies()
        assert 0.0 < latency < 2000.0  # re-dispatch -> answer: one packet

    def test_processor_keyed_crash(self):
        _prog, _table, _args, mapping = make_demo("df")
        victim = mapping.processor_of("df0.worker1")
        plan = FaultPlan([FaultSpec(
            kind="crash", processor=victim, occurrence=0,
        )])
        report = run_simulated("df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        assert len(report.faults.injected) == 1

    def test_stall_is_detected_and_quarantined(self):
        plan = FaultPlan([FaultSpec(
            kind="stall", process="df0.worker2", occurrence=0,
        )])
        report = run_simulated("df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        assert report.faults.quarantined == ["df0.worker2@p3"]


class TestDelay:
    def test_delay_stretches_makespan_not_results(self):
        clean = run_simulated("df")
        plan = FaultPlan([FaultSpec(
            kind="delay", process="df0.worker0", occurrence=0,
            delay_us=50_000.0,
        )])
        slowed = run_simulated("df", plan)
        assert slowed.one_shot_results == clean.one_shot_results
        assert slowed.makespan > clean.makespan + 40_000.0
        faults = slowed.faults
        assert len(faults.injected) == 1
        # A delay is absorbed, not recovered from.
        assert faults.redispatches == 0
        assert faults.quarantined == []


class TestDrop:
    def test_dropped_dispatch_is_resent(self):
        prog, table, args, mapping = make_demo("df")
        topo = FaultTopology.from_mapping(mapping)
        edge = topo.farms[0].workers[1].dispatch_edge
        plan = FaultPlan([FaultSpec(kind="drop", edge=edge, occurrence=0)])
        report = get_backend("simulate").run(
            mapping, table, program=prog, costs=FAST_TEST, args=args,
            fault_plan=plan,
        )
        assert report.one_shot_results == reference("df").one_shot_results
        faults = report.faults
        assert len(faults.injected) == 1
        assert faults.redispatches == 1
        # Supervision sees silence, not its cause: as on the real
        # kernels the addressee of the lost packet is retired on a
        # *stall* verdict (probation would re-admit it in a longer run).
        assert [r.kind for r in faults.detected] == ["stall"]


class TestGrayFailureKinds:
    def test_limplock_stretches_service_not_results(self):
        clean = run_simulated("df")
        plan = FaultPlan([FaultSpec(
            kind="limplock", process="df0.worker1", occurrence=0,
            factor=5.0,
        )])
        # Ten packets over three workers: the limping one completes too
        # few for the default three-sample guard to trust its score.
        limped = run_simulated("df", plan, FaultPolicy(
            health=HealthPolicy(min_samples=2)))
        assert limped.one_shot_results == clean.one_shot_results
        # The latch persists: every firing after the occurrence is 5x,
        # so the virtual makespan stretches well past one delay's worth.
        assert limped.makespan > clean.makespan * 1.5
        faults = limped.faults
        assert len(faults.injected) == 1
        assert "slowdown latched" in faults.injected[0].note
        # Limping is a third state: detected and demoted, never
        # quarantined (the worker is slow, not dead).
        assert any("df0.worker1" in tag for tag in faults.limping)
        assert faults.quarantined == []

    def test_partial_partition_drops_a_window(self):
        _prog, _table, _args, mapping = make_demo("df")
        topo = FaultTopology.from_mapping(mapping)
        edge = topo.farms[0].workers[1].dispatch_edge
        plan = FaultPlan([FaultSpec(
            kind="partial-partition", edge=edge, occurrence=0, count=2,
        )])
        report = run_simulated("df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        faults = report.faults
        assert len(faults.injected) >= 1
        assert faults.injected[0].kind == "partial-partition"
        assert faults.redispatches >= 1
        # One direction of a link stalled: to the supervisor that is a
        # silent worker, never a dead one.
        assert {r.kind for r in faults.detected} == {"stall"}

    def test_credit_starvation_quarantines_the_consumer(self):
        plan = FaultPlan([FaultSpec(
            kind="credit-starvation", process="df0.worker2", occurrence=0,
        )])
        report = run_simulated("df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        faults = report.faults
        assert len(faults.injected) == 1
        assert faults.redispatches >= 1
        # A consumer that stops draining is indistinguishable from a
        # dead one to the rest of the farm: quarantine is correct.
        assert any("df0.worker2" in tag for tag in faults.quarantined)


class TestReporting:
    def test_trace_instants(self):
        plan = FaultPlan([FaultSpec(
            kind="crash", process="df0.worker1", occurrence=0,
        )])
        report = run_simulated("df", plan, record_trace=True)
        names = {i.name for i in report.trace.instants}
        assert "fault:injected" in names
        assert "fault:detected" in names
        assert "fault:redispatch" in names
        json_doc = report.trace.to_chrome_json()
        assert '"ph": "i"' in json_doc

    def test_summary_mentions_faults(self):
        plan = FaultPlan([FaultSpec(
            kind="crash", process="df0.worker1", occurrence=0,
        )])
        report = run_simulated("df", plan)
        assert "injected" in report.summary()

    def test_no_plan_no_fault_report(self):
        report = run_simulated("df")
        assert report.faults is None or not report.faults

    def test_unmatched_fault_never_fires(self):
        plan = FaultPlan([FaultSpec(
            kind="crash", process="no.such.worker", occurrence=0,
        )])
        report = run_simulated("df", plan)
        assert report.one_shot_results == reference("df").one_shot_results
        assert report.faults.injected == []
