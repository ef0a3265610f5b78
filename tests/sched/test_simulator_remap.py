"""Online re-mapping, deterministically in virtual time.

The simulator drives the kernels' own policy core, so the count-based
re-map protocol — confirm a limping verdict over N farm completions,
then exclude the processor from dispatch entirely — is the code the
real backends run, and the chaos proof's re-mapping arm is checked here
in virtual microseconds: the migrated arm beats the
demotion-only arm, holds p99 within 2x the no-fault baseline, keeps
outputs bit-identical, and replays the exact same decision sequence
run after run (the virtual-time parity property of ISSUE 10).
"""

from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.health import HealthPolicy
from repro.sched.remap import RemapPolicy

from tests.health.test_simulator import (
    DEFENSE,
    LIMP_PLAN,
    make_stream_farm,
    p99,
    run,
)


#: Both arms demote with a stride (3) that does not divide the 16-packet
#: frame: with the default 4 the packets the limping worker would keep
#: (``seq % 4 == 0``) never land on its port, demotion alone excludes it
#: as completely as migration does, and there is nothing to compare.
HEALTH = HealthPolicy(limp_weight=1 / 3, **DEFENSE)


def remap_policy():
    return FaultPolicy(health=HEALTH, remap=RemapPolicy())


class TestVirtualRemap:
    def test_remapping_restores_p99_in_virtual_time(self):
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])

        baseline = run(counter, mapping, table)
        demoted = run(
            counter, mapping, table, fault_plan=plan,
            fault_policy=FaultPolicy(health=HEALTH))
        remapped = run(counter, mapping, table, fault_plan=plan,
                       fault_policy=remap_policy())

        # Migration never changes results: bit-identical output stream
        # and final state against the fault-free run.
        assert remapped.outputs == baseline.outputs
        assert remapped.final_state == baseline.final_state

        base = p99(baseline)
        assert p99(remapped) <= 2.0 * base, (p99(remapped), base)
        # Full dispatch exclusion beats the keep_stride trickle that
        # demotion alone still sends to the limping worker.
        assert p99(remapped) < p99(demoted), (p99(remapped), p99(demoted))

        faults = remapped.faults
        assert any("df0.worker3" in tag for tag in faults.remaps)
        assert any(r.category == "remap" for r in faults.records)

    def test_remap_decisions_reproduce_exactly(self):
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])
        first = run(counter, mapping, table, fault_plan=plan,
                    fault_policy=remap_policy())
        second = run(counter, mapping, table, fault_plan=plan,
                     fault_policy=remap_policy())
        assert ([r.latency for r in first.iterations]
                == [r.latency for r in second.iterations])
        assert first.makespan == second.makespan
        key = lambda report: [  # noqa: E731 - local shorthand
            (r.category, r.kind, r.target, r.time_us)
            for r in report.faults.records if r.category == "remap"
        ]
        assert key(first) == key(second)
        assert key(first)  # the decision actually happened

    def test_remap_requires_health_scoring(self):
        # Re-mapping consumes limping verdicts; with the detector off
        # there is nothing to confirm and nobody migrates.
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])
        report = run(
            counter, mapping, table, fault_plan=plan,
            fault_policy=FaultPolicy(
                health=HealthPolicy(enabled=False), remap=RemapPolicy()),
        )
        assert not report.faults.remaps

    def test_disabled_remap_policy_is_inert(self):
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])
        report = run(
            counter, mapping, table, fault_plan=plan,
            fault_policy=FaultPolicy(remap=RemapPolicy(enabled=False)),
        )
        assert not report.faults.remaps
        # The demotion defense still runs underneath.
        assert any("df0.worker3" in tag for tag in report.faults.limping)
