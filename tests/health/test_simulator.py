"""The limplock chaos proof, in virtual time.

The discrete-event simulator stretches the limping worker's service
time and lets the kernels' own policy core
(:class:`repro.faults.farm.FarmSupervisor`) defend the farm — scoring,
health-demoted dispatch, hedged re-dispatch with first-result-wins — so
the verdict of the real-backend chaos proof is checked here, on the
same code, deterministically: defended per-iteration p99 within 3x the
no-fault baseline, undefended beyond it, outputs bit-identical to the
defense-free run in every arm.
"""

import math

from repro.core import FunctionTable, ProgramBuilder
from repro.core.semantics import EndOfStream
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.health import HealthPolicy
from repro.machine import FAST_TEST
from repro.machine.executive import simulate
from repro.pnt import expand_program
from repro.syndex import distribute, ring

N_FRAMES = 40
DEGREE = 8
PACKETS = 16


def make_stream_farm():
    """An 8-worker df farm fed by a stream: 16 packets x 1000 us/frame."""
    table = FunctionTable()
    counter = {"i": 0}

    @table.register("read", ins=["unit"], outs=["int list"], cost=20)
    def read(_src):
        i = counter["i"]
        counter["i"] += 1
        if i >= N_FRAMES:
            raise EndOfStream
        return list(range(i, i + PACKETS))

    table.register("square", ins=["int"], outs=["int"],
                   cost=1000.0)(lambda x: x * x)
    table.register("add", ins=["int", "int"], outs=["int"], cost=5.0,
                   properties=["commutative", "associative"])(
        lambda a, b: a + b)
    table.register("step", ins=["int", "int"], outs=["int", "int"],
                   cost=5)(lambda s, t: (s + t, t))
    table.register("emit", ins=["int"], cost=5)(lambda y: None)
    b = ProgramBuilder("stream_farm", table)
    state, item = b.params("state", "item")
    total = b.df(DEGREE, comp="square", acc="add", z=b.const(0), xs=item)
    s2, y = b.apply("step", state, total)
    prog = b.stream(s2, y, inp="read", out="emit", init_value=0, source=None)
    mapping = distribute(expand_program(prog, table), ring(DEGREE + 1))
    return mapping, table, counter


LIMP_PLAN = [dict(kind="limplock", process="df0.worker3", occurrence=0,
                  factor=10.0)]

#: The defense on the scale of the cost model, in virtual seconds: a
#: packet is 1 ms, so hedging may engage far below the wall-clock noise
#: floor the default guards against.
DEFENSE = dict(hedge_floor_s=0.0005)

#: Iterations excluded from the percentile: the hedge clock needs its
#: sample floor and the detector ``min_samples`` completions before the
#: defense can engage, so the first frames ride at limped latency by
#: design (the cold-start cost of an adaptive threshold).
WARMUP_ITERATIONS = 8


def p99(report, warmup=WARMUP_ITERATIONS):
    """Nearest-rank p99 of post-warm-up per-iteration latencies."""
    ordered = sorted(r.latency for r in report.iterations[warmup:])
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(0.99 * len(ordered)) - 1))
    return ordered[rank]


def run(counter, mapping, table, **kwargs):
    counter["i"] = 0  # fresh stream per arm
    return simulate(mapping, table, FAST_TEST, **kwargs)


class TestVirtualLimplock:
    def test_defended_holds_p99_in_virtual_time(self):
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])

        baseline = run(counter, mapping, table)
        defended = run(
            counter, mapping, table, fault_plan=plan,
            fault_policy=FaultPolicy(health=HealthPolicy(**DEFENSE)))
        undefended = run(
            counter, mapping, table, fault_plan=plan,
            fault_policy=FaultPolicy(health=HealthPolicy(enabled=False)),
        )

        # Hedging and demotion never change results: every arm delivers
        # the same output stream and final state.
        assert baseline.outputs == defended.outputs == undefended.outputs
        assert (baseline.final_state == defended.final_state
                == undefended.final_state)

        base = p99(baseline)
        held = p99(defended)
        lost = p99(undefended)
        assert held <= 3.0 * base, (held, base)
        assert lost > 3.0 * base, (lost, base)

        faults = defended.faults
        assert faults.hedges > 0
        assert faults.hedge_wins > 0
        assert any("df0.worker3" in tag for tag in faults.limping)
        # The undefended arm still *injects* the limplock, it just does
        # not defend against it.
        assert len(undefended.faults.injected) == 1
        assert undefended.faults.hedges == 0

    def test_virtual_verdict_is_deterministic(self):
        # Same plan, same virtual clock: latencies reproduce exactly,
        # which is what makes the simulator a debugging proxy for the
        # real chaos runs.
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])
        policy = FaultPolicy(health=HealthPolicy(**DEFENSE))
        first = run(counter, mapping, table, fault_plan=plan,
                    fault_policy=policy)
        second = run(counter, mapping, table, fault_plan=plan,
                     fault_policy=policy)
        assert ([r.latency for r in first.iterations]
                == [r.latency for r in second.iterations])
        assert first.makespan == second.makespan
        assert first.faults.hedges == second.faults.hedges > 0

    def test_no_hedge_policy_disables_hedging_only(self):
        mapping, table, counter = make_stream_farm()
        plan = FaultPlan([FaultSpec(**LIMP_PLAN[0])])
        report = run(
            counter, mapping, table, fault_plan=plan,
            fault_policy=FaultPolicy(
                health=HealthPolicy(hedge_enabled=False, **DEFENSE)),
        )
        assert report.faults.hedges == 0
        # Scoring and demotion stay on: the worker is still flagged.
        assert any("df0.worker3" in tag for tag in report.faults.limping)
