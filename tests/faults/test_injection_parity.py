"""One plan, one story: the simulator and the threads kernel inject alike.

A fault plan is meant to reproduce on every execution layer, so the
``injected`` records a plan leaves — kind, target, processor and note —
must be the same whether the demo farms run on ``simulate`` or on
``threads``.  Each case keys one fault to worker 1 of the df / scm / tf
demo (by process and by processor), or to the edge that dispatches to
it.  Only the injected records are compared: what supervision does
about the fault is timed by each backend's own clock.
"""

import pytest

from repro.backends import get_backend
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.faults.demo import make_demo
from repro.faults.topology import FaultTopology
from repro.machine import FAST_TEST

#: Detection at each backend's scale: FAST_TEST packets take ~50
#: virtual µs on the simulator, real ones a few ms under load.
POLICIES = {
    "simulate": FaultPolicy(packet_timeout_s=0.003,
                            heartbeat_timeout_s=0.0015),
    "threads": FaultPolicy(packet_timeout_s=0.1, heartbeat_timeout_s=0.05),
}

COMPUTE = {
    "crash": {},
    "stall": {},
    "delay": {"delay_us": 2_000.0},
    "slow-worker": {"delay_us": 2_000.0},
    "limplock": {"factor": 4.0},
    "credit-starvation": {},
}

SKELETONS = ("df", "scm", "tf")


def _cases():
    for sk in SKELETONS:
        for kind, extra in COMPUTE.items():
            yield pytest.param(sk, dict(kind=kind, process=f"{sk}0.worker1",
                                        **extra), id=f"{sk}-{kind}-process")
            yield pytest.param(sk, dict(kind=kind, processor="p2", **extra),
                               id=f"{sk}-{kind}-processor")
        for kind in ("drop", "partial-partition"):
            yield pytest.param(sk, dict(kind=kind, edge="dispatch1"),
                               id=f"{sk}-{kind}-edge")
    yield pytest.param("scm", dict(kind="credit-starvation",
                                   process="scm0.worker1", occurrence=1),
                       id="scm-credit-starvation-process-occurrence1")


def injected(backend, skeleton, event):
    prog, table, args, mapping = make_demo(skeleton)
    event = dict(event)
    if event.get("edge") == "dispatch1":
        (farm,) = FaultTopology.from_mapping(mapping).farms
        event["edge"] = farm.workers[1].dispatch_edge
    plan = FaultPlan([FaultSpec(**event)])
    report = get_backend(backend).run(
        mapping, table, program=prog, costs=FAST_TEST, args=args,
        timeout=30.0, fault_plan=plan, fault_policy=POLICIES[backend],
    )
    return sorted((r.kind, r.target, r.processor, r.note)
                  for r in report.faults.injected)


@pytest.mark.parametrize("skeleton, event", list(_cases()))
def test_simulate_and_threads_inject_alike(skeleton, event):
    assert (injected("simulate", skeleton, event)
            == injected("threads", skeleton, event))
