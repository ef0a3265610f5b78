"""The supervising collector sleeps in the kernel's own timed ALT, and an
injected delay sleeps on the run's stop.

A supervised farm's collector scans only when the policy core has
something due — an answer came, a deadline passed — or a re-send waits
for room; otherwise it waits for a packet, at most one heartbeat
interval.  A worker holding one packet for a second therefore costs a
few dozen scans, not one per polling tick.  And an injected delay is a
wait on the stop, so a run torn down mid-delay does not sit it out.
"""

import threading

import pytest

from repro.backends import BackendError, get_backend
from repro.backends.policy_kernel import PolicyKernel
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.health import HealthPolicy
from repro.machine import FAST_TEST
from repro.realtime.soak import frame_value, make_soak

ITEMS = 8


def delayed_farm(delay_s):
    """One frame of ``ITEMS`` items through a 4-worker df farm, whose
    worker 1 holds its first packet for ``delay_s``."""
    prog, table, mapping = make_soak(
        nproc=4, frames=1, pieces=ITEMS, work_us=0)
    plan = FaultPlan([FaultSpec(kind="delay", process="df0.worker1",
                                occurrence=0, delay_us=delay_s * 1e6)])
    return prog, table, mapping, plan


def test_a_held_packet_costs_a_few_scans(monkeypatch):
    scans = []
    supervise = PolicyKernel._supervise

    def counted(self, hosted, now):
        scans.append(now)
        return supervise(self, hosted, now)

    monkeypatch.setattr(PolicyKernel, "_supervise", counted)
    prog, table, mapping, plan = delayed_farm(1.0)
    report = get_backend("threads").run(
        mapping, table, program=prog, costs=FAST_TEST, timeout=60.0,
        fault_plan=plan)
    assert report.outputs == [(0, frame_value(0, ITEMS))]
    assert [r.kind for r in report.faults.injected] == ["delay"]
    assert not report.faults.redispatches  # held, never convicted
    # Scanned at its deadline: the held packet's worker is flagged stuck.
    assert [(r.target, r.kind)
            for r in report.faults.by_category("limping")] == [
        ("df0.worker1", "stuck")]
    assert len(scans) <= 100


def test_a_run_stopped_mid_delay_does_not_sit_it_out():
    prog, table, mapping, plan = delayed_farm(60.0)
    before = set(threading.enumerate())
    with pytest.raises(BackendError, match="timeout"):
        get_backend("threads").run(
            mapping, table, program=prog, costs=FAST_TEST, timeout=0.5,
            fault_plan=plan,
            # Nothing convicts or hedges the held packet: only the
            # run's deadline ends it.
            fault_policy=FaultPolicy(
                packet_timeout_s=600.0,
                health=HealthPolicy(enabled=False)))
    for thread in set(threading.enumerate()) - before:
        thread.join(5.0)
        assert not thread.is_alive(), thread.name
