"""The limplock chaos proof, on real backends: safety and decisions.

One of eight farm workers limps — every computation 12x slower, while
its heartbeat stays perfectly fresh — for an entire stream run.  What
tier-1 asserts on the wall clock is what a wall clock can decide:

* **safety** — hedging and demotion never change results: frame
  conservation stays exact (the dedup happens at the envelope layer,
  below the ledger) and every delivered value matches the fault-free
  sequential oracle, duplicates or not, defended or not;
* **decisions** — the limping worker is flagged, and only where the
  defense is on; with demotion off, overdue packets are hedged and
  duplicates win.

The **mitigation** verdict — defended p99 within 3x the no-fault
baseline, undefended beyond it — compares two latency tails, which two
wall-clock runs on a shared host cannot do reliably.  It is asserted
where it is exact: in virtual time (``tests/health/test_simulator.py``,
on the same policy code these backends run) and by the CI ``limplock``
job's ``repro soak`` A/B gates on a runner of its own.
"""

import pytest

from repro.health import HealthPolicy
from repro.net import ClusterHarness
from repro.realtime.soak import limplock_plan, make_soak, run_soak

#: The calibrated scenario: 8 workers, 8 pieces x 5 ms of busy-work per
#: frame, paced well under saturation so delivered latency measures the
#: farm's service time rather than queueing.
SOAK = dict(
    frames=60, nproc=8, pieces=8, work_us=5_000.0,
    deadline_ms=5_000.0, frame_period_ms=60.0, max_in_flight=3,
    chaos=False, timeout=120.0,
)
LIMP_WORKER = 3
LIMP_FACTOR = 12.0


def the_plan():
    _prog, _table, mapping = make_soak(
        nproc=SOAK["nproc"], frames=SOAK["frames"],
        pieces=SOAK["pieces"], work_us=SOAK["work_us"],
    )
    return limplock_plan(mapping, worker=LIMP_WORKER, factor=LIMP_FACTOR)


class TestProcessesLimplock:
    def test_defended_holds_p99_while_undefended_degrades(self):
        plan = the_plan()
        defended = run_soak("processes", plan=plan, **SOAK)
        undefended = run_soak(
            "processes", plan=plan, health=HealthPolicy(enabled=False),
            **SOAK,
        )
        # Conservation and value correctness hold in every arm, defended
        # or not (the verdict covers both).
        assert defended.ok, defended.violations
        assert undefended.ok, undefended.violations
        assert defended.report.realtime.ledger.unaccounted() == 0
        assert undefended.report.realtime.ledger.unaccounted() == 0

        # The limping worker was actually flagged, and only in the
        # defended arm (the undefended arm has the whole layer off).
        assert any("df0.worker3" in tag
                   for tag in defended.report.faults.limping)
        assert not undefended.report.faults.limping

    def test_hedging_rescues_when_demotion_is_disabled(self):
        """limp_weight=1.0 turns demotion off: hedges must do the work.

        With the limping worker keeping every packet addressed to it,
        each of its in-flight packets goes overdue and earns a
        speculative duplicate — this is the arm that proves hedged
        re-dispatch itself (first result wins, loser discarded) and
        that the dedup keeps the ledger exact under dozens of
        duplicates.
        """
        result = run_soak(
            "processes", plan=the_plan(),
            health=HealthPolicy(limp_weight=1.0), **SOAK,
        )
        assert result.ok, result.violations
        faults = result.report.faults
        assert faults.hedges > 0
        assert faults.hedge_wins > 0
        ledger = result.report.realtime.ledger
        assert ledger.unaccounted() == 0


class TestTcpLimplock:
    @pytest.fixture(scope="class")
    def cluster(self):
        with ClusterHarness(size=4) as harness:
            yield harness

    def test_defended_holds_p99_on_tcp(self, cluster):
        defended = run_soak("tcp", plan=the_plan(), cluster=cluster,
                            **SOAK)
        assert defended.ok, defended.violations
        assert any("df0.worker3" in tag
                   for tag in defended.report.faults.limping)
        assert defended.report.realtime.ledger.unaccounted() == 0
