"""The online re-mapping chaos proof, on real backends: safety and
decisions.

One of eight farm workers limps — every computation 12x slower with a
perfectly fresh heartbeat — for the whole stream.  With the re-mapper
armed the supervisor confirms the limping verdict over N completions
and migrates every processor off the degraded worker, draining its
in-flight packets onto survivors.  Tier-1 asserts what the wall clock
can decide: conservation stays exact, every delivered value matches
the sequential oracle, and the ``limping`` then ``remap`` decisions are
taken and reported.

The latency verdict — steady-state p99 back within 2x the no-fault
baseline, better than demotion alone — compares two wall-clock tails
and is asserted where it is exact: in virtual time
(``tests/sched/test_simulator_remap.py``, on the same policy code) and
by the CI ``sched`` job's ``repro soak --remap`` A/B gate.
"""

import pytest

from repro.net import ClusterHarness
from repro.realtime.soak import run_soak
from repro.sched.remap import RemapPolicy

from tests.health.test_chaos_limplock import (
    LIMP_WORKER,
    SOAK,
    the_plan,
)

class TestProcessesRemap:
    def test_remapping_restores_p99_on_processes(self):
        remapped = run_soak("processes", plan=the_plan(),
                            remap=RemapPolicy(), **SOAK)

        # Safety: conservation exact and every delivered value matches
        # the sequential oracle, migration and drains included.
        assert remapped.ok, remapped.violations
        assert remapped.report.realtime.ledger.unaccounted() == 0

        faults = remapped.report.faults
        target = f"df0.worker{LIMP_WORKER}"
        assert any(target in tag for tag in faults.remaps)
        # Migration is the *second* stage: the limping verdict fired
        # first, then the confirmation streak promoted it.
        assert any(target in tag for tag in faults.limping)

    def test_remap_summary_names_the_migration(self):
        result = run_soak("processes", plan=the_plan(),
                          remap=RemapPolicy(), **SOAK)
        assert result.ok, result.violations
        summary = result.report.faults.summary()
        assert "re-mapped" in summary
        assert f"df0.worker{LIMP_WORKER}" in summary


class TestTcpRemap:
    @pytest.fixture(scope="class")
    def cluster(self):
        with ClusterHarness(size=4) as harness:
            yield harness

    def test_remapping_restores_p99_on_tcp(self, cluster):
        remapped = run_soak("tcp", plan=the_plan(), remap=RemapPolicy(),
                            cluster=cluster, **SOAK)
        assert remapped.ok, remapped.violations
        assert any(f"df0.worker{LIMP_WORKER}" in tag
                   for tag in remapped.report.faults.remaps)
        assert remapped.report.realtime.ledger.unaccounted() == 0
