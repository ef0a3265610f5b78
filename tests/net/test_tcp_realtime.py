"""Realtime budgets and the chaos soak over the tcp backend.

The admission half of :class:`~repro.backends.policy_kernel.PolicyKernel`
runs on the worker that hosts the stream input, the delivery half on the
worker that hosts the output, and their released/delivered counters ride
the coordinator as COUNT frames — these tests prove the two ledger
halves still reconcile when each half lives in a different process on a
different socket.
"""

import pytest

from repro.net import ClusterHarness
from repro.realtime.soak import run_soak


@pytest.fixture(scope="module")
def cluster():
    with ClusterHarness(size=4) as harness:
        yield harness


class TestRealtimeOverTcp:
    def test_quiet_stream_holds_budget(self, cluster):
        result = run_soak(
            "tcp", seed=0, frames=20, chaos=False,
            deadline_ms=200.0, frame_period_ms=5.0, timeout=90.0,
            cluster=cluster,
        )
        assert result.ok, result.violations
        ledger = result.report.realtime.ledger
        assert ledger.submitted == 20
        assert ledger.unaccounted() == 0
        assert ledger.delivered
        assert ledger.deadline_misses == 0

    def test_chaos_soak_conserves_frames(self, cluster):
        result = run_soak(
            "tcp", seed=3, frames=30, n_faults=4, timeout=120.0,
            cluster=cluster,
        )
        assert result.ok, result.violations
        rt = result.report.realtime
        assert rt.ledger.submitted == 30
        assert rt.ledger.unaccounted() == 0

    def test_rt_instants_carry_host_tags(self, cluster):
        # A 1 ms deadline on ~300 us-per-piece frames guarantees misses,
        # so the admission half must emit rt:* events to tag.
        result = run_soak(
            "tcp", seed=0, frames=10, chaos=False,
            deadline_ms=1.0, frame_period_ms=2.0, timeout=90.0,
            cluster=cluster,
        )
        instants = [
            i for i in result.report.trace.instants
            if i.name.startswith("rt:")
        ]
        assert instants
        assert all("[host " in i.detail for i in instants)

    def test_back_to_back_soaks_reset_stream_state(self, cluster):
        """The grab counter lives in module state: a persistent worker
        must re-import it per run, or the second soak starves."""
        for _ in range(2):
            result = run_soak(
                "tcp", seed=1, frames=15, chaos=False,
                deadline_ms=200.0, frame_period_ms=5.0, timeout=90.0,
                cluster=cluster,
            )
            assert result.ok, result.violations
            assert result.report.realtime.ledger.submitted == 15
