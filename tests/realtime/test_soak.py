"""The chaos-soak harness: frame conservation, value correctness and
deadline accounting under seeded crash+overload chaos."""

import pytest

from repro.realtime.soak import make_soak, run_soak, soak_plan

REAL_BACKENDS = ["threads", "processes"]


class TestSoakPlan:
    def test_same_seed_same_plan(self):
        _prog, _table, mapping = make_soak(nproc=3, frames=10)
        a = soak_plan(11, mapping)
        b = soak_plan(11, mapping)
        assert a.events == b.events

    def test_mixes_crash_and_overload_chaos(self):
        _prog, _table, mapping = make_soak(nproc=3, frames=10)
        plan = soak_plan(0, mapping, n_faults=8)
        kinds = {e.kind for e in plan.events}
        assert kinds & {"crash", "slow-worker"}
        assert kinds & {"burst", "input-surge"}
        # Overload chaos targets the stream source, never a worker.
        for event in plan.events:
            if event.kind in ("burst", "input-surge"):
                assert event.process == "stream.input"


class TestChaosSoak:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_no_unaccounted_frames_under_chaos(self, backend):
        result = run_soak(
            backend, seed=3, frames=40, n_faults=4, timeout=90.0,
        )
        assert result.ok, result.violations
        rt = result.report.realtime
        assert rt.ledger.submitted == 40
        assert rt.ledger.unaccounted() == 0

    def test_dead_worker_rescued_by_hedges_never_parks_the_master(self):
        """The CI soak command.  An early crash, then hedging: every
        packet sent to the dead worker is rescued, which frees its
        port, so the master kept feeding it — until its queue was full
        and the master's blocking send parked the one thread that could
        convict it.  Worked only while the data plane was slow and the
        router in front of the worker buffered five more packets."""
        result = run_soak("processes", seed=5, frames=100, timeout=30.0)
        assert result.ok, result.violations
        assert result.report.realtime.ledger.unaccounted() == 0

    def test_seeds_vary_but_always_conserve(self):
        for seed in (0, 1, 2):
            result = run_soak(
                "threads", seed=seed, frames=30, n_faults=4, timeout=90.0,
            )
            assert result.ok, (seed, result.violations)

    def test_ledger_payload_is_json_ready(self):
        import json

        result = run_soak("threads", seed=1, frames=20, n_faults=3,
                          timeout=90.0)
        payload = result.ledger_payload()
        text = json.dumps(payload)
        assert json.loads(text)["ok"] == result.ok
        assert payload["plan"]["seed"] == 1
        assert payload["realtime"]["frames"]


class TestQuietSoak:
    def test_p99_within_budget_without_chaos(self):
        # The acceptance criterion: with no chaos and a sane offered
        # load, the pipeline holds its deadline on a real backend.
        result = run_soak(
            "threads", seed=0, frames=40, chaos=False,
            deadline_ms=50.0, frame_period_ms=5.0, timeout=90.0,
        )
        assert result.ok, result.violations
        ledger = result.report.realtime.ledger
        assert ledger.delivered
        assert ledger.p99_us <= 50_000.0
        assert ledger.deadline_misses == 0
