"""The processes backend over the ring transport, vs sequential emulation.

The equivalence recipes (one program per skeleton) already certify the
``queue`` path; here the same programs run with ``transport="ring"``
(explicitly and via ``REPRO_TRANSPORT``), under fork and spawn, and
must agree with emulation exactly.
"""

import multiprocessing

import pytest

from repro.backends import get_backend
from repro.machine import FAST_TEST
from repro.pnt import expand_program
from repro.syndex import distribute, ring

from tests.backends.test_backend_equivalence import RECIPES, make_df, run_on


def run_ring(factory, *, arch_size=4, **options):
    prog, table, args = factory()
    mapping = distribute(expand_program(prog, table), ring(arch_size))
    options.setdefault("timeout", 60.0)
    return get_backend("processes").run(
        mapping, table, program=prog, costs=FAST_TEST, args=args,
        transport="ring", **options,
    )


def assert_agrees(report, reference):
    assert report.outputs == reference.outputs
    assert report.final_state == reference.final_state
    if reference.one_shot_results is not None:
        assert report.one_shot_results == reference.one_shot_results


class TestRingEquivalence:
    @pytest.mark.parametrize("skeleton", sorted(RECIPES))
    def test_every_skeleton_agrees_with_emulation(self, skeleton):
        reference = run_on("emulate", RECIPES[skeleton])
        assert_agrees(run_ring(RECIPES[skeleton]), reference)

    def test_df_under_spawn(self):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no spawn on this platform")
        reference = run_on("emulate", make_df)
        report = run_ring(make_df, arch_size=2, start_method="spawn",
                          timeout=90.0)
        assert_agrees(report, reference)

    def test_env_var_selects_ring(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "ring")
        reference = run_on("emulate", make_df)
        report = run_on("processes", make_df)
        assert_agrees(report, reference)

    def test_explicit_queue_still_works(self):
        reference = run_on("emulate", make_df)
        prog, table, args = make_df()
        mapping = distribute(expand_program(prog, table), ring(4))
        report = get_backend("processes").run(
            mapping, table, program=prog, costs=FAST_TEST, args=args,
            timeout=60.0, transport="queue",
        )
        assert_agrees(report, reference)

    def test_unknown_transport_is_loud(self):
        from repro.backends import BackendError
        from repro.shm import TransportError

        prog, table, args = make_df()
        mapping = distribute(expand_program(prog, table), ring(4))
        with pytest.raises((BackendError, TransportError),
                           match="unknown transport"):
            get_backend("processes").run(
                mapping, table, program=prog, costs=FAST_TEST, args=args,
                timeout=60.0, transport="osmosis",
            )

    def test_tiny_ring_options_still_correct(self):
        """4 slots of 128B force constant backpressure + overflow."""
        reference = run_on("emulate", make_df)
        report = run_ring(
            make_df,
            transport_options={"ring_slots": 4, "ring_slot_bytes": 128},
        )
        assert_agrees(report, reference)

    def test_transfer_spans_recorded_over_ring(self):
        report = run_ring(make_df, record_trace=True)
        assert report.trace is not None
        assert report.trace.compute
