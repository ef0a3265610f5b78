"""End-to-end tests of the case-study application (E2/E3/E5 shape)."""

import hashlib

import pytest

from repro import build
from repro.core import emulate
from repro.minicaml import compile_source
from repro.syndex import ring
from repro.tracking import Occlusion, build_tracking_app


def small_app(**kw):
    defaults = dict(nproc=4, n_frames=5, frame_size=128, n_vehicles=1)
    defaults.update(kw)
    return build_tracking_app(**defaults)


class TestBuildApp:
    def test_spec_compiles_and_types(self):
        app = small_app()
        compiled = compile_source(app.source, app.table)
        assert compiled.type_of("main") == "unit"
        assert compiled.type_of("loop") == "(state * img) -> state * mark list"
        (skel,) = compiled.ir.skeleton_instances()
        assert skel.kind == "df"
        assert skel.degree == 4

    def test_invalid_vehicle_count(self):
        with pytest.raises(ValueError, match="one to three"):
            build_tracking_app(n_vehicles=4)

    def test_rewind_restores_stream(self):
        app = small_app()
        compiled = compile_source(app.source, app.table)
        emulate(compiled.ir, app.table, call_sink=True)
        n = len(app.displayed)
        app.rewind()
        assert app.displayed == []
        emulate(compiled.ir, app.table, call_sink=True)
        assert len(app.displayed) == n


class TestSequentialEmulation:
    def test_tracks_converge_to_truth(self):
        app = small_app(n_frames=6)
        compiled = compile_source(app.source, app.table)
        result = emulate(compiled.ir, app.table, call_sink=False)
        state = result.final_state
        assert state.tracking
        truth = app.scene.vehicles_at(5)[0]
        (track,) = state.tracks
        assert track.z == pytest.approx(truth.z, rel=0.1)
        assert track.x == pytest.approx(truth.x, abs=0.3)

    def test_marks_displayed_every_frame(self):
        app = small_app(n_frames=4)
        compiled = compile_source(app.source, app.table)
        emulate(compiled.ir, app.table, call_sink=True)
        assert len(app.displayed) == 4
        for ms in app.displayed:
            assert len(ms) == 3

    def test_occlusion_triggers_reinitialisation(self):
        occ = (Occlusion(vehicle_index=0, mark_index=2, start=2, end=3),)
        app = small_app(n_frames=6, occlusions=occ)
        compiled = compile_source(app.source, app.table)
        result = emulate(compiled.ir, app.table, call_sink=True)
        # Frame 2 shows <3 marks -> the state after it is 'reinit';
        # the tracker must recover by the final frame.
        assert len(app.displayed[2]) < 3
        assert result.final_state.tracking


class TestTrackerGolden:
    """Three vehicles, one occluded mark: a digest of everything displayed.

    Frames 0, 4 and 5 run the reinitialisation band search, the others
    the tracking windows, so a change in either detection path or in the
    tracker's decisions changes the digest.
    """

    DIGEST = "90b3d2a88666d09e4cc2d1a33b92ccd5ced9a92973fc4699db695300424a1ff1"

    def test_displayed_marks_are_pinned(self):
        occ = (Occlusion(vehicle_index=1, mark_index=0, start=3, end=5),)
        app = build_tracking_app(nproc=4, n_frames=12, frame_size=512,
                                 n_vehicles=3, occlusions=occ)
        compiled = compile_source(app.source, app.table)
        emulate(compiled.ir, app.table, call_sink=True)
        assert [len(ms) for ms in app.displayed] == [9, 9, 9, 6, 6] + [9] * 7
        digest = hashlib.sha256(repr(app.displayed).encode()).hexdigest()
        assert digest == self.DIGEST


class TestParallelEquivalence:
    """The paper's Fig. 2: both paths from one source must agree."""

    def test_simulated_run_equals_emulation(self):
        app_seq = small_app(n_frames=5, n_vehicles=2)
        compiled = compile_source(app_seq.source, app_seq.table)
        seq = emulate(compiled.ir, app_seq.table, call_sink=True)

        app_par = small_app(n_frames=5, n_vehicles=2)
        built = build(app_par.source, app_par.table, ring(4))
        report = built.run()
        assert len(report.outputs) == len(seq.outputs)
        assert app_par.displayed == app_seq.displayed
        assert report.final_state.tracks == seq.final_state.tracks

    def test_equivalence_independent_of_processor_count(self):
        reference = None
        for nprocs in (1, 3, 5):
            app = small_app(n_frames=4)
            built = build(app.source, app.table, ring(nprocs))
            built.run()
            if reference is None:
                reference = app.displayed
            else:
                assert app.displayed == reference


class TestCaseStudyShape:
    """E5: the latency *shape* of §4 on the simulated T9000 ring."""

    @pytest.fixture(scope="class")
    def report(self):
        app = build_tracking_app(
            nproc=8, n_frames=10, frame_size=512, n_vehicles=3
        )
        built = build(
            app.source, app.table, ring(8),
            profile_iterations=2, rewind=app.rewind,
        )
        return built.run(real_time=True)

    def test_reinit_much_slower_than_tracking(self, report):
        reinit = report.iterations[0].latency
        tracking = [r.latency for r in report.iterations[2:]]
        assert reinit > 2.5 * max(tracking)

    def test_reinit_latency_near_paper_value(self, report):
        # Paper: 110 ms on 8 T9000s; accept the right order of magnitude.
        assert 80_000 <= report.iterations[0].latency <= 150_000

    def test_tracking_latency_near_paper_value(self, report):
        # Paper: 30 ms minimal latency for the tracking phase.
        stable = [r.latency for r in report.iterations[2:]]
        mean = sum(stable) / len(stable)
        assert 10_000 <= mean <= 45_000

    def test_tracking_meets_frame_budget(self, report):
        """Tracking phase processes (nearly) every 25 Hz frame."""
        stable = report.iterations[2:]
        steps = [
            b.frame_index - a.frame_index for a, b in zip(stable, stable[1:])
        ]
        assert steps and max(steps) == 1

    def test_reinit_skips_frames(self, report):
        """The 110 ms reinitialisation cannot keep up with 25 Hz."""
        first_step = report.iterations[1].frame_index - report.iterations[0].frame_index
        assert first_step >= 2
