"""Exactness pins for the tracker's rigidity grouping and mark dedupe.

``group_marks``, ``_dedupe_marks`` and ``update_tracks`` must return
exactly what the straightforward scalar construction below returns: a
loop over every (bottom-left, bottom-right, top) triple that checks the
rigidity criteria one mark triple at a time, and a pairwise
``distance_to`` walk for the dedupe.  Equality is ``==`` on floats and
on ``repr`` (so every number stays a Python float), and the marks
chosen are the same objects, not merely equal ones.

Marks are drawn on a coarse grid so that equal columns, equal rows,
equal residuals and pairs exactly ``tol`` apart all occur.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracking import (
    Camera,
    MarkLayout,
    TrackerConfig,
    TrackerState,
    VehicleTrack,
    group_marks,
    update_tracks,
)
from repro.tracking.tracker import VehicleObservation, _dedupe_marks
from repro.vision import Mark, Rect

# -- the scalar reference ------------------------------------------------


def reference_triple(config, bl, br, top):
    camera, layout = config.camera, config.layout
    spacing = br.col - bl.col
    if spacing <= 0:
        return None
    z = camera.depth_from_baseline(layout.baseline, spacing)
    if not (config.z_min <= z <= config.z_max):
        return None
    level_tol = config.row_tolerance * spacing
    if abs(br.row - bl.row) > level_tol:
        return None
    expected_rise = camera.focal * layout.top_height / z
    mid_col = (bl.col + br.col) / 2.0
    mid_row = (bl.row + br.row) / 2.0
    d_col = abs(top.col - mid_col)
    d_row = abs((mid_row - top.row) - expected_rise)
    if d_col > config.spacing_tolerance * spacing:
        return None
    if d_row > config.spacing_tolerance * expected_rise + level_tol:
        return None
    x = camera.lateral_from_col(mid_col, z)
    residual = (abs(br.row - bl.row) + d_col + d_row) / max(spacing, 1.0)
    return (x, z, residual)


def reference_group(config, marks):
    candidates = []
    n = len(marks)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bl, br = marks[i], marks[j]
            if bl.col >= br.col:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                top = marks[k]
                if top.row >= min(bl.row, br.row):
                    continue
                fit = reference_triple(config, bl, br, top)
                if fit is None:
                    continue
                x, z, residual = fit
                candidates.append(
                    (residual, VehicleObservation((bl, br, top), x, z, residual))
                )
    candidates.sort(key=lambda c: c[0])
    chosen, used = [], set()
    for _residual, obs in candidates:
        ids = {id(m) for m in obs.marks}
        if ids & used:
            continue
        chosen.append(obs)
        used |= ids
        if len(chosen) >= config.n_vehicles:
            break
    chosen.sort(key=lambda o: o.x)
    return chosen


def reference_dedupe(marks, tol=3.0):
    kept = []
    for mark in sorted(marks, key=lambda m: -m.pixel_count):
        if all(mark.distance_to(existing) > tol for existing in kept):
            kept.append(mark)
    return kept


def reference_update(state, marks):
    config = state.config
    observations = reference_group(config, reference_dedupe(marks))
    new_tracks = []
    available = list(state.tracks)
    for obs in observations:
        best_idx, best_d = None, None
        for idx, track in enumerate(available):
            d = math.hypot(track.x - obs.x, track.z - obs.z)
            if best_d is None or d < best_d:
                best_idx, best_d = idx, d
        if best_idx is not None and best_d is not None and best_d < 5.0:
            prev = available.pop(best_idx)
            new_tracks.append(
                VehicleTrack(
                    x=obs.x, z=obs.z, vx=obs.x - prev.x, vz=obs.z - prev.z,
                    marks=obs.mark_centers(), age=prev.age + 1,
                )
            )
        else:
            new_tracks.append(
                VehicleTrack(x=obs.x, z=obs.z, marks=obs.mark_centers())
            )
    new_tracks.sort(key=lambda t: t.x)
    complete = len(observations) >= config.n_vehicles and all(
        len(o.marks) == 3 for o in observations
    )
    next_state = replace(
        state,
        mode="track" if complete else "reinit",
        tracks=tuple(new_tracks),
        iteration=state.iteration + 1,
    )
    display = [m for obs in observations for m in obs.marks]
    return display, next_state


# -- strategies ----------------------------------------------------------

CAMERA = Camera(focal=800.0, cx=256.0, cy=256.0, nrows=512, ncols=512)


def config(n_vehicles):
    return TrackerConfig(camera=CAMERA, layout=MarkLayout(), n_vehicles=n_vehicles)


def mark(row, col, pixels):
    return Mark((row, col), Rect(int(row) - 2, int(col) - 2, 5, 5), pixels)


# Rows on a 4-pixel grid and columns on an 8-pixel one, both with a
# half-step offset: bottom pairs are 12-120 px apart (z in 8-80 m), so
# many triples pass the criteria and translated copies tie exactly.
grid_rows = st.integers(0, 24).map(lambda r: 200.0 + 4.0 * r)
grid_cols = st.integers(0, 16).map(lambda c: 180.0 + 8.0 * c)
half = st.sampled_from([0.0, 0.5])
pixel_counts = st.integers(1, 4)


@st.composite
def grid_marks(draw, max_marks=14):
    n = draw(st.integers(0, max_marks))
    marks = [
        mark(draw(grid_rows) + draw(half), draw(grid_cols) + draw(half),
             draw(pixel_counts))
        for _ in range(n)
    ]
    # The same object listed twice: only one copy may be chosen.
    if marks and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            src = draw(st.integers(0, len(marks) - 1))
            marks.insert(draw(st.integers(0, len(marks))), marks[src])
    return marks[:max_marks]


@st.composite
def translated_triples(draw):
    """One valid triple and shifted copies of it: equal residuals."""
    dz = draw(st.integers(0, 3))
    spacing = 24.0 + 8.0 * dz
    rise = 10.0 + 2.0 * draw(st.integers(0, 3))
    base = [(240.0, 200.0), (240.0, 200.0 + spacing),
            (240.0 - rise, 200.0 + spacing / 2.0)]
    copies = draw(st.integers(1, 3))
    marks = []
    for c in range(copies):
        drow, dcol = 4.0 * draw(st.integers(-2, 2)), 72.0 * c
        marks += [mark(r + drow, col + dcol, draw(pixel_counts)) for r, col in base]
    extra = draw(st.lists(st.tuples(grid_rows, grid_cols), max_size=14 - len(marks)))
    marks += [mark(r, col, draw(pixel_counts)) for r, col in extra]
    return draw(st.permutations(marks))


def ids(observations):
    return [tuple(id(m) for m in o.marks) for o in observations]


class TestGroupMarksEqualsReference:
    @given(grid_marks(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_grid_marks(self, marks, n_vehicles):
        cfg = config(n_vehicles)
        got, want = group_marks(cfg, marks), reference_group(cfg, marks)
        assert got == want
        assert repr(got) == repr(want)
        assert ids(got) == ids(want)

    @given(translated_triples(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_tied_residuals(self, marks, n_vehicles):
        cfg = config(n_vehicles)
        got, want = group_marks(cfg, marks), reference_group(cfg, marks)
        assert got == want
        assert repr(got) == repr(want)
        assert ids(got) == ids(want)

    def test_same_object_twice_is_chosen_once(self):
        cfg = config(3)
        bl, br, top = mark(240.0, 200.0, 4), mark(240.0, 240.0, 4), mark(224.0, 220.0, 4)
        marks = [bl, br, top, bl, br, top]
        got = group_marks(cfg, marks)
        assert got == reference_group(cfg, marks)
        assert ids(got) == [(id(bl), id(br), id(top))]

    def test_fewer_than_three_marks(self):
        cfg = config(1)
        for marks in ([], [mark(240.0, 200.0, 1)],
                      [mark(240.0, 200.0, 1), mark(240.0, 240.0, 1)]):
            assert group_marks(cfg, marks) == []


class TestDedupeEqualsReference:
    # A 1.5-pixel grid puts pairs exactly 3.0 apart (two steps) and the
    # integer 3-4-5 triangle puts pairs exactly 5.0 apart.
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), pixel_counts),
            max_size=16,
        ),
        st.sampled_from([1.5, 3.0, 5.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_marks(self, cells, tol):
        step = 1.0 if tol == 5.0 else 1.5
        marks = [mark(100.0 + step * r, 100.0 + step * c, p) for r, c, p in cells]
        got, want = _dedupe_marks(marks, tol), reference_dedupe(marks, tol)
        assert got == want
        assert [id(m) for m in got] == [id(m) for m in want]

    def test_pair_exactly_tol_apart_is_one_mark(self):
        a, b = mark(100.0, 100.0, 5), mark(103.0, 104.0, 5)
        assert _dedupe_marks([a, b], 5.0) == [a] == reference_dedupe([a, b], 5.0)

    def test_equal_pixel_counts_keep_input_order(self):
        a, b = mark(100.0, 100.0, 5), mark(101.0, 100.0, 5)
        assert _dedupe_marks([b, a]) == [b] == reference_dedupe([b, a])


# -- update_tracks from random prior states ------------------------------


@st.composite
def scenes(draw):
    """Projected vehicle triples plus near-duplicate and noise marks."""
    n_vehicles = draw(st.integers(1, 3))
    cfg = config(n_vehicles)
    marks, poses = [], []
    for _ in range(draw(st.integers(0, 3))):
        x = 0.5 * draw(st.integers(-6, 6))
        z = 2.0 * draw(st.integers(5, 20))
        poses.append((x, z))
        for dx, dy in cfg.layout.local_marks():
            row, col = CAMERA.project(x + dx, cfg.layout.bottom_height + dy, z)
            row, col = round(row * 2) / 2, round(col * 2) / 2
            marks.append(mark(row, col, draw(pixel_counts)))
            if draw(st.booleans()):  # seen again through an overlapping window
                marks.append(mark(row + draw(half), col - draw(half),
                                  draw(pixel_counts)))
    marks += draw(grid_marks(max_marks=6))
    tracks = []
    for _ in range(draw(st.integers(0, 3))):
        if poses and draw(st.booleans()):
            x, z = draw(st.sampled_from(poses))
            x, z = x + 0.5 * draw(st.integers(-2, 2)), z + draw(st.integers(-6, 6))
        else:
            x, z = 0.5 * draw(st.integers(-8, 8)), 2.0 * draw(st.integers(2, 25))
        tracks.append(
            VehicleTrack(x=x, z=z, vx=0.25 * draw(st.integers(-2, 2)),
                         vz=0.5 * draw(st.integers(-2, 2)),
                         age=draw(st.integers(0, 5)))
        )
    state = TrackerState(
        config=cfg,
        mode=draw(st.sampled_from(["track", "reinit"])),
        tracks=tuple(tracks),
        iteration=draw(st.integers(0, 100)),
    )
    return state, draw(st.permutations(marks))


class TestUpdateTracksEqualsReference:
    @given(scenes())
    @settings(max_examples=300, deadline=None)
    def test_display_and_next_state(self, scene):
        state, marks = scene
        got, want = update_tracks(state, marks), reference_update(state, marks)
        assert got == want
        assert repr(got) == repr(want)
        assert [id(m) for m in got[0]] == [id(m) for m in want[0]]
