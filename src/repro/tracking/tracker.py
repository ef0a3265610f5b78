"""The predict-then-verify vehicle tracker of the paper's §4.

Algorithm, as described:

* detection finds marks — connected pixel groups above a threshold —
  and characterises each by centroid + englobing frame;
* "the englobing frames of marks detected at iteration i are used to
  predict the position and size of the windows of interest in which the
  detection process will search for marks at iteration i+1.  This is
  done using a 3D-modelling of each vehicle trajectory, coupled to a set
  of rigidity criteria to resolve ambiguous cases (occultations, etc)";
* "if less than three marks were detected at iteration i, it is assumed
  that the prediction failed, and windows of interest are obtained by
  dividing up the whole image into n equally-sized sub-windows".

The 3D model: each vehicle's two bottom marks have a known physical
baseline, so their pixel spacing yields depth; the centroid column
yields lateral offset; a constant-velocity filter on (x, z) predicts the
next pose, which projects to the next windows of interest.  The rigidity
criteria validate candidate mark triples against the known triangle
geometry (bottom pair level and correctly spaced, top mark centred
above); they are evaluated over all candidate triples at once, as numpy
array expressions, not one triple at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..vision.features import Mark
from ..vision.image import Image, Rect
from ..vision.windows import Window, tile_image, windows_around
from .model import Camera, MarkLayout

__all__ = [
    "TrackerConfig",
    "VehicleTrack",
    "TrackerState",
    "initial_state",
    "plan_windows",
    "group_marks",
    "update_tracks",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Static tracker parameters (camera intrinsics + rigid geometry)."""

    camera: Camera = field(default_factory=Camera)
    layout: MarkLayout = field(default_factory=MarkLayout)
    #: How many lead vehicles the application expects (1-3 in the paper).
    n_vehicles: int = 1
    #: Half-size margin added around each predicted mark window, as a
    #: multiple of the predicted mark radius.
    window_margin: float = 7.0
    #: Minimum half-size of a search window (pixels).
    min_window: int = 8
    #: Rigidity tolerances (fractions of the expected quantity).
    row_tolerance: float = 0.25
    spacing_tolerance: float = 0.35
    #: Plausible depth range (metres) for candidate bottom pairs.
    z_min: float = 3.0
    z_max: float = 80.0
    #: Minimum pixels for a detected component to count as a mark.
    min_mark_pixels: int = 3
    #: Detection threshold (gray level).
    threshold: int = 120


@dataclass(frozen=True)
class VehicleTrack:
    """One tracked vehicle: 3D pose estimate + last seen marks."""

    x: float
    z: float
    vx: float = 0.0  # metres / frame
    vz: float = 0.0
    marks: Tuple[Tuple[float, float], ...] = ()  # (row, col) bl, br, top
    age: int = 0

    def predicted_pose(self) -> Tuple[float, float]:
        return (self.x + self.vx, self.z + self.vz)


@dataclass(frozen=True)
class TrackerState:
    """The itermem memory value: mode + per-vehicle tracks."""

    config: TrackerConfig
    mode: str = "reinit"  # "track" | "reinit"
    tracks: Tuple[VehicleTrack, ...] = ()
    iteration: int = 0

    @property
    def tracking(self) -> bool:
        return self.mode == "track"


def initial_state(config: Optional[TrackerConfig] = None) -> TrackerState:
    """The paper's ``init_state``: no tracks, reinitialisation mode."""
    return TrackerState(config=config or TrackerConfig())


# -- window planning (get_windows) --------------------------------------------


def _predicted_mark_positions(
    config: TrackerConfig, track: VehicleTrack
) -> List[Tuple[float, float, float]]:
    """Predicted (row, col, radius_px) of each mark next frame."""
    x, z = track.predicted_pose()
    z = max(z, config.z_min / 2)
    camera, layout = config.camera, config.layout
    out = []
    for dx, dy in layout.local_marks():
        row, col = camera.project(x + dx, layout.bottom_height + dy, z)
        out.append((row, col, camera.mark_radius_px(layout.mark_radius, z)))
    return out


def plan_windows(nproc: int, state: TrackerState, frame: Image) -> List[Window]:
    """The paper's ``get_windows``.

    Tracking mode: one window of interest per predicted mark (3 per
    vehicle — the 3/6/9 of §4), sized from the predicted apparent mark
    size.  Reinitialisation: ``nproc`` equal bands covering the frame.
    """
    if not state.tracking or not state.tracks:
        return tile_image(frame, nproc)
    config = state.config
    rects: List[Rect] = []
    for track in state.tracks:
        for row, col, radius in _predicted_mark_positions(config, track):
            half = max(config.min_window, int(math.ceil(radius * config.window_margin)))
            rects.append(
                Rect(int(round(row)) - half, int(round(col)) - half,
                     2 * half, 2 * half)
            )
    return windows_around(frame, rects)


# -- rigidity grouping ---------------------------------------------------


@dataclass(frozen=True)
class VehicleObservation:
    """A validated mark triple with its recovered 3D pose."""

    marks: Tuple[Mark, Mark, Mark]  # bottom-left, bottom-right, top
    x: float
    z: float
    residual: float

    def mark_centers(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(m.center for m in self.marks)


def group_marks(
    config: TrackerConfig, marks: Sequence[Mark]
) -> List[VehicleObservation]:
    """Group detected marks into vehicles using the rigidity criteria.

    A candidate triple is any (bottom-left ``i``, bottom-right ``j``,
    top ``k``) with ``col[i] < col[j]`` and the top mark strictly above
    both bottom marks.  All candidates are tested at once, as arrays:

    * the pair's spacing gives the depth ``z = focal * baseline /
      spacing``, which must lie in ``[z_min, z_max]``;
    * the pair must be level: ``|row[j] - row[i]|`` at most the level
      tolerance ``row_tolerance * spacing`` (it scales with apparent
      size);
    * the top mark must sit centred above the pair — column within
      ``spacing_tolerance * spacing`` of the pair's midpoint — at the
      projected triangle height ``focal * top_height / z``, within
      ``spacing_tolerance`` of that height plus the level tolerance.

    Survivors are ranked by the residual ``(|row[j] - row[i]| + d_col +
    d_row) / max(spacing, 1)`` (a stable sort, so ties keep (i, j, k)
    order); then non-overlapping triples — no mark object shared — are
    picked greedily, best geometry first, up to ``config.n_vehicles``.
    """
    n = len(marks)
    if n < 3:
        return []
    camera, layout = config.camera, config.layout
    rows, cols = np.array([m.center for m in marks], dtype=np.float64).T
    # C order yields (i, j, k) lexicographically; the top test implies
    # k is neither i nor j.
    lower = np.minimum(rows[:, None], rows)
    i, j, k = np.nonzero(
        (cols[:, None] < cols)[:, :, None] & (rows < lower[:, :, None])
    )
    # Keep each expression's operation order: the tracker's output is
    # pinned bit for bit to a one-triple-at-a-time reference
    # (tests/tracking/test_grouping_exact.py).
    spacing = cols[j] - cols[i]
    z = camera.focal * layout.baseline / spacing
    level_tol = config.row_tolerance * spacing
    d_level = np.abs(rows[j] - rows[i])
    expected_rise = camera.focal * layout.top_height / z
    mid_col = (cols[i] + cols[j]) / 2.0
    mid_row = (rows[i] + rows[j]) / 2.0
    d_col = np.abs(cols[k] - mid_col)
    d_row = np.abs((mid_row - rows[k]) - expected_rise)
    (ok,) = np.nonzero(
        (config.z_min <= z) & (z <= config.z_max)
        & (d_level <= level_tol)
        & (d_col <= config.spacing_tolerance * spacing)
        & (d_row <= config.spacing_tolerance * expected_rise + level_tol)
    )
    i, j, k, z = i[ok], j[ok], k[ok], z[ok]
    x = (mid_col[ok] - camera.cx) * z / camera.focal
    residual = (d_level[ok] + d_col[ok] + d_row[ok]) / np.maximum(spacing[ok], 1.0)
    order = np.argsort(residual, kind="stable")
    ids = [id(m) for m in marks]
    chosen: List[VehicleObservation] = []
    used: set = set()
    for a, b, c, xc, zc, rc in zip(
        *(v[order].tolist() for v in (i, j, k, x, z, residual))
    ):
        triple = {ids[a], ids[b], ids[c]}
        if triple & used:
            continue
        chosen.append(VehicleObservation((marks[a], marks[b], marks[c]), xc, zc, rc))
        used |= triple
        if len(chosen) >= config.n_vehicles:
            break
    # Report left-to-right for determinism.
    chosen.sort(key=lambda o: o.x)
    return chosen


# -- track update (the core of ``predict``) ------------------------------------


def _dedupe_marks(marks: Sequence[Mark], tol: float = 3.0) -> List[Mark]:
    """Collapse duplicate detections of the same physical mark.

    Windows of interest overlap (three per vehicle, each large enough to
    absorb inter-frame motion), so one reflector is often detected in
    several windows.  Marks whose centres fall within ``tol`` pixels are
    one physical mark; the detection with the most support (pixel count)
    wins; among equal counts, the earlier one.
    """
    if not marks:
        return []
    rows, cols = np.array([m.center for m in marks], dtype=np.float64).T
    apart = (np.hypot(rows[:, None] - rows, cols[:, None] - cols) > tol).tolist()
    kept: List[int] = []
    for idx in sorted(range(len(marks)), key=lambda i: -marks[i].pixel_count):
        if all(apart[idx][other] for other in kept):
            kept.append(idx)
    return [marks[idx] for idx in kept]


def update_tracks(
    state: TrackerState, marks: Sequence[Mark]
) -> Tuple[List[Mark], TrackerState]:
    """One prediction step: marks -> (marks to display, next state).

    Matches vehicle observations to existing tracks (nearest (x, z)),
    updates the constant-velocity estimates, and decides the next mode:
    tracking requires every expected vehicle seen with all three marks,
    otherwise the next iteration reinitialises (§4's failure rule).
    """
    config = state.config
    observations = group_marks(config, _dedupe_marks(marks))

    new_tracks: List[VehicleTrack] = []
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
                    x=obs.x,
                    z=obs.z,
                    vx=obs.x - prev.x,
                    vz=obs.z - prev.z,
                    marks=obs.mark_centers(),
                    age=prev.age + 1,
                )
            )
        else:
            new_tracks.append(
                VehicleTrack(x=obs.x, z=obs.z, marks=obs.mark_centers())
            )
    new_tracks.sort(key=lambda t: t.x)

    complete = len(observations) >= config.n_vehicles
    next_mode = "track" if complete else "reinit"
    next_state = replace(
        state,
        mode=next_mode,
        tracks=tuple(new_tracks),
        iteration=state.iteration + 1,
    )
    display = [m for obs in observations for m in obs.marks]
    return display, next_state
