"""Feature extraction: marks, centroids and englobing frames.

Section 4 of the paper: "Each mark is then characterized by computing its
center of gravity and an englobing frame."  A :class:`Mark` bundles those
two characterisations plus the pixel count, and is the unit of data
flowing through the ``df`` skeleton in the case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .image import Image, Rect
from .labelling import label_runs
from .ops import otsu_threshold

__all__ = ["Mark", "centroid", "extract_marks"]


@dataclass(frozen=True)
class Mark:
    """A detected visual mark.

    Coordinates are *global* image coordinates (the detector translates
    window-local results back into frame coordinates so the tracker can
    reason about the whole scene).
    """

    center: Tuple[float, float]  # (row, col) center of gravity
    frame: Rect  # englobing frame
    pixel_count: int

    @property
    def row(self) -> float:
        return self.center[0]

    @property
    def col(self) -> float:
        return self.center[1]

    def translated(self, drow: int, dcol: int) -> "Mark":
        """The same mark shifted by (drow, dcol)."""
        return Mark(
            (self.center[0] + drow, self.center[1] + dcol),
            Rect(self.frame.row + drow, self.frame.col + dcol,
                 self.frame.height, self.frame.width),
            self.pixel_count,
        )

    def distance_to(self, other: "Mark") -> float:
        dr = self.row - other.row
        dc = self.col - other.col
        return float(np.hypot(dr, dc))


def centroid(mask: np.ndarray) -> Tuple[float, float]:
    """Center of gravity (row, col) of a boolean mask."""
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise ValueError("centroid of an empty mask")
    return (float(rows.mean()), float(cols.mean()))


def extract_marks(
    window: Image,
    *,
    level: Optional[int] = None,
    min_pixels: int = 1,
    connectivity: int = 8,
    origin: Tuple[int, int] = (0, 0),
) -> List[Mark]:
    """Detect marks in a window.

    Marks are connected groups of pixels strictly above ``level`` (Otsu's
    threshold when ``level`` is None).  Components smaller than
    ``min_pixels`` are rejected as noise.  ``origin`` is the (row, col) of
    the window's top-left corner in the full frame; returned marks use
    global coordinates.
    """
    if window.nrows == 0 or window.ncols == 0:
        return []
    lvl = otsu_threshold(window) if level is None else level
    rows, firsts, lasts, labels, _ = label_runs(window.pixels > lvl, connectivity)
    # Per mark, run by run: pixel count, row and column sums, frame.  The
    # sums are exact integers, so ``sum / count`` is bit-identical to the
    # mean over the mark's pixels.
    stats: Dict[int, List[int]] = {}
    runs = zip(labels.tolist(), rows.tolist(), firsts.tolist(), lasts.tolist())
    for k, r, lo, hi in runs:
        n = hi - lo + 1
        s = stats.setdefault(k, [0, 0, 0, r, r, lo, hi])
        s[0] += n
        s[1] += n * r
        s[2] += n * (lo + hi) // 2
        s[4], s[5], s[6] = r, min(s[5], lo), max(s[6], hi)
    r0, c0 = origin
    return [
        Mark((row_sum / n + r0, col_sum / n + c0),
             Rect(top + r0, left + c0, bottom - top + 1, right - left + 1), n)
        for n, row_sum, col_sum, top, bottom, left, right in stats.values()
        if n >= min_pixels
    ]
