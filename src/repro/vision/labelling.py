"""Connected-component labelling (CCL) over horizontal runs.

The paper's mark detector finds "connected groups of pixels with values
above a given threshold" (section 4), and CCL is also SKiPPER's canonical
``scm`` demo application [Ginhac et al., MVA'98].  Two implementations are
provided:

* :func:`label` — run-based labelling, as would be hand-coded in C on the
  Transvision machine.  Each row's foreground is cut into maximal
  horizontal runs (one ``np.diff`` over a zero-padded mask); each run is
  united with the runs of the row above that it touches, in a union-find
  table over run indices.  The work is per run, not per pixel, and
  :func:`label_runs` hands the labelled runs to the mark detector, which
  reads each mark's moments and frame straight from them;
* :func:`label_flood` — a simple flood-fill reference used by the test
  suite as an independent oracle.

Both support 4- and 8-connectivity.  Labels are positive consecutive
integers starting at 1, numbered by each component's first pixel in
raster order; background (zero pixels) stays 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .image import Image, Rect

__all__ = [
    "UnionFind", "label", "label_runs", "label_flood", "component_count", "components",
]


class UnionFind:
    """Array-based disjoint-set with path compression and union by rank.

    The equivalence table over run indices in :func:`label_runs`.
    """

    __slots__ = ("parent", "rank")

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.rank: List[int] = []

    def make_set(self) -> int:
        """Create a singleton set; returns its id."""
        idx = len(self.parent)
        self.parent.append(idx)
        self.rank.append(0)
        return idx

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        # Path compression.
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra

    def __len__(self) -> int:
        return len(self.parent)


def label_runs(
    mask: np.ndarray, connectivity: int = 8
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Label the horizontal foreground runs of a 2D mask.

    Returns ``(rows, firsts, lasts, labels, count)``: one entry per
    maximal run of non-zero pixels, in raster order — its row, first and
    last column, and its component label in ``1..count``.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    # Under 8-connectivity a run also touches the runs above that end
    # one column before it starts or begin one column after it ends.
    slack = 1 if connectivity == 8 else 0
    # With a zero column either side of every row, the changes along the
    # flattened mask alternate: before a run's first pixel, at its last.
    nrows, ncols = mask.shape
    width = ncols + 2
    padded = np.zeros((nrows, width), dtype=bool)
    padded[:, 1:-1] = mask
    changes = np.flatnonzero(np.diff(padded.ravel()))
    rows, firsts = np.divmod(changes[0::2], width)
    lasts = changes[1::2] % width - 1
    row, lo, hi = rows.tolist(), firsts.tolist(), lasts.tolist()
    uf = UnionFind()
    above = 0  # first run of the row above that run i may still touch
    for i in range(len(row)):
        uf.make_set()
        while above < i and (
            row[above] < row[i] - 1
            or (row[above] == row[i] - 1 and hi[above] < lo[i] - slack)
        ):
            above += 1
        k = above
        while k < i and row[k] == row[i] - 1 and lo[k] <= hi[i] + slack:
            uf.union(k, i)
            k += 1
    # A component's first run holds its first raster pixel.
    numbers: Dict[int, int] = {}
    labels = [numbers.setdefault(uf.find(i), len(numbers) + 1) for i in range(len(uf))]
    return rows, firsts, lasts, np.array(labels, dtype=np.int32), len(numbers)


def label(binary: Image, connectivity: int = 8) -> Tuple[np.ndarray, int]:
    """Run-based connected-component labelling.

    Returns ``(labels, count)`` where ``labels`` is an ``int32`` array of
    the same shape as ``binary`` holding labels ``1..count`` on foreground
    (non-zero) pixels and 0 on background, numbered by first pixel in
    raster order.
    """
    mask = binary.pixels != 0
    _, firsts, lasts, run_labels, count = label_runs(mask, connectivity)
    labels = np.zeros(mask.shape, dtype=np.int32)
    # Boolean indexing visits the foreground in raster order: run by run.
    labels[mask] = np.repeat(run_labels, lasts - firsts + 1)
    return labels, count


def label_flood(binary: Image, connectivity: int = 8) -> Tuple[np.ndarray, int]:
    """Flood-fill labelling: an independent oracle for :func:`label`.

    Same output contract as :func:`label`, numbering included.
    """
    if connectivity == 4:
        all_offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
    elif connectivity == 8:
        all_offsets = tuple(
            (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
        )
    else:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    pix = binary.pixels
    nrows, ncols = binary.shape
    labels = np.zeros((nrows, ncols), dtype=np.int32)
    count = 0
    for r in range(nrows):
        for c in range(ncols):
            if pix[r, c] == 0 or labels[r, c] != 0:
                continue
            count += 1
            stack = [(r, c)]
            labels[r, c] = count
            while stack:
                cr, cc = stack.pop()
                for dr, dc in all_offsets:
                    nr, nc = cr + dr, cc + dc
                    if (
                        0 <= nr < nrows
                        and 0 <= nc < ncols
                        and pix[nr, nc] != 0
                        and labels[nr, nc] == 0
                    ):
                        labels[nr, nc] = count
                        stack.append((nr, nc))
    return labels, count


def component_count(binary: Image, connectivity: int = 8) -> int:
    """Number of connected foreground components."""
    return label(binary, connectivity)[1]


def components(binary: Image, connectivity: int = 8) -> List[np.ndarray]:
    """Boolean masks, one per component, ordered by label."""
    labels, count = label(binary, connectivity)
    return [labels == k for k in range(1, count + 1)]


def bounding_rect(mask: np.ndarray) -> Rect:
    """Tight bounding rectangle of a boolean mask (the "englobing frame")."""
    rows = np.any(mask, axis=1)
    cols = np.any(mask, axis=0)
    if not rows.any():
        return Rect(0, 0, 0, 0)
    r0, r1 = np.flatnonzero(rows)[[0, -1]]
    c0, c1 = np.flatnonzero(cols)[[0, -1]]
    return Rect(int(r0), int(c0), int(r1 - r0 + 1), int(c1 - c0 + 1))
