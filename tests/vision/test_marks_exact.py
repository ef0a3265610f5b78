"""Exactness pins for connected-component labelling and mark extraction.

``label`` must equal the flood-fill oracle label for label, numbering
included, and ``extract_marks`` must return exactly the marks the
straightforward construction gives: flood-fill masks, then ``centroid``
and ``bounding_rect`` per mask, then ``translated(origin)``.  Equality
is ``==`` on floats, not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import Image, bounding_rect, extract_marks, label, label_flood
from repro.vision.features import Mark, centroid
from repro.vision.ops import otsu_threshold, threshold

SIDE = 40


@st.composite
def shapes(draw):
    """Single rows, single columns and rectangles up to SIDE x SIDE."""
    n = draw(st.integers(1, SIDE))
    kind = draw(st.sampled_from(["row", "col", "rect"]))
    if kind == "row":
        return (1, n)
    if kind == "col":
        return (n, 1)
    return (n, draw(st.integers(1, SIDE)))


@st.composite
def gray_windows(draw):
    """Bright speckle on a dim background, so both sides of 128 occur."""
    shape = draw(shapes())
    density = draw(st.floats(0.05, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bright = rng.integers(100, 256, shape)
    dim = rng.integers(0, 100, shape)
    return Image(np.where(rng.random(shape) < density, bright, dim).astype(np.uint8))


def reference_marks(window, *, level, min_pixels, connectivity, origin):
    """Marks built the long way: one flood-fill mask per component."""
    if window.nrows == 0 or window.ncols == 0:
        return []
    lvl = otsu_threshold(window) if level is None else level
    labels, count = label_flood(threshold(window, lvl), connectivity)
    marks = []
    for k in range(1, count + 1):
        mask = labels == k
        pixels = int(mask.sum())
        if pixels >= min_pixels:
            marks.append(
                Mark(centroid(mask), bounding_rect(mask), pixels).translated(*origin)
            )
    return marks


connectivities = st.sampled_from([4, 8])
origins = st.tuples(st.integers(0, 500), st.integers(0, 500))


class TestLabelEqualsOracle:
    @given(gray_windows(), connectivities)
    @settings(max_examples=150, deadline=None)
    def test_label_array_and_numbering(self, window, connectivity):
        im = threshold(window, 128)
        labels, count = label(im, connectivity)
        oracle, oracle_count = label_flood(im, connectivity)
        assert labels.dtype == np.int32
        assert count == oracle_count
        assert np.array_equal(labels, oracle)


class TestExtractMarksEqualsReference:
    @given(
        gray_windows(),
        st.sampled_from([None, 0, 128, 200]),
        st.sampled_from([1, 2, 5]),
        connectivities,
        origins,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_marks(self, window, level, min_pixels, connectivity, origin):
        kw = dict(level=level, min_pixels=min_pixels,
                  connectivity=connectivity, origin=origin)
        assert extract_marks(window, **kw) == reference_marks(window, **kw)

    @pytest.mark.parametrize("value", [0, 255])
    @pytest.mark.parametrize("level", [None, 0, 128, 255])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_uniform_windows(self, value, level, connectivity):
        window = Image(np.full((7, 9), value, dtype=np.uint8))
        kw = dict(level=level, min_pixels=1,
                  connectivity=connectivity, origin=(3, 5))
        assert extract_marks(window, **kw) == reference_marks(window, **kw)


class TestExtractMarksConnectivity:
    @given(gray_windows())
    @settings(max_examples=25, deadline=None)
    def test_invalid_connectivity_raises(self, window):
        with pytest.raises(ValueError):
            extract_marks(window, connectivity=6)
