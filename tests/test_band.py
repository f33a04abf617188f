"""The band format of the term matrices: any rectangle of a band equals the
same rectangle of its full matrix, built entry by entry."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra.opmatrix import _Band  # noqa: E402

# Distinct nonzero values, so an entry placed in the wrong cell shows.
VALUES = st.integers(1, 999).map(float)


@st.composite
def bands(draw):
    """A square band of size s: diagonals at consecutive offsets from a
    random low, with or without dense leading rows, or no diagonals and
    every row dense."""
    s = draw(st.integers(1, 12))

    def rows(count):
        return np.array(draw(st.lists(st.lists(VALUES, min_size=s, max_size=s), min_size=count, max_size=count)))

    if draw(st.booleans()):
        return _Band([], draw(st.integers(-1, 3)), rows(s)), s
    low = draw(st.integers(1 - s, s - 1))
    offsets = range(low, low + draw(st.integers(1, s - low)))
    diags = [np.array(draw(st.lists(VALUES, min_size=s - abs(o), max_size=s - abs(o)))) for o in offsets]
    lead = rows(draw(st.integers(1, s))) if draw(st.booleans()) else None
    return _Band(diags, low, lead), s


def _full(band, s):
    """The band's s x s matrix: diagonal o holds entry k at (k, k + o) for
    o >= 0 and at (k - o, k) below, and the dense rows replace the first
    rows."""
    full = np.zeros((s, s))
    for o, d in enumerate(band.diags, band.low):
        for k, value in enumerate(d):
            i, j = (k, k + o) if o >= 0 else (k - o, k)
            full[i, j] = value
    if band.lead is not None:
        for i, row in enumerate(band.lead):
            full[i] = row
    return full


@settings(max_examples=300, deadline=None)
@given(bands(), st.data())
def test_block_equals_the_rectangle_of_the_full_matrix(drawn, data):
    band, s = drawn
    r0, r = sorted(data.draw(st.lists(st.integers(0, s), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, s), min_size=2, max_size=2)))
    blk = band.block(r0, r, c0, c1)
    assert blk.shape == (r - r0, c1 - c0)
    assert np.array_equal(blk, _full(band, s)[r0:r, c0:c1])
