"""The band format of the term matrices and of the Horner chain over them:
any rectangle of a band, its product with the shift and its sum with a
multiple of another band equal the same operations on its full matrix,
built entry by entry."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra.opmatrix import _Band, _shift_apply  # noqa: E402

# Distinct nonzero values, so an entry placed in the wrong cell shows; their
# sums and products round, so a sum taken in another order shows too.
VALUES = st.floats(-9.0, 9.0, allow_nan=False).filter(lambda v: v != 0.0)


@st.composite
def bands(draw, s):
    """A band of size s: low from -2 to 3, no or up to four diagonals, and
    no, some or every row dense, each dense row i zero left of column
    i + low as the format requires."""
    low = draw(st.integers(-2, 3))
    width = draw(st.integers(0, 4))
    n_lead = draw(st.sampled_from([0, s, draw(st.integers(0, s))]))

    def values(shape):
        return np.array(draw(st.lists(VALUES, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))).reshape(
            shape
        )

    i = np.arange(s)
    cols = i + low + np.arange(width)[:, None]
    diags = np.where((cols >= 0) & (cols < s), values((width, s)), 0.0)
    lead = np.where(i >= i[:n_lead, None] + low, values((n_lead, s)), 0.0)
    return _Band(diags, low, lead)


def _full(band):
    """The band's s x s matrix: diagonal q holds row i's entry at column
    i + low + q, and the dense rows replace the first rows."""
    s = band.diags.shape[1]
    full = np.zeros((s, s))
    for q, d in enumerate(band.diags):
        for i, value in enumerate(d):
            if 0 <= i + band.low + q < s:
                full[i, i + band.low + q] = value
    for i, row in enumerate(band.lead):
        full[i] = row
    return full


def _holds_format(band):
    """Every row zero left of column i + low, as the section's blocks read."""
    full = _full(band)
    i, j = np.indices(full.shape)
    return not np.any(full[j < i + band.low])


SIZES = st.integers(1, 12)


@settings(max_examples=300, deadline=None)
@given(SIZES.flatmap(lambda s: st.tuples(bands(s), st.data())))
def test_block_equals_the_rectangle_of_the_full_matrix(drawn):
    band, data = drawn
    s = band.diags.shape[1]
    r0, r = sorted(data.draw(st.lists(st.integers(0, s), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, s), min_size=2, max_size=2)))
    blk = band.block(r0, r, c0, c1)
    assert blk.shape == (r - r0, c1 - c0)
    assert np.array_equal(blk, _full(band)[r0:r, c0:c1])


# Exact equality: each entry is the same sum of the same products, in the
# same order, as the full product's (array_equal counts -0.0 equal to 0.0).
@settings(max_examples=300, deadline=None)
@given(SIZES.flatmap(lambda s: st.tuples(bands(s), st.lists(VALUES, min_size=3 * s + 3, max_size=3 * s + 3))))
def test_shifted_equals_shift_apply_of_the_full_matrix(drawn):
    band, coeffs = drawn
    s = band.diags.shape[1]
    alpha, beta, gamma = np.array(coeffs).reshape(3, s + 1)
    full = _full(band)
    shifted = band.shifted(alpha, beta, gamma)
    assert np.array_equal(_full(shifted), _shift_apply(alpha, beta, gamma, full))
    assert shifted.lead.shape[0] == min(band.lead.shape[0] + (band.lead.shape[0] > 0), s)
    assert _holds_format(shifted)
    assert np.array_equal(_full(band), full)


@settings(max_examples=300, deadline=None)
@given(SIZES.flatmap(lambda s: st.tuples(bands(s), bands(s), VALUES)))
def test_plus_equals_full_plus_c_times_full_other(drawn):
    band, other, c = drawn
    full, full_other = _full(band), _full(other)
    total = band.plus(c, other)
    assert np.array_equal(_full(total), full + c * full_other)
    assert _holds_format(total)
    assert np.array_equal(_full(other), full_other)  # B is only read
