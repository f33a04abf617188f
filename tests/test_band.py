"""The band format every matrix takes from the term matrices to the QR, and
the Horner chain over it: any rectangle of a band, its row spans, max|A|
and column sums of |A| (the 1-norm's), its product with a vector, its
product with the shift and its sum with a multiple of another band equal
the same operations on its full matrix, built entry by entry, and check
refuses a band whose dense rows break the format."""

import contextlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra import linalg  # noqa: E402
from tau_spectra.linalg import Section, _shift_apply  # noqa: E402

# Distinct nonzero values, so an entry placed in the wrong cell shows; their
# sums and products round, so a sum taken in another order shows too.
VALUES = st.floats(-9.0, 9.0, allow_nan=False).filter(lambda v: v != 0.0)


@st.composite
def bands(draw, rows, cols=None):
    """A band of rows x cols (square unless cols is given): low from -2 to
    3, no or up to four diagonals, and no, some or every row dense, each
    dense row i zero left of column i + low and each diagonal zero outside
    the columns, as the format requires.  The diagonals' entries in the
    dense rows are drawn too: the format reads past them."""
    cols = rows if cols is None else cols
    low = draw(st.integers(-2, 3))
    width = draw(st.integers(0, 4))
    n_lead = draw(st.sampled_from([0, rows, draw(st.integers(0, rows))]))

    def values(shape):
        return np.array(draw(st.lists(VALUES, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))).reshape(
            shape
        )

    i = np.arange(rows)
    j = i + low + np.arange(width)[:, None]
    diags = np.where((j >= 0) & (j < cols), values((width, rows)), 0.0)
    lead = np.where(np.arange(cols) >= i[:n_lead, None] + low, values((n_lead, cols)), 0.0)
    return Section(diags, low, lead)


def _full(band):
    """The band's matrix: diagonal q holds row i's entry at column
    i + low + q, and the dense rows replace the first rows."""
    rows, cols = band.shape
    full = np.zeros((rows, cols))
    for q, d in enumerate(band.diags):
        for i, value in enumerate(d):
            if 0 <= i + band.low + q < cols:
                full[i, i + band.low + q] = value
    for i, row in enumerate(band.lead):
        full[i] = row
    return full


def _holds_format(band):
    """Every row zero left of column i + low, as the band's methods read."""
    full = _full(band)
    i, j = np.indices(full.shape)
    return not np.any(full[j < i + band.low])


SIZES = st.integers(1, 12)
# rows >= cols, as a section has
RECTANGULAR = SIZES.flatmap(lambda rows: st.integers(1, rows).flatmap(lambda cols: bands(rows, cols)))
HEIGHTS = st.sampled_from([1, 2, 5, linalg._BLOCK])


@contextlib.contextmanager
def _strips_of(height):
    """Strips of height rows in place of linalg._BLOCK: small heights put
    strip edges inside these small matrices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_BLOCK", height)
        yield


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR, st.data())
def test_block_equals_the_rectangle_of_the_full_matrix(band, data):
    rows, cols = band.shape
    r0, r = sorted(data.draw(st.lists(st.integers(0, rows), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, cols), min_size=2, max_size=2)))
    blk = band.block(r0, r, c0, c1)
    assert blk.shape == (r - r0, c1 - c0)
    assert np.array_equal(blk, _full(band)[r0:r, c0:c1])


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR, st.integers(2, 5), HEIGHTS)
def test_spans_are_the_first_and_last_nonzero_columns(band, step, height):
    # zeros inside the stored extents too, so the spans must read values
    band.diags.flat[::step] = 0.0
    band.lead.flat[1::step] = 0.0
    full = _full(band)
    rows, cols = full.shape
    with _strips_of(height):
        first, last, amax, _ = band.scan()
    for i in range(rows):
        nonzero = np.flatnonzero(full[i])
        assert (first[i], last[i]) == ((nonzero[0], nonzero[-1]) if nonzero.size else (cols, -1))
    assert amax == np.max(np.abs(full))


# Long double sums are numpy's own loop, in column order: the banded
# product, which leaves the zeros out, equals the full one bit for bit.
@settings(max_examples=300, deadline=None)
@given(
    RECTANGULAR.flatmap(lambda band: st.tuples(st.just(band), st.lists(VALUES, min_size=band.shape[1], max_size=band.shape[1]))),
    HEIGHTS,
)
def test_dot_equals_the_full_product_bitwise_in_long_double(drawn, height):
    band, x = drawn
    x = np.array(x, dtype=np.longdouble) / 3  # digits past float64's
    with _strips_of(height):
        product = band.dot(x)
    full = _full(band).astype(np.longdouble) @ x
    assert product.dtype == np.longdouble
    assert np.array_equal(product, full)
    assert np.array_equal(np.signbit(product), np.signbit(full))


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR, HEIGHTS)
def test_norm1_sums_each_column_in_row_order_however_rows_are_held(band, height):
    band = Section(band.diags / 3, band.low, band.lead / 3)  # sums that round
    full = _full(band)
    expected = np.add.reduce(np.abs(full), axis=0)
    with _strips_of(height):
        for section in (band, Section.from_dense(full)):
            _, _, amax, sums = section.scan()
            assert np.array_equal(sums, expected)
            assert amax == np.max(np.abs(full))


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR, HEIGHTS, st.data())
def test_check_refuses_a_dense_row_nonzero_left_of_its_row_plus_low(band, height, data):
    with _strips_of(height):
        band.check()
        outside = [(i, j) for i in range(len(band.lead)) for j in range(min(i + band.low, band.shape[1]))]
        if outside:
            i, j = data.draw(st.sampled_from(outside))
            band.lead[i, j] = data.draw(VALUES)
            with pytest.raises(ValueError, match="nonzero left of column i \\+ low"):
                band.check()


@settings(max_examples=300, deadline=None)
@given(RECTANGULAR)
def test_from_dense_round_trips(band):
    full = _full(band)
    assert np.array_equal(band.to_dense(), full)
    dense = Section.from_dense(full)
    assert dense.shape == full.shape
    assert np.array_equal(dense.to_dense(), full)
    assert dense.to_dense() is not full


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
