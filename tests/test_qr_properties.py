"""Property test: the almost-banded QR solves A x = b and A^T x = b as
np.linalg.solve does, with factors no larger than the structure allows."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra.linalg import _BLOCK, qr_factor, qr_solve, qr_solve_transposed  # noqa: E402

EPS = np.finfo(np.float64).eps
FULL = -1  # a bandwidth that reaches the matrix's edge


def _backward_error(a, x, b):
    """Normwise backward error ||a x - b|| / (||a|| ||x|| + ||b||), inf-norms."""
    norm_a = np.max(np.sum(np.abs(a), axis=1))
    return np.max(np.abs(a @ x - b)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))


def _row_blocks(a, height):
    """a as (rows, values, cols) triples of height rows each, every block cut
    to the columns from its first to its last nonzero, as the Tau solve
    passes its system."""
    blocks = []
    for r0 in range(0, a.shape[0], height):
        nonzero = np.flatnonzero(a[r0 : r0 + height].any(axis=0))
        cols = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        blocks.append((slice(r0, min(r0 + height, a.shape[0])), a[r0 : r0 + height, cols], cols))
    return blocks


def _stored(factors):
    """Float entries the factors hold."""
    parts = [factors.dense]
    for blk in factors.blocks:
        parts += [blk.v, blk.y, blk.r, blk.fill, blk.r_inv]
    return sum(p.size for p in parts)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 200]),
    dense=st.integers(0, 3),
    lower=st.sampled_from([*range(7), FULL]),
    upper=st.sampled_from([*range(7), FULL]),
    height=st.sampled_from([1, 7, _BLOCK, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_almost_banded_qr_solves_like_lapack(n, dense, lower, upper, height, seed):
    # dense rows over a band; the shifted diagonal keeps every row nonzero
    # and the system away from numerical singularity
    rng = np.random.default_rng(seed)
    lo, up = (n if w == FULL else w for w in (lower, upper))
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    i, j = np.indices(a.shape)
    a[(i >= dense) & ((i - j > lo) | (j - i > up))] = 0.0
    b = rng.standard_normal(n)
    factors = qr_factor(_row_blocks(a, height), n)
    for system, solve in ((a, qr_solve), (a.T, qr_solve_transposed)):
        x, ref = solve(factors, b), np.linalg.solve(system, b)
        assert _backward_error(system, x, b) <= 100 * EPS
        cond = np.linalg.cond(system, np.inf)
        assert np.max(np.abs(x - ref)) <= 1000 * EPS * cond * np.max(np.abs(ref))
    # Per block of _BLOCK rows: Householder vectors and their T-scaled copy
    # on at most _BLOCK + lo rows, R's explicit part at most _BLOCK + lo + up
    # wide, its inverted diagonal block, and d entries of W and of C.
    if FULL not in (lower, upper):
        assert _stored(factors) <= 4 * n * (_BLOCK + lo + up + dense)
    assert _stored(factors) <= 2 * n * (n + 2 * _BLOCK)
