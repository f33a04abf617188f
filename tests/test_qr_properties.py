"""Property test: the almost-banded QR solves A x = b and A^T x = b as
np.linalg.solve does, with factors no larger than the structure allows."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra.linalg import _BLOCK, Section, qr_factor, qr_solve, qr_solve_transposed  # noqa: E402

EPS = np.finfo(np.float64).eps
FULL = -1  # a bandwidth that reaches the matrix's edge


def _backward_error(a, x, b):
    """Normwise backward error ||a x - b|| / (||a|| ||x|| + ||b||), inf-norms."""
    norm_a = np.max(np.sum(np.abs(a), axis=1))
    return np.max(np.abs(a @ x - b)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))


def _band(a, dense, lower, upper):
    """a as a band: its first dense rows held dense, over its diagonals from
    lower below to upper above the main one, as the Tau solve passes its
    system."""
    n = a.shape[0]
    i = np.arange(n)
    j = i - lower + np.arange(lower + upper + 1)[:, None]
    diags = np.where((j >= 0) & (j < n), a[i, np.clip(j, 0, n - 1)], 0.0)
    return Section(diags, -lower, a[:dense])


def _stored(factors):
    """Float entries the factors hold."""
    parts = [factors.dense]
    for blk in factors.blocks:
        parts += [blk.q, blk.r, blk.fill, blk.r_inv]
    return sum(p.size for p in parts)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 63, 64, 65, 200]),
    dense=st.integers(0, 3),
    lower=st.sampled_from([*range(7), FULL]),
    upper=st.sampled_from([*range(7), FULL]),
    banded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_almost_banded_qr_solves_like_lapack(n, dense, lower, upper, banded, seed):
    # dense rows over a band; the shifted diagonal keeps every row nonzero
    # and the system away from numerical singularity
    rng = np.random.default_rng(seed)
    lo, up = (n if w == FULL else w for w in (lower, upper))
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    i, j = np.indices(a.shape)
    a[(i >= dense) & ((i - j > lo) | (j - i > up))] = 0.0
    b = rng.standard_normal(n)
    factors = qr_factor(_band(a, dense, lo, up) if banded else Section.from_dense(a))
    for system, solve in ((a, qr_solve), (a.T, qr_solve_transposed)):
        x, ref = solve(factors, b), np.linalg.solve(system, b)
        assert _backward_error(system, x, b) <= 100 * EPS
        cond = np.linalg.cond(system, np.inf)
        assert np.max(np.abs(x - ref)) <= 1000 * EPS * cond * np.max(np.abs(ref))
    # Per block of _BLOCK rows: the orthogonal factor, square on at most
    # _BLOCK + lo rows, R's explicit part at most _BLOCK + lo + up wide, its
    # inverted diagonal block, and d entries of W and of C.
    if FULL not in (lower, upper):
        assert _stored(factors) <= 4 * n * (_BLOCK + lo + up + dense)
    assert _stored(factors) <= 2 * n * (n + 2 * _BLOCK)
