"""Theta's three diagonals: against a 50-digit reference built from H's
superdiagonals, and as a solution of theta M - M theta + theta^2 = 0, the
coefficient form of int x u = x int u - int int u."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra.basis import jacobi, laguerre, monomial, recurrence_arrays  # noqa: E402
from tau_spectra.opmatrix import integral_matrix, shift_matrix  # noqa: E402

mpmath = pytest.importorskip("mpmath")

# jacobi(-0.3, -0.7) has alpha + beta = -1, where the generic j = 0
# coefficients are 0/0.
REFERENCE_BASES = [
    jacobi(0.0, 0.0),
    jacobi(-0.5, -0.5),
    jacobi(1.0, -0.9),
    jacobi(10.0, 0.0),
    laguerre(),
    monomial(),
    jacobi(-0.9, -0.9),
    jacobi(0.5, 0.5),
    jacobi(-0.3, -0.7),
]
REFERENCE_IDS = [b.label() if b.family != "custom" else "monomial" for b in REFERENCE_BASES]


def _mp_theta_diagonals(basis, s):
    """Theta's diagonals at offsets -1, 0, 1 on an s-section at 50 digits,
    over the float64 recurrence coefficients, by way of eta @ theta = I.

    Superdiagonal d of H, h_d[i] = H[i, i+d], follows from the column
    recurrence of H with j = i+d-1:
        h_d[i] = (alpha_{i-1} h_d[i-1] + (beta_i - beta_j) h_{d-1}[i]
                  + gamma_{i+1} h_{d-2}[i+1] - gamma_j h_{d-2}[i] + [d = 1]) / alpha_j,
    with h_0 = h_{-1} = 0.  Rows j-1 and j-2 of column j of eta @ theta = I
    then give theta[j, j] = -theta[j+1, j] h_2[j-1] / h_1[j-1] and
    theta[j-1, j] = -(theta[j+1, j] h_3[j-2] + theta[j, j] h_2[j-2]) / h_1[j-2].
    """
    with mpmath.workdps(50):
        al, be, ga = ([mpmath.mpf(v) for v in arr.tolist()] for arr in recurrence_arrays(basis, s))
        h1, h2, h3 = [], [], []
        for i in range(s - 1):
            h1.append(((al[i - 1] * h1[i - 1] if i else 0) + 1) / al[i])
        for i in range(s - 1):
            prev = al[i - 1] * h2[i - 1] if i else 0
            h2.append((prev + (be[i] - be[i + 1]) * h1[i]) / al[i + 1])
        for i in range(s - 2):
            prev = al[i - 1] * h3[i - 1] if i else 0
            h3.append((prev + (be[i] - be[i + 2]) * h2[i] + ga[i + 1] * h1[i + 1] - ga[i + 2] * h1[i]) / al[i + 2])
        sub = [al[j] / (j + 1) for j in range(s)]
        diag = [mpmath.mpf(0)] + [-sub[j] * h2[j - 1] / h1[j - 1] for j in range(1, s)]
        sup = [mpmath.mpf(0)] + [-(sub[j] * h3[j - 2] + diag[j] * h2[j - 2]) / h1[j - 2] for j in range(2, s)]
        return [np.array([float(v) for v in d]) for d in (sub[:-1], diag, sup)]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 300, 1004, 1005])
@pytest.mark.parametrize("basis", REFERENCE_BASES, ids=REFERENCE_IDS)
def test_theta_diagonals_match_mpmath_reference(basis, s):
    theta = integral_matrix(basis, s)
    for k, ref in zip((-1, 0, 1), _mp_theta_diagonals(basis, s)):
        got = np.diagonal(theta, k)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), k


@st.composite
def classical_bases(draw):
    if draw(st.booleans()):
        return laguerre()
    parameter = st.floats(-1.0, 12.0, exclude_min=True)
    return jacobi(draw(parameter), draw(parameter))


@settings(max_examples=60, deadline=None)
@given(classical_bases(), st.integers(3, 300))
def test_theta_solves_the_integration_by_parts_identity(basis, s):
    # Theta's diagonal and superdiagonal are built from offsets -1 and 0 of
    # the identity; offsets +1 and +2 hold only if theta really is
    # tridiagonal below row 0.  Rows and columns s-1 miss terms past the
    # section.
    theta, m = integral_matrix(basis, s), shift_matrix(basis, s)
    residual = theta @ m - m @ theta + theta @ theta
    scale = np.max(np.abs(theta) @ np.abs(m) + np.abs(m) @ np.abs(theta) + np.abs(theta) @ np.abs(theta))
    rows, cols = np.indices((s - 1, s - 1))
    band = (rows >= 1) & (np.abs(cols - rows) <= 2)
    assert np.max(np.abs(residual[: s - 1, : s - 1][band])) <= 1e-13 * scale
