"""Operational matrices built directly from three-term recurrences.

All matrices use the column convention: a function u = sum_k a_k nu_k is the
column vector a, and an operation L maps a to L_nu a, where column j of L_nu
holds the nu-coefficients of L[nu_j].  The shift (multiplication by x) matrix
is tridiagonal straight from the recurrence; the derivative and integral
matrices follow from column recurrences in the same coefficients, so no
ill-conditioned change of basis is involved.  The similarity transform
V Pi V^{-1} is provided for comparison; that classic route degrades quickly
with size, which is the point being made.

The derivative matrix H = eta and its powers are filled column by column:
differentiating the recurrence d times gives, with H^0 = I and column 0 zero,

    H^d[i, j+1] = (alpha[i-1]*H^d[i-1, j] + (beta[i]-beta[j])*H^d[i, j]
                   + gamma[i+1]*H^d[i+1, j] - gamma[j]*H^d[i, j-1]
                   + d*H^(d-1)[i, j]) / alpha[j],

so one pass over the columns builds every power up to the highest order
asked for, without a matrix product.  The integral matrix theta is
back substitution against eta: theta[j+1, j] = alpha[j]/(j+1), then for
i = j-1 .. 0

    theta[i+1, j] = -(alpha[i]/(i+1)) * sum_{k=i+2}^{j+1} eta[i, k]*theta[k, j].

Truncation never corrupts stored entries: integral and Volterra builds run
the underlying recurrences one index larger internally, so every returned
entry equals the corresponding entry of the infinite matrix.
"""

from __future__ import annotations

import numpy as np

from .basis import RecurrenceBasis, eval_basis_derivs, recurrence_arrays
from .linalg import solve_upper_triangular

__all__ = [
    "shift_matrix",
    "derivative_matrix",
    "integral_matrix",
    "volterra_matrix",
    "similarity_pi",
]

# Largest dense section s x s any builder or solve allocates: 128 MiB per
# float64 copy.  Admits the Bessel figure (degree 2000, section 2003) and
# both error tables (degree 1000) with room to spare.
MAX_SECTION_SIZE = 4096


def _check_size(s: int, smallest: int = 1) -> None:
    if not smallest <= s <= MAX_SECTION_SIZE:
        raise ValueError(f"matrix size must be in {smallest}..{MAX_SECTION_SIZE}, got {s}")


def _shift_apply(alpha, beta, gamma, t: np.ndarray) -> np.ndarray:
    """Product M @ t using only the tridiagonal coefficients of M."""
    s = t.shape[0]
    out = beta[:s, None] * t
    out[1:] += alpha[: s - 1, None] * t[:-1]
    out[:-1] += gamma[1:s, None] * t[1:]
    return out


def shift_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Tridiagonal matrix of multiplication by x: column j holds
    (gamma_j, beta_j, alpha_j) at rows j-1, j, j+1."""
    _check_size(s)
    return _shift_apply(*recurrence_arrays(basis, s), np.eye(s))


def _derivative_table(alpha, beta, gamma, s: int, orders) -> dict[int, np.ndarray]:
    """{d: H^d} on an s-section for each requested order d >= 1.  Column d-1
    of t (w) holds column j (j-1) of H^d: O(r s) memory beyond the sections."""
    r = max(orders)
    powers = {d: np.zeros((s, s)) for d in orders}
    t, w = np.zeros((2, s, r))
    scale = np.arange(2.0, r + 1.0)
    for j in range(s - 1):
        col = (beta[: j + 1, None] - beta[j]) * t[: j + 1] + gamma[1 : j + 2, None] * t[1 : j + 2]
        col -= gamma[j] * w[: j + 1]
        col[1:] += alpha[:j, None] * t[:j]
        col[j, 0] += 1.0  # d-term of H^1: column j of H^0 = I is e_j
        if r > 1:
            col[:, 1:] += scale * t[: j + 1, :-1]
        w, t = t, w
        np.divide(col, alpha[j], out=t[: j + 1])
        for d in orders:
            powers[d][: j + 1, j + 1] = t[: j + 1, d - 1]
    return powers


def derivative_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Strictly upper triangular matrix of d/dx: column j holds the
    nu-coefficients of nu_j'."""
    _check_size(s)
    return _derivative_table(*recurrence_arrays(basis, s + 1), s, (1,))[1]


def _integral_table_ext(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Antiderivative coefficients with one extra row, shape (s+1, s).

    The derivative section is built at size s+1 so the k = j+1 = s entries
    the last column's back substitution reads exist.
    """
    alpha, beta, gamma = recurrence_arrays(basis, s + 2)
    eta = _derivative_table(alpha, beta, gamma, s + 1, (1,))[1]
    theta = np.zeros((s + 1, s))
    for j in range(s):
        theta[j + 1, j] = alpha[j] / (j + 1)
    for i in range(s - 2, -1, -1):
        acc = eta[i, i + 2 : s + 1] @ theta[i + 2 : s + 1, :]
        theta[i + 1, i + 1 :] = (-alpha[i] / (i + 1)) * acc[i + 1 :]
    return theta


def integral_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Matrix of antidifferentiation, with the free constant fixed by a zero
    nu_0-component: row 0 is identically zero."""
    _check_size(s, 2)
    return np.ascontiguousarray(_integral_table_ext(basis, s)[:s])


def volterra_matrix(basis: RecurrenceBasis, s: int, a: float) -> np.ndarray:
    """Matrix of u -> integral from a to x of u: the antiderivative matrix
    with row 0 replaced so every column vanishes at x = a."""
    _check_size(s, 2)
    theta = _integral_table_ext(basis, s)
    nu_at_a = eval_basis_derivs(basis, s, float(a))[0]
    mat = np.ascontiguousarray(theta[:s])
    mat[0, :] = -(nu_at_a[1:] @ theta[1:])
    return mat


def similarity_pi(v: np.ndarray, pi_power: np.ndarray) -> np.ndarray:
    """Classic change-of-basis route: map a monomial-basis operator section
    into the nu basis as V^{-T} Pi_power V^T via one triangular solve.

    Kept as the comparison path; cond(V) grows so fast with size that this
    route loses all accuracy where the recurrence-built matrices do not.
    """
    v = np.asarray(v, dtype=np.float64)
    pi_power = np.asarray(pi_power, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"V must be square, got shape {v.shape}")
    if pi_power.shape != v.shape:
        raise ValueError(
            f"operator section {pi_power.shape} does not match V {v.shape}"
        )
    return solve_upper_triangular(v.T, pi_power @ v.T)
