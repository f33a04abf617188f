"""Operational matrices built directly from three-term recurrences.

All matrices use the column convention: a function u = sum_k a_k nu_k is the
column vector a, and an operation L maps a to L_nu a, where column j of L_nu
holds the nu-coefficients of L[nu_j].  The shift (multiplication by x) matrix
is tridiagonal straight from the recurrence; the derivative and integral
matrices follow from column recurrences in the same coefficients, so no
ill-conditioned change of basis is involved.  The monomial-basis matrices and
the similarity transform V Pi V^{-1} are provided for comparison; that
classic route degrades quickly with size, which is the point being made.

The derivative matrix eta is filled column by column: column j+1 follows
from columns j and j-1 through

    eta[i, j+1] = (alpha[i-1]*eta[i-1, j] + (beta[i]-beta[j])*eta[i, j]
                   + gamma[i+1]*eta[i+1, j] - gamma[j]*eta[i, j-1]) / alpha[j]
    eta[j, j+1] = (alpha[j-1]*eta[j-1, j] + 1) / alpha[j]

with eta[0, 1] = 1/alpha[0] and column 0 zero.  The integral matrix theta is
back substitution against eta: theta[j+1, j] = alpha[j]/(j+1), then for
i = j-1 .. 0

    theta[i+1, j] = -(alpha[i]/(i+1)) * sum_{k=i+2}^{j+1} eta[i, k]*theta[k, j].

Truncation never corrupts stored entries: integral and Volterra builds run
the underlying recurrences one index larger internally, so every returned
entry equals the corresponding entry of the infinite matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import RecurrenceBasis, eval_basis_derivs, recurrence_arrays
from .linalg import solve_upper_triangular

__all__ = [
    "OpMatrix",
    "shift_matrix",
    "derivative_matrix",
    "integral_matrix",
    "volterra_matrix",
    "power_matrices",
    "similarity_pi",
]


@dataclass(frozen=True)
class OpMatrix:
    """A finite section of an operational matrix.

    kind is one of shift, derivative, integral, volterra, power_shift,
    power_derivative, power_integral; size is the stored section size s
    (data has shape (s, s)); lower is the lower integration limit for the
    volterra kind and None otherwise.
    """

    kind: str
    size: int
    data: np.ndarray
    lower: float | None = None


def _check_size(s: int) -> None:
    if s < 1:
        raise ValueError(f"matrix size must be >= 1, got {s}")


def shift_matrix(basis: RecurrenceBasis, s: int) -> OpMatrix:
    """Tridiagonal matrix of multiplication by x: column j holds
    (gamma_j, beta_j, alpha_j) at rows j-1, j, j+1."""
    _check_size(s)
    alpha, beta, gamma = recurrence_arrays(basis, s)
    data = np.zeros((s, s))
    idx = np.arange(s)
    data[idx, idx] = beta
    data[idx[1:], idx[1:] - 1] = alpha[: s - 1]
    data[idx[1:] - 1, idx[1:]] = gamma[1:]
    return OpMatrix(kind="shift", size=s, data=data)


def _derivative_table(alpha, beta, gamma, s: int) -> np.ndarray:
    """The s x s derivative section by the column recurrence above."""
    eta = np.zeros((s, s))
    if s >= 2:
        eta[0, 1] = 1.0 / alpha[0]
    for j in range(1, s - 1):
        col = (beta[:j] - beta[j]) * eta[:j, j] + gamma[1 : j + 1] * eta[1 : j + 1, j]
        col -= gamma[j] * eta[:j, j - 1]
        col[1:] += alpha[: j - 1] * eta[: j - 1, j]
        eta[:j, j + 1] = col / alpha[j]
        eta[j, j + 1] = (alpha[j - 1] * eta[j - 1, j] + 1.0) / alpha[j]
    return eta


def derivative_matrix(basis: RecurrenceBasis, s: int) -> OpMatrix:
    """Strictly upper triangular matrix of d/dx: column j holds the
    nu-coefficients of nu_j'."""
    _check_size(s)
    alpha, beta, gamma = recurrence_arrays(basis, s + 1)
    return OpMatrix(kind="derivative", size=s, data=_derivative_table(alpha, beta, gamma, s))


def _integral_table_ext(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Antiderivative coefficients with one extra row, shape (s+1, s).

    The derivative section is built at size s+1 so the k = j+1 = s entries
    the last column's back substitution reads exist.
    """
    alpha, beta, gamma = recurrence_arrays(basis, s + 2)
    eta = _derivative_table(alpha, beta, gamma, s + 1)
    theta = np.zeros((s + 1, s))
    for j in range(s):
        theta[j + 1, j] = alpha[j] / (j + 1)
    for i in range(s - 2, -1, -1):
        acc = eta[i, i + 2 : s + 1] @ theta[i + 2 : s + 1, :]
        theta[i + 1, i + 1 :] = (-alpha[i] / (i + 1)) * acc[i + 1 :]
    return theta


def integral_matrix(basis: RecurrenceBasis, s: int) -> OpMatrix:
    """Matrix of antidifferentiation, with the free constant fixed by a zero
    nu_0-component: row 0 is identically zero."""
    if s < 2:
        raise ValueError(f"integral section needs size >= 2, got {s}")
    theta = _integral_table_ext(basis, s)
    return OpMatrix(kind="integral", size=s, data=np.ascontiguousarray(theta[:s]))


def volterra_matrix(basis: RecurrenceBasis, s: int, a: float) -> OpMatrix:
    """Matrix of u -> integral from a to x of u: the antiderivative matrix
    with row 0 replaced so every column vanishes at x = a."""
    if s < 2:
        raise ValueError(f"integral section needs size >= 2, got {s}")
    a = float(a)
    theta = _integral_table_ext(basis, s)
    nu_at_a = eval_basis_derivs(basis, s, a)[0]
    data = np.ascontiguousarray(theta[:s])
    data[0, :] = -(nu_at_a[1:] @ theta[1:])
    return OpMatrix(kind="volterra", size=s, data=data, lower=a)


def power_matrices(s: int) -> tuple[OpMatrix, OpMatrix, OpMatrix]:
    """Monomial-basis sections (H, M, Theta): derivative, shift,
    antiderivative with zero constant term."""
    _check_size(s)
    h = np.zeros((s, s))
    m = np.zeros((s, s))
    t = np.zeros((s, s))
    k = np.arange(s - 1)
    h[k, k + 1] = k + 1.0
    m[k + 1, k] = 1.0
    t[k + 1, k] = 1.0 / (k + 1.0)
    return (
        OpMatrix(kind="power_derivative", size=s, data=h),
        OpMatrix(kind="power_shift", size=s, data=m),
        OpMatrix(kind="power_integral", size=s, data=t),
    )


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
