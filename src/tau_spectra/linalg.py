"""Dense linear algebra for column-convention coefficient systems.

LU with partial pivoting (recording pivots and a growth-factor estimate),
substitution for A x = b and A^T x = b from the same factors, back
substitution, and a Hager-style 1-norm condition estimate.

The factors are packed in place: after step k, row k holds U to the right of
the diagonal and column k holds the multipliers of L below it, so P A = L U
with the unit diagonal of L implied.  Substitution walks the same packed
array: forward with L then backward with U for A x = b, and forward with U^T
then backward with L^T (undoing the row swaps last) for A^T x = b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMatrixError",
    "LUFactors",
    "lu_factor",
    "lu_solve_factored",
    "lu_solve_transposed",
    "lu_solve",
    "solve_upper_triangular",
    "cond_estimate_1",
    "cond_estimate_factored",
]


class SingularMatrixError(ArithmeticError):
    """Factorization met a column whose pivot candidates are all exactly zero."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular: zero pivot column at index {pivot_index}")
        self.pivot_index = pivot_index


@dataclass
class LUFactors:
    """Packed LU of a row permutation of A: P A = L U.

    lu holds L strictly below the diagonal (unit diagonal implied) and U on
    and above it; piv[k] is the row swapped into position k; growth is
    max|U| / max|A|, the standard element-growth measure.
    """

    lu: np.ndarray
    piv: np.ndarray
    growth: float

    @property
    def size(self) -> int:
        return self.lu.shape[0]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def lu_factor(a) -> LUFactors:
    """Factor a copy of a; raises SingularMatrixError on an exactly zero pivot."""
    a = _as_square(a)
    work = np.array(a, dtype=np.float64, order="C", copy=True)
    maxa = float(np.max(np.abs(work)))
    n = work.shape[0]
    piv = np.zeros(n, dtype=np.int64)
    for k in range(n):
        p = k + int(np.argmax(np.abs(work[k:, k])))
        piv[k] = p
        if work[p, k] == 0.0:
            raise SingularMatrixError(k)
        if p != k:
            work[[k, p]] = work[[p, k]]
        work[k + 1 :, k] /= work[k, k]
        if k + 1 < n:
            work[k + 1 :, k + 1 :] -= np.outer(work[k + 1 :, k], work[k, k + 1 :])
    maxu = float(np.max(np.abs(np.triu(work))))
    growth = maxu / maxa if maxa > 0.0 else 1.0
    return LUFactors(lu=work, piv=piv, growth=growth)


def lu_solve_factored(factors: LUFactors, b) -> np.ndarray:
    """Solve A x = b given factors of A."""
    x = np.array(b, dtype=np.float64, copy=True)
    if x.shape != (factors.size,):
        raise ValueError(f"rhs shape {x.shape} does not match size {factors.size}")
    lu, n = factors.lu, factors.size
    for k in range(n):
        p = factors.piv[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def lu_solve_transposed(factors: LUFactors, b) -> np.ndarray:
    """Solve A^T x = b from the factors of A (no refactorization)."""
    x = np.array(b, dtype=np.float64, copy=True)
    if x.shape != (factors.size,):
        raise ValueError(f"rhs shape {x.shape} does not match size {factors.size}")
    lu, n = factors.lu, factors.size
    for i in range(n):
        x[i] = (x[i] - lu[:i, i] @ x[:i]) / lu[i, i]
    for i in range(n - 2, -1, -1):
        x[i] -= lu[i + 1 :, i] @ x[i + 1 :]
    for k in range(n - 1, -1, -1):
        p = factors.piv[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
    return x


def lu_solve(a, b) -> np.ndarray:
    """Factor a and solve a single system A x = b."""
    return lu_solve_factored(lu_factor(a), b)


def solve_upper_triangular(u, b) -> np.ndarray:
    """Back substitution; b may be a vector or a matrix of columns."""
    u = _as_square(u)
    x = np.array(b, dtype=np.float64, copy=True)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    if x.shape[0] != u.shape[0]:
        raise ValueError("dimension mismatch in triangular solve")
    for i in range(u.shape[0] - 1, -1, -1):
        if i < u.shape[0] - 1:
            x[i] -= u[i, i + 1 :] @ x[i + 1 :]
        d = u[i, i]
        if d == 0.0:
            raise SingularMatrixError(i)
        x[i] /= d
    return x[:, 0] if vec else x


def _invnorm_estimate_1(factors: LUFactors) -> float:
    """Hager's lower-bound iteration for ||A^{-1}||_1 using the factors."""
    n = factors.size
    x = np.full(n, 1.0 / n)
    est = 0.0
    prev_sign = np.zeros(n)
    for _ in range(5):
        y = lu_solve_factored(factors, x)
        est = float(np.sum(np.abs(y)))
        sign = np.where(y >= 0.0, 1.0, -1.0)
        if np.array_equal(sign, prev_sign):
            break
        prev_sign = sign
        z = lu_solve_transposed(factors, sign)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    # Extra probe with an alternating, graded vector; guards against the
    # iteration stalling on unlucky starting points.
    if n > 1:
        v = np.array([(-1.0) ** i * (1.0 + i / (n - 1.0)) for i in range(n)])
        y = lu_solve_factored(factors, v)
        est = max(est, 2.0 * float(np.sum(np.abs(y))) / (3.0 * n))
    return est


def cond_estimate_factored(factors: LUFactors, norm1: float) -> float:
    """Condition estimate from existing factors and the 1-norm of the matrix."""
    est = _invnorm_estimate_1(factors) * norm1
    if not np.isfinite(est):
        return float("inf")
    return est


def cond_estimate_1(a) -> float:
    """Estimate of the 1-norm condition number; +inf for a singular matrix."""
    a = _as_square(a)
    norm1 = float(np.max(np.sum(np.abs(a), axis=0)))
    try:
        factors = lu_factor(a)
    except SingularMatrixError:
        return float("inf")
    return cond_estimate_factored(factors, norm1)
