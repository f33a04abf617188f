"""Dense linear algebra for column-convention coefficient systems.

LU with partial pivoting (recording pivots and a growth-factor estimate),
substitution for A x = b and A^T x = b from the same factors, back
substitution, and a Hager-style 1-norm condition estimate.

The factors are packed in place: after step k, row k holds U to the right of
the diagonal and column k holds the multipliers of L below it, so P A = L U
with the unit diagonal of L implied.  Substitution walks the same packed
array: forward with L then backward with U for A x = b, and forward with U^T
then backward with L^T (undoing the row swaps last) for A^T x = b.

These four triangular solves run one blocked kernel (Golub & Van Loan,
Matrix Computations, section 3.1): per block of _BLOCK rows, one BLAS GEMV
subtracts the part of the solution already known, and np.linalg.solve
solves the diagonal block, so a few dozen Python steps replace n of them.
Every diagonal block goes to LAPACK upper triangular (a lower one with its
rows and columns reversed).  Each column of such a block is zero below the
diagonal, so getrf takes the diagonal entry as the pivot, forms zero
multipliers and leaves the block as its own U; getrs then solves with an
identity L and runs plain back substitution with that U.

solve_upper_triangular keeps its per-row loop.  It serves the integral
matrices of custom bases and the change-of-basis comparison route, whose
low-degree agreement test sits within roundoff of its bound, so it keeps
its exact rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingularMatrixError",
    "LUFactors",
    "lu_factor",
    "lu_solve_factored",
    "lu_solve_transposed",
    "solve_upper_triangular",
    "cond_estimate_1",
    "cond_estimate_factored",
]


class SingularMatrixError(ArithmeticError):
    """Factorization met a column whose pivot candidates are all exactly zero."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular: zero pivot column at index {pivot_index}")
        self.pivot_index = pivot_index


_BLOCK = 64  # rows per diagonal block of the substitutions, and per max|U| block


@dataclass
class LUFactors:
    """Packed LU of a row permutation of A: P A = L U.

    lu holds L strictly below the diagonal (unit diagonal implied) and U on
    and above it; piv[k] is the row swapped into position k; growth is
    max|U| / max|A|, the standard element-growth measure.  The permutation
    as one index array and the diagonal blocks of L and U, which every
    substitution reuses, are derived once here.
    """

    lu: np.ndarray
    piv: np.ndarray
    growth: float
    perm: np.ndarray = field(init=False, repr=False)
    lower_blocks: list = field(init=False, repr=False)
    upper_blocks: list = field(init=False, repr=False)

    def __post_init__(self):
        n = self.lu.shape[0]
        perm = list(range(n))
        for k, p in enumerate(self.piv.tolist()):
            perm[k], perm[p] = perm[p], perm[k]
        self.perm = np.array(perm, dtype=np.int64)
        diag = [self.lu[k : k + _BLOCK, k : k + _BLOCK] for k in range(0, n, _BLOCK)]
        self.lower_blocks = [np.tril(d, -1) + np.eye(d.shape[0]) for d in diag]
        self.upper_blocks = [np.triu(d) for d in diag]

    @property
    def size(self) -> int:
        return self.lu.shape[0]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def lu_factor(a, overwrite: bool = False) -> LUFactors:
    """Factor a copy of a, or with overwrite=True a itself (a writeable
    C-ordered float64 array); raises SingularMatrixError on an exactly zero
    pivot."""
    work = _as_square(a)
    if not overwrite:
        work = np.array(work, order="C")
    elif not (work is a and work.flags.c_contiguous and work.flags.writeable):
        raise ValueError("overwrite=True needs a writeable C-ordered float64 array")
    maxa = float(np.maximum(work.max(), -work.min()))  # max|A|, no n x n temporary
    n = work.shape[0]
    # Row i is zero left of column first[i], so column j is zero from row
    # reach[j] down, reach[j] one past the last row with first <= j; row
    # swaps and updates stay above reach, so the envelope holds throughout.
    first = np.empty(n, dtype=np.int64)
    for i in range(0, n, _BLOCK):
        nonzero = work[i : i + _BLOCK] != 0.0
        first[i : i + _BLOCK] = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), n)
    reach = np.searchsorted(np.minimum.accumulate(first[::-1])[::-1], np.arange(n), "right")
    piv = np.zeros(n, dtype=np.int64)
    for k in range(n):
        end = max(int(reach[k]), k + 1)
        p = k + int(np.argmax(np.abs(work[k:end, k])))
        piv[k] = p
        if work[p, k] == 0.0:
            raise SingularMatrixError(k)
        if p != k:
            work[[k, p]] = work[[p, k]]
        work[k + 1 :, k] /= work[k, k]  # below reach too: zeros keep the pivot's sign
        # A zero multiplier leaves its row unchanged, so the update stops at
        # the last nonzero one: below the band of a Tau matrix (m_c + h rows
        # under the diagonal) it would rewrite the trailing block for nothing.
        nonzero = np.flatnonzero(work[k + 1 : end, k])
        if nonzero.size:
            end = k + 2 + int(nonzero[-1])
            work[k + 1 : end, k + 1 :] -= work[k + 1 : end, k, None] * work[k, k + 1 :]
    # max|U| over blocks of _BLOCK rows, so no temporary is n x n
    blocks = range(0, n, _BLOCK)
    maxu = float(np.max([np.max(np.abs(np.triu(work[i : i + _BLOCK], i))) for i in blocks]))
    growth = maxu / maxa if maxa > 0.0 else 1.0
    return LUFactors(lu=work, piv=piv, growth=growth)


def _substitute(a: np.ndarray, blocks, x: np.ndarray, upper: bool) -> np.ndarray:
    """Overwrite x (a vector or columns) with T^{-1} x, T the upper (lower)
    triangle of a, whose diagonal blocks of _BLOCK rows are blocks.

    Block by block in the order substitution visits them: one GEMV (GEMM for
    columns) subtracts the part already solved, then LAPACK solves the
    diagonal block.  A lower block is solved with its rows and columns
    reversed, which makes it upper triangular.  Raises SingularMatrixError
    at the first zero diagonal entry substitution would divide by.
    """
    n = a.shape[0]
    starts = range(0, n, _BLOCK)
    for k0, blk in reversed(list(zip(starts, blocks))) if upper else zip(starts, blocks):
        k1 = k0 + blk.shape[0]
        if upper and k1 < n:
            x[k0:k1] -= a[k0:k1, k1:] @ x[k1:]
        elif not upper and k0 > 0:
            x[k0:k1] -= a[k0:k1, :k0] @ x[:k0]
        if not upper:
            blk = blk[::-1, ::-1]
        zero = np.flatnonzero(np.diagonal(blk) == 0.0)
        if zero.size:
            raise SingularMatrixError(k0 + int(zero[-1]) if upper else k1 - 1 - int(zero[-1]))
        rhs = x[k0:k1] if upper else x[k0:k1][::-1]
        try:
            sol = np.linalg.solve(blk, rhs)
        except np.linalg.LinAlgError:
            # only NaN can steer the pivot search off the nonzero diagonal
            sol = np.full(rhs.shape, np.nan)
        x[k0:k1] = sol if upper else sol[::-1]
    return x


def _rhs_copy(factors: LUFactors, b) -> np.ndarray:
    x = np.array(b, dtype=np.float64, copy=True)
    if x.shape != (factors.size,):
        raise ValueError(f"rhs shape {x.shape} does not match size {factors.size}")
    return x


def lu_solve_factored(factors: LUFactors, b) -> np.ndarray:
    """Solve A x = b given factors of A: L then U."""
    x = _rhs_copy(factors, b)[factors.perm]
    _substitute(factors.lu, factors.lower_blocks, x, upper=False)
    return _substitute(factors.lu, factors.upper_blocks, x, upper=True)


def lu_solve_transposed(factors: LUFactors, b) -> np.ndarray:
    """Solve A^T x = b from the factors of A (no refactorization): U^T, then
    L^T, then the row swaps undone."""
    x = _rhs_copy(factors, b)
    lu_t = factors.lu.T
    _substitute(lu_t, [u.T for u in factors.upper_blocks], x, upper=False)
    _substitute(lu_t, [l.T for l in factors.lower_blocks], x, upper=True)
    out = np.empty_like(x)
    out[factors.perm] = x
    return out


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


def cond_estimate_factored(factors: LUFactors, norm1: float) -> float:
    """Condition estimate from existing factors and the 1-norm of the matrix:
    norm1 times Hager's lower-bound iteration for ||A^{-1}||_1."""
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
        i = np.arange(n)
        y = lu_solve_factored(factors, np.where(i % 2, -1.0, 1.0) * (1.0 + i / (n - 1.0)))
        est = max(est, 2.0 * float(np.sum(np.abs(y))) / (3.0 * n))
    est *= norm1
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
