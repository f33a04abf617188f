"""Linear algebra for column-convention coefficient systems.

The Tau system is factored by an almost-banded QR in the style of Olver &
Townsend, "A fast and well-conditioned spectral method" (SIAM Rev. 55,
2013): a few dense rows C over a band.  Per block of _BLOCK columns, one
LAPACK Householder QR runs on the rows the block reaches, and its rotation
is applied to those rows, each held as an explicit part up to a common end
column plus W @ C beyond it, so the fill the dense rows cause is never
stored.  Solves of A x = b and A^T x = b run block by block: the rotation
in compact WY form, one product for the explicit part of R, running sums of
C x (or W^T x) for its fill, and the inverse of each triangular diagonal
block of R, formed once per factorization.

The same factors feed a Hager-style 1-norm condition estimate.

solve_upper_triangular is per-row back substitution.  It serves the
integral matrices of custom bases and the change-of-basis comparison route,
whose low-degree agreement test sits within roundoff of its bound, so it
keeps that exact rounding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SingularMatrixError",
    "QRFactors",
    "qr_factor",
    "qr_solve",
    "qr_solve_transposed",
    "solve_upper_triangular",
    "cond_estimate_factored",
]


class SingularMatrixError(ArithmeticError):
    """A diagonal entry of R, or of a triangular matrix being solved with,
    is exactly zero; pivot_index is its index."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular: zero pivot column at index {pivot_index}")
        self.pivot_index = pivot_index


_BLOCK = 64  # columns per block of the QR


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def _reach(first: np.ndarray) -> np.ndarray:
    """reach[j]: one past the last row i with first[i] <= j, the rows that
    column j and every column before it can touch."""
    return np.searchsorted(np.minimum.accumulate(first[::-1])[::-1], np.arange(first.shape[0]), "right")


def _rhs_copy(factors, b) -> np.ndarray:
    x = np.array(b, dtype=np.float64, copy=True)
    if x.shape != (factors.size,):
        raise ValueError(f"rhs shape {x.shape} does not match size {factors.size}")
    return x


class _QRBlock(NamedTuple):
    """Column block c0..c1-1 of an almost-banded QR.

    Its rotation acts on rows c0..reach-1 as Q = I - v y^T, v the Householder
    vectors and y = v T^T (LAPACK's compact WY form, T upper triangular).
    Rows c0..c1-1 of R are r on columns c0..end-1 and fill @ C beyond, C
    the dense rows; r_inv is the inverse of r[:, :c1 - c0], the upper
    triangular diagonal block.
    """

    c0: int
    c1: int
    reach: int
    end: int
    v: np.ndarray
    y: np.ndarray
    r: np.ndarray
    fill: np.ndarray
    r_inv: np.ndarray


@dataclass
class QRFactors:
    """Q R = A for an almost-banded A: its first d rows C (dense) above rows
    whose nonzeros stay near the diagonal.  growth is max|R| / max|A|."""

    size: int
    dense: np.ndarray
    blocks: list
    growth: float


def _row_spans(blocks, n: int):
    """First and last nonzero column of each row held by blocks; n and -1
    for a zero row."""
    first, last = np.full(n, n), np.full(n, -1)
    for rows, vals, cols in blocks:
        nonzero = vals != 0.0
        some = nonzero.any(axis=1)
        first[rows] = np.where(some, cols.start + nonzero.argmax(axis=1), n)
        last[rows] = np.where(some, cols.stop - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
    return first, last


def _gather(blocks, starts: list, i0: int, i1: int, c0: int, c1: int) -> np.ndarray:
    """Rows i0..i1-1 and columns c0..c1-1 of the matrix blocks hold; starts
    lists each block's first row, in increasing order."""
    out = np.zeros((i1 - i0, c1 - c0))
    for rows, vals, cols in blocks[max(bisect_right(starts, i0) - 1, 0) : bisect_left(starts, i1)]:
        r0, r1 = max(rows.start, i0), min(rows.stop, i1)
        j0, j1 = max(cols.start, c0), min(cols.stop, c1)
        if r0 < r1 and j0 < j1:
            out[r0 - i0 : r1 - i0, j0 - c0 : j1 - c0] = vals[
                r0 - rows.start : r1 - rows.start, j0 - cols.start : j1 - cols.start
            ]
    return out


def qr_factor(blocks, n: int) -> QRFactors:
    """Householder QR of the n x n matrix held by blocks: (rows, values,
    cols) triples of slices and arrays, in row order, each row in one block,
    that cover every nonzero.  Raises SingularMatrixError at the first
    exactly zero diagonal entry of R.

    The first d rows are kept as C, d the number that makes the factors
    smallest: on a Tau matrix its condition rows and any other dense rows
    above a band, and none (d = 0) above a dense upper triangle, which is
    stored explicitly.  Each block of _BLOCK columns runs one np.linalg.qr
    on the rows its columns reach, and that rotation is applied to those
    rows' explicit columns and to their coefficients W: a rotated row is its
    explicit part up to a common end column and W @ C beyond.  The explicit
    part ends past the last nonzero of every row the block holds, so on a
    banded matrix it spans _BLOCK plus both bandwidths.
    """
    first, last = _row_spans(blocks, n)
    starts = [rows.start for rows, _, _ in blocks]
    # d minimizes the entries the factors hold per block of rows: an explicit
    # part at most _BLOCK + u_d columns wide (u_d the upper bandwidth of the
    # rows below d) and never past column n, plus d entries of W and of C.
    upper = np.append(np.maximum.accumulate(np.maximum(last - np.arange(n), 0)[::-1])[::-1], 0)
    c0 = np.arange(0, n, _BLOCK)
    held = np.minimum(n - c0, _BLOCK + upper[:, None]).sum(axis=1) + 2 * c0.size * np.arange(n + 1)
    d = int(np.argmin(held))
    dense = _gather(blocks, starts, 0, d, 0, n)
    reach = _reach(first)
    maxa = max(float(np.max(np.abs(vals), initial=0.0)) for _, vals, _ in blocks)
    maxr = 0.0
    # rows carried from block to block: explicit columns c0..end-1, and W
    work, coef = np.zeros((0, 0)), np.zeros((0, d))
    top = end = 0
    out = []
    for c0 in range(0, n, _BLOCK):
        c1 = min(c0 + _BLOCK, n)
        k = c1 - c0
        new_top = max(top, c1, int(reach[c1 - 1]))
        new_end = max(end, c1, int(np.max(last[max(top, d) : new_top], initial=-1)) + 1)
        work = np.vstack(
            [np.hstack([work, coef @ dense[:, end:new_end]]), _gather(blocks, starts, top, new_top, c0, new_end)]
        )
        coef = np.vstack([coef, np.arange(top, new_top)[:, None] == np.arange(d)])
        top, end = new_top, new_end
        h, tau = np.linalg.qr(work[:, :k], mode="raw")
        r = np.triu(h.T[:k])
        zero = np.flatnonzero(np.diagonal(r) == 0.0)
        if zero.size:
            raise SingularMatrixError(c0 + int(zero[0]))
        # T^{-1} = striu(V^T V) + diag(1 / tau) (Joffrain et al., ACM TOMS
        # 32, 2006); tau = 0 marks an identity reflector, left out of V.
        v = np.tril(h.T, -1)
        v[range(k), range(k)] = 1.0
        v[:, tau == 0.0] = 0.0
        inv_t = np.triu(v.T @ v, 1)
        inv_t[range(k), range(k)] = 1.0 / np.where(tau == 0.0, 1.0, tau)
        y = v @ np.linalg.inv(inv_t).T
        rest = np.hstack([work[:, k:], coef])
        rest -= y @ (v.T @ rest)
        width = end - c1
        blk = _QRBlock(
            c0, c1, top, end, v, y, np.hstack([r, rest[:k, :width]]), rest[:k, width:], np.linalg.inv(r)
        )
        fill = blk.fill @ dense[:, end:]
        maxr = max(maxr, float(np.max(np.abs(blk.r))), float(np.max(np.abs(fill), initial=0.0)))
        out.append(blk)
        work, coef = rest[k:, :width], rest[k:, width:]
    return QRFactors(size=n, dense=dense, blocks=out, growth=maxr / maxa if maxa > 0.0 else 1.0)


def qr_solve(factors: QRFactors, b) -> np.ndarray:
    """Solve A x = b from its QR: Q^T block by block, then R by back
    substitution, its fill taken through running sums of C x."""
    x = _rhs_copy(factors, b)
    for blk in factors.blocks:
        rows = x[blk.c0 : blk.reach]
        rows -= blk.y @ (blk.v.T @ rows)
    dense, start = factors.dense, factors.size
    tail = np.zeros(dense.shape[0])  # C[:, start:] @ x[start:]
    for blk in reversed(factors.blocks):
        tail += dense[:, blk.end : start] @ x[blk.end : start]
        start, k = blk.end, blk.c1 - blk.c0
        rhs = x[blk.c0 : blk.c1] - blk.r[:, k:] @ x[blk.c1 : blk.end] - blk.fill @ tail
        x[blk.c0 : blk.c1] = blk.r_inv @ rhs
    return x


def qr_solve_transposed(factors: QRFactors, b) -> np.ndarray:
    """Solve A^T x = b from the QR of A: R^T by forward substitution, its
    fill taken through running sums of W^T x, then Q block by block."""
    x = _rhs_copy(factors, b)
    dense, start = factors.dense, 0
    # sum of fill^T x over the blocks solved; x[:start] has it subtracted
    pending = np.zeros(dense.shape[0])
    for blk in factors.blocks:
        k = blk.c1 - blk.c0
        stop = max(start, blk.c1)
        x[start:stop] -= pending @ dense[:, start:stop]
        z = x[blk.c0 : blk.c1] = blk.r_inv.T @ x[blk.c0 : blk.c1]
        x[blk.c1 : blk.end] -= blk.r[:, k:].T @ z
        x[stop : blk.end] -= pending @ dense[:, stop : blk.end]
        start = blk.end
        pending += blk.fill.T @ z
    for blk in reversed(factors.blocks):
        rows = x[blk.c0 : blk.reach]
        rows -= blk.v @ (blk.y.T @ rows)
    return x


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


def cond_estimate_factored(factors: QRFactors, norm1: float) -> float:
    """Condition estimate from the QR factors of A and its 1-norm: norm1
    times Hager's lower-bound iteration for ||A^{-1}||_1."""
    n = factors.size
    x = np.full(n, 1.0 / n)
    est = 0.0
    prev_sign = np.zeros(n)
    for _ in range(5):
        y = qr_solve(factors, x)
        est = float(np.sum(np.abs(y)))
        sign = np.where(y >= 0.0, 1.0, -1.0)
        if np.array_equal(sign, prev_sign):
            break
        prev_sign = sign
        z = qr_solve_transposed(factors, sign)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    # Extra probe with an alternating, graded vector; guards against the
    # iteration stalling on unlucky starting points.
    if n > 1:
        i = np.arange(n)
        y = qr_solve(factors, np.where(i % 2, -1.0, 1.0) * (1.0 + i / (n - 1.0)))
        est = max(est, 2.0 * float(np.sum(np.abs(y))) / (3.0 * n))
    est *= norm1
    if not np.isfinite(est):
        return float("inf")
    return est

