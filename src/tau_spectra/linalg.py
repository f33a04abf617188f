"""Linear algebra for column-convention coefficient systems.

Every matrix between assembly and solve is one type, Section: a matrix held
as its diagonals under its dense leading rows.  The term matrices, the
Horner chain that sums them into the operator section Pi, Pi itself and the
square Tau matrix are all Sections, and the QR, the refinement residual
and the residual tail read them through its methods: any rectangle, a
banded product, and one walk over its rows that gives the first and last
nonzero column of each row, max|A| and the column sums of |A|.  The QR
takes its spans, max|T| for the growth and ||T||_1 for the condition
estimate from that one walk.

The Tau system is factored by an almost-banded QR in the style of Olver &
Townsend, "A fast and well-conditioned spectral method" (SIAM Rev. 55,
2013): a few dense rows C over a band.  Per block of _BLOCK columns, one
LAPACK Householder QR runs on the rows the block reaches and returns its
orthogonal factor explicitly, a square array kept as the block's rotation.
It rotates those rows, each held as an explicit part up to a common end
column plus W @ C beyond it, so the fill the dense rows cause is never
stored.  Solves of A x = b and A^T x = b run block by block: one product
with the block's explicit orthogonal factor, one for the explicit part of
R, running sums of C x (or W^T x) for its fill, and the inverse of each
triangular diagonal block of R, formed once per factorization.

The same factors, with the ||T||_1 they keep, feed a Hager-style 1-norm
condition estimate.

Only Section and SingularMatrixError are exported: the QR and the estimate
serve tau's solve, which passes them a square Tau matrix and a
right-hand side of its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["SingularMatrixError", "Section"]


class SingularMatrixError(ArithmeticError):
    """A diagonal entry of R, or of a triangular matrix being solved with,
    is exactly zero; pivot_index is its index."""

    def __init__(self, pivot_index: int):
        super().__init__(f"matrix is singular: zero pivot column at index {pivot_index}")
        self.pivot_index = pivot_index

    def __reduce__(self):
        # Rebuilt from pivot_index, not from args (the message), so that it
        # survives the pickling that carries it out of a worker process.
        return type(self), (self.pivot_index,)


_BLOCK = 64  # columns per block of the QR, rows per strip of a Section's dense rows


@dataclass(frozen=True, eq=False)
class Section:
    """A matrix of at least as many rows as columns, held as its diagonals
    under its dense leading rows.  diags[q, i] = A[i, i + low + q], row i's
    entries from column i + low on, zero outside the matrix; lead[i] is row
    i, in place of its diagonals' entries.  Every row i is nonzero only from
    column i + low on, which check tests of the dense rows.  A matrix dense
    in every row (H^k, a custom theta, a section from_dense) has no
    diagonals, every row in lead, and low the lowest offset it can be nonzero
    at.  shifted and plus, the steps of the Horner chain, take square matrices."""

    diags: np.ndarray
    low: int
    lead: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.diags.shape[1], self.lead.shape[1]

    @classmethod
    def from_dense(cls, a) -> Section:
        """The matrix a 2-d array holds, every row dense: a view of a."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        return cls(np.zeros((0, a.shape[0])), 1 - a.shape[0], a)

    def to_dense(self) -> np.ndarray:
        return np.array(self.block(0, self.shape[0], 0, self.shape[1]))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Rows r0..r1-1, columns c0..c1-1, as an array: a view of lead when
        its rows cover them.  Row i's diagonals are written through a view
        whose row stride is one float64 entry longer than the block's, which
        shears them into columns i + low on."""
        if r1 <= max(r0, len(self.lead)):
            return self.lead[r0:r1, c0:c1]
        rows, w = r1 - r0, len(self.diags)
        # the scratch spans the diagonals' reach as well, if there are any
        start, stop = (min(r0 + self.low, c0), max(r0 + self.low + rows + w - 1, c1)) if w else (c0, c1)
        blk = np.zeros((rows, stop - start))
        if w:
            sheared = np.ndarray((rows, w), float, blk, 8 * (r0 + self.low - start), (8 * (stop - start) + 8, 8))
            sheared[...] = self.diags[:, r0:r1].T
        blk[: max(len(self.lead) - r0, 0), c0 - start : c1 - start] = self.lead[r0:, c0:c1]
        return blk[:, c0 - start : c1 - start]

    def check(self) -> None:
        """Raise ValueError unless every dense row i is zero left of column
        i + low, the format the other methods trust."""
        rows, cols = np.indices(self.lead.shape, sparse=True)
        if np.any((self.lead != 0.0) & (cols < rows + self.low)):
            raise ValueError(f"a dense row i is nonzero left of column i + low, low = {self.low}")

    def _strips(self, stop: int):
        """(r, r1, c0, rows r..r1-1 over columns c0 on, as far as they can be
        nonzero) for each strip of at most _BLOCK rows above row stop, the
        dense rows and the band's rows in strips of their own."""
        n, cols, w = len(self.lead), self.shape[1], len(self.diags)
        for r in (*range(0, min(n, stop), _BLOCK), *range(n, stop, _BLOCK)):
            r1, c0 = min(r + _BLOCK, stop, n if r < n else stop), min(max(0, r + self.low), cols)
            c1 = cols if r < n else min(cols, r1 + self.low + w - 1)
            if c0 < c1:
                yield r, r1, c0, self.block(r, r1, c0, c1)

    def scan(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
        """One walk over the strips: the first and last nonzero column of
        each row, read from the values (cols and -1 for a zero row), max|A|,
        and the column sums of |A|, each summed in row order, so they do not
        depend on which rows are held dense."""
        rows, cols = self.shape
        first, last = np.full(rows, cols), np.full(rows, -1)
        amax, sums = 0.0, np.zeros(cols)
        for r, r1, c0, blk in self._strips(rows):
            strip = np.abs(blk)
            nonzero = strip != 0.0
            some = nonzero.any(axis=1)
            first[r:r1] = np.where(some, c0 + nonzero.argmax(axis=1), cols)
            last[r:r1] = np.where(some, c0 + blk.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
            amax = max(amax, float(strip.max()))
            strip[0] += sums[c0 : c0 + blk.shape[1]]
            sums[c0 : c0 + blk.shape[1]] = np.add.reduce(strip, axis=0)
        return first, last, amax, sums

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x in the precision of x, each row's stored entries summed in
        column order (numpy's long double dot sums the dense rows so), so a
        long double product equals the full matrix's bit for bit."""
        rows, cols = self.shape
        n, w = len(self.lead), len(self.diags)
        out = np.zeros(rows, dtype=x.dtype)
        for r, r1, c0, blk in self._strips(n):
            out[r:r1] = np.dot(blk, x[c0 : c0 + blk.shape[1]])
        # row i's diagonal q meets x[i + low + q], zero past either end
        start = min(n + self.low, 0)
        pad = np.zeros(max(rows + self.low + w - 1, cols) - start, dtype=x.dtype)
        pad[-start : cols - start] = x
        for q, d in enumerate(self.diags[:, n:]):
            out[n:] += d * pad[n + self.low + q - start : rows + self.low + q - start]
        return out

    def shifted(self, alpha, beta, gamma) -> Section:
        """M @ A, M the tridiagonal shift of the recurrence arrays, every
        entry summed in _shift_apply's order: one more diagonal on either
        side, and one more dense row under any dense rows."""
        s, n = self.diags.shape[1], len(self.lead)
        pad = np.vstack([np.zeros((2, s)), self.diags, np.zeros((2, s))])
        # A[i, c], A[i-1, c] and A[i+1, c] are diagonals q-1, q and q-2 of
        # rows i, i-1 and i+1, for c on diagonal q of the product's row i.
        diags = beta[:s] * pad[1:-1]
        diags[:, 1:] += alpha[: s - 1] * pad[2:, :-1]
        diags[:, :-1] += gamma[1:s] * pad[:-2, 1:]
        lead = _shift_apply(alpha, beta, gamma, self.block(0, min(n + 2, s), 0, s))[: n + 1] if n else self.lead
        return Section(diags, self.low - 1, lead)

    def plus(self, c: float, other: Section) -> Section:
        """A + c B, each entry B stores summed as a + c b.  Writes into A's
        arrays when they already span B's diagonals and dense rows, so A must
        be the caller's own, such as a Horner chain's running sum."""
        s, low = self.diags.shape[1], min(self.low, other.low)
        high = max([b.low + len(b.diags) for b in (self, other) if len(b.diags)], default=low)
        n_lead, a = max(len(self.lead), len(other.lead)), self
        if (low, high, n_lead) != (self.low, self.low + len(self.diags), len(self.lead)):
            a = Section(np.zeros((high - low, s)), low, self.block(0, n_lead, 0, s))
            a.diags[self.low - low : self.low - low + len(self.diags)] = self.diags
        a.diags[other.low - low : other.low - low + len(other.diags)] += c * other.diags
        # B's dense rows in strips, each from the first column B can be
        # nonzero at in it: half the work on a dense triangle, in cache
        for r in range(0, len(other.lead), _BLOCK):
            j, r1 = max(0, r + other.low), min(r + _BLOCK, len(other.lead))
            a.lead[r:r1, j:] += c * other.lead[r:r1, j:]
        if len(other.lead) < n_lead:  # B's diagonals in A's dense rows
            for o, d in enumerate(other.diags, other.low):
                i = np.arange(max(len(other.lead), -o), min(n_lead, s - o))
                a.lead[i, i + o] += c * d[i]
        return a


def _shift_apply(alpha, beta, gamma, t: np.ndarray) -> np.ndarray:
    """Product M @ t using only the tridiagonal coefficients of M."""
    s = t.shape[0]
    out = beta[:s, None] * t
    out[1:] += alpha[: s - 1, None] * t[:-1]
    out[:-1] += gamma[1:s, None] * t[1:]
    return out


class _QRBlock(NamedTuple):
    """Column block c0..c1-1 of an almost-banded QR.

    Its rotation acts on rows c0..reach-1 as q, the square orthogonal factor
    LAPACK forms from its Householder vectors.  Rows c0..c1-1 of R are r on
    columns c0..end-1 and fill @ C beyond, C the dense rows; r_inv is the
    inverse of r[:, :c1 - c0], the upper triangular diagonal block.
    """

    c0: int
    c1: int
    reach: int
    end: int
    q: np.ndarray
    r: np.ndarray
    fill: np.ndarray
    r_inv: np.ndarray


@dataclass
class QRFactors:
    """Q R = A for an almost-banded A: its first d rows C (dense) above rows
    whose nonzeros stay near the diagonal.  growth is max|R| / max|A|, and
    norm1 is ||A||_1."""

    size: int
    dense: np.ndarray
    blocks: list
    growth: float
    norm1: float


def qr_factor(a: Section) -> QRFactors:
    """Householder QR of the square matrix a.  Raises SingularMatrixError at
    the first exactly zero diagonal entry of R.

    The first d rows are kept as C, d the number that makes the factors
    smallest: on a Tau matrix its condition rows and any other dense rows
    above a band, and none (d = 0) above a dense upper triangle, which is
    stored explicitly.  Each block of _BLOCK columns runs one complete
    np.linalg.qr on the rows its columns reach, and its orthogonal factor,
    kept for the solves, rotates those rows' explicit columns and their
    coefficients W in one product: a rotated row is its explicit part up to
    a common end column and W @ C beyond.  The explicit part ends past the
    last nonzero of every row the block holds, so on a banded matrix it
    spans _BLOCK plus both bandwidths.
    """
    n = a.shape[0]
    first, last, maxa, sums = a.scan()
    # d minimizes the entries the factors hold per block of rows: an explicit
    # part at most _BLOCK + u_d columns wide (u_d the upper bandwidth of the
    # rows below d) and never past column n, plus d entries of W and of C.
    upper = np.append(np.maximum.accumulate(np.maximum(last - np.arange(n), 0)[::-1])[::-1], 0)
    c0 = np.arange(0, n, _BLOCK)
    held = np.minimum(n - c0, _BLOCK + upper[:, None]).sum(axis=1) + 2 * c0.size * np.arange(n + 1)
    d = int(np.argmin(held))
    dense = a.block(0, d, 0, n)
    # reach[j]: one past the last row i with first[i] <= j, the rows that
    # column j and every column before it can touch
    reach = np.searchsorted(np.minimum.accumulate(first[::-1])[::-1], np.arange(n), "right")
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
        rows = a.block(top, new_top, c0, new_end)
        work = np.vstack([np.hstack([work, coef @ dense[:, end:new_end]]), rows])
        coef = np.vstack([coef, np.arange(top, new_top)[:, None] == np.arange(d)])
        top, end = new_top, new_end
        q, r = np.linalg.qr(work[:, :k], mode="complete")
        r = r[:k]
        zero = np.flatnonzero(np.diagonal(r) == 0.0)
        if zero.size:
            raise SingularMatrixError(c0 + int(zero[0]))
        rest = q.T @ np.hstack([work[:, k:], coef])
        width = end - c1
        # fill copied, so that no view keeps this block's rows of rest alive
        blk = _QRBlock(
            c0, c1, top, end, q, np.hstack([r, rest[:k, :width]]), rest[:k, width:].copy(), np.linalg.inv(r)
        )
        fill = blk.fill @ dense[:, end:]
        maxr = max(maxr, float(np.max(np.abs(blk.r))), float(np.max(np.abs(fill), initial=0.0)))
        out.append(blk)
        work, coef = rest[k:, :width], rest[k:, width:]
    return QRFactors(n, dense, out, maxr / maxa if maxa > 0.0 else 1.0, float(np.max(sums, initial=0.0)))


def qr_solve(factors: QRFactors, b) -> np.ndarray:
    """Solve A x = b from its QR: Q^T block by block, then R by back
    substitution, its fill taken through running sums of C x."""
    x = np.array(b, dtype=np.float64)
    for blk in factors.blocks:
        x[blk.c0 : blk.reach] = blk.q.T @ x[blk.c0 : blk.reach]
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
    x = np.array(b, dtype=np.float64)
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
        x[blk.c0 : blk.reach] = blk.q @ x[blk.c0 : blk.reach]
    return x


def cond_estimate_factored(factors: QRFactors) -> float:
    """Condition estimate from the QR factors of A: its 1-norm times
    Hager's lower-bound iteration for ||A^{-1}||_1."""
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
    return est * factors.norm1

