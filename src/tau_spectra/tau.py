"""Tau discretization and solve for linear operators with polynomial data.

A problem is an operator L u = f with m_c supplementary conditions, where

    L = sum over terms of p(x) * D^k,  D^0 = I,  D^-1 = integral from a to x,

and p and f are polynomials given by monomial coefficients.  The degree-n
approximation u_n = sum_k a_k nu_k satisfies the conditions exactly and the
first n+1-m_c coefficient rows of L u_n = f; the remaining rows of the
residual are the tail that the method perturbs the equation by.

The operator section is sum over terms of p(M) * A with A one of H^k, I, or
the Volterra matrix at section size n+1+h, where the height h = max(deg p - k)
is how far the operator can raise coefficient indices, so the section holds
every row the degree-n image can touch.  One recurrence pass builds every
power H^k, and one Horner chain in M sums the terms: t <- M t + sum p_k A.

Every term matrix is an opmatrix._Band: diagonals under optional dense
leading rows, one diagonal of ones for the identity, every row dense for
H^k.  On the Laguerre basis xD is upper bidiagonal, so a term whose p is
divisible by x^k, p = x^k q, enters the chain as q(M) * (x^k D^k), a band of
width k kept as its k + 1 diagonals, built by k products with xD less a
multiple of I; the Bessel section is pentadiagonal and needs no H^k at all.
Every other derivative term keeps H^k.  On a Jacobi or Laguerre basis the
Volterra matrix is theta's three diagonals under its dense row 0, so p(M) V
is banded below its first deg p + 1 rows.

Pi vanishes more than h rows below its diagonal, so the square Tau matrix
has lower bandwidth m_c + h.  The Horner chain runs once, on bands: M is
tridiagonal, so each product widens the band by a diagonal on either side
and a dense row under any dense rows.  Assembly cuts the result into a
Section, blocks of 64 rows each held over the columns its rows can reach, so
a banded Pi is never one array.

Nor is the square Tau matrix built.  It is read from the condition rows and
the section's blocks above row n+1-m_c; the almost-banded QR factors them,
keeping dense rows such as the condition rows and a Volterra row 0 apart,
the extended-precision refinement residual reads the same blocks, and the
blocks below give the residual tail.  On a banded section a solve holds
O(n * (64 + bandwidth)) entries in all, Pi included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import RecurrenceBasis, clenshaw, eval_basis_derivs, recurrence_arrays
from .linalg import cond_estimate_factored, qr_factor, qr_solve
from .opmatrix import MAX_SECTION_SIZE, _Band, _derivative_table, _shift_apply, _volterra_band, _xd_powers

__all__ = [
    "NonFiniteSolutionError",
    "OperatorTerm",
    "derivative_term",
    "identity_term",
    "volterra_term",
    "ConditionTerm",
    "ConditionSpec",
    "point_condition",
    "TauProblem",
    "TauSolution",
    "Diagnostics",
    "operator_height",
    "Section",
    "assemble_pi",
    "project_rhs",
    "condition_row",
    "solve_tau",
    "solve_tau_system",
]

_BLOCK = 64  # rows per block of a section and of the Tau matrix


class NonFiniteSolutionError(ArithmeticError):
    """The solve produced NaN or infinite coefficients or condition estimate."""


def _trim_poly(coeff) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeff, dtype=np.float64))
    if c.ndim != 1 or c.shape[0] == 0:
        raise ValueError("polynomial coefficients must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients must be finite")
    nz = np.nonzero(c)[0]
    return np.array(c[: nz[-1] + 1] if nz.size else c[:1])


@dataclass
class OperatorTerm:
    """Term p(x) * D^order, coeff the monomial coefficients of p; D^0 is the
    identity, D^-1 the integral from lower (finite; ignored otherwise) to x."""

    coeff: np.ndarray
    order: int = 0
    lower: float = 0.0

    def __post_init__(self):
        self.coeff = _trim_poly(self.coeff)
        if self.order < -1:
            raise ValueError(f"operator order must be >= -1, got {self.order}")
        if self.order == -1 and not np.isfinite(self.lower):
            raise ValueError("volterra lower limit must be finite")

    @property
    def degree(self) -> int:
        return self.coeff.shape[0] - 1


def derivative_term(coeff, order: int = 1) -> OperatorTerm:
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    return OperatorTerm(coeff, order)


def identity_term(coeff) -> OperatorTerm:
    return OperatorTerm(coeff, 0)


def volterra_term(coeff, lower: float) -> OperatorTerm:
    return OperatorTerm(coeff, -1, float(lower))


@dataclass(frozen=True)
class ConditionTerm:
    """One summand coeff * u^(deriv)(point) of a condition functional."""

    coeff: float
    deriv: int
    point: float

    def __post_init__(self):
        if self.deriv < 0:
            raise ValueError(f"condition derivative order must be >= 0, got {self.deriv}")


@dataclass(frozen=True)
class ConditionSpec:
    """A supplementary condition: sum of terms applied to u equals target."""

    terms: tuple[ConditionTerm, ...]
    target: float

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) == 0:
            raise ValueError("a condition needs at least one term")


def point_condition(point: float, target: float, deriv: int = 0) -> ConditionSpec:
    return ConditionSpec(terms=(ConditionTerm(1.0, deriv, float(point)),), target=float(target))


@dataclass
class TauProblem:
    basis: RecurrenceBasis
    operator: list[OperatorTerm]
    conditions: list[ConditionSpec]
    rhs: np.ndarray
    degree: int

    def __post_init__(self):
        if len(self.operator) == 0:
            raise ValueError("operator needs at least one term")
        self.rhs = _trim_poly(self.rhs)
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        m_c = len(self.conditions)
        if m_c > self.degree + 1:
            raise ValueError(f"{m_c} conditions over-constrain degree {self.degree}")
        s = self.degree + 1 + operator_height(self.operator)
        if s > MAX_SECTION_SIZE:
            raise ValueError(f"section size {s} (degree + 1 + height) exceeds {MAX_SECTION_SIZE}")
        if self.rhs.shape[0] > s:
            raise ValueError(f"rhs degree {self.rhs.shape[0] - 1} exceeds degree + height {s - 1}")
        # A derivative of order above s is exactly zero on the section, yet
        # would still cost an order-deep recurrence pass or a deriv x n table.
        orders = [t.order for t in self.operator]
        orders += [t.deriv for c in self.conditions for t in c.terms]
        if max(orders) > s:
            raise ValueError(f"derivative order {max(orders)} exceeds the section size {s}")


@dataclass(frozen=True)
class Diagnostics:
    cond_estimate: float
    growth: float
    height: int


@dataclass
class TauSolution:
    """Coefficient vector of the degree-n approximation plus solve metadata.

    coeffs_extended carries the same vector in the precision the refinement
    loop worked in, and calling the solution sums it in that precision, so
    a Laguerre series summed at large x keeps the imposed conditions that
    float64 rounding of coeffs would lose; coeffs is its float64 image.
    residual_tail holds the coefficients of L[u_n] - f on the rows the
    square system left free (indices n-m_c+1 .. n+h): the perturbation the
    method committed to.
    """

    basis: RecurrenceBasis
    diagnostics: Diagnostics
    coeffs_extended: np.ndarray
    residual_tail: np.ndarray

    @property
    def coeffs(self) -> np.ndarray:
        return np.asarray(self.coeffs_extended, dtype=np.float64)

    @property
    def degree(self) -> int:
        return self.coeffs_extended.shape[0] - 1

    def __call__(self, x):
        return clenshaw(self.basis, self.coeffs_extended, x)


@dataclass(frozen=True, eq=False)
class Section:
    """An operator section of the given shape held as (rows, values, cols)
    triples of slices and arrays: blocks of _BLOCK rows in row order, each
    holding its rows over the columns cols, with zeros outside them.  From
    assemble_pi, those are the columns its rows can reach: from the lowest
    diagonal of its first row to the highest of its last, out to the last
    column when it holds a dense row (one a Volterra row 0 reaches, or any
    row of a section with a dense term matrix)."""

    shape: tuple[int, int]
    blocks: list

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for rows, vals, cols in self.blocks:
            out[rows, cols] = vals
        return out

    @classmethod
    def from_dense(cls, a) -> Section:
        """The section held by a 2-d array: each block of _BLOCK rows a view
        of a."""
        a = np.asarray(a, dtype=np.float64)
        rows = [slice(r0, min(r0 + _BLOCK, a.shape[0])) for r0 in range(0, a.shape[0], _BLOCK)]
        return cls(a.shape, [(r, a[r], slice(0, a.shape[1])) for r in rows])


def operator_height(terms) -> int:
    """How far the operator can raise coefficient indices, max(deg p - k):
    the section is built with n+1+h rows so no reachable row is lost."""
    return max([0, *(t.degree - t.order for t in terms)])


def _poly_in_shift(recurrence, terms, shape: tuple[int, int]) -> Section:
    """Sum of p(M) @ A over the (p, A) terms, each A an opmatrix._Band, with
    M the shift of the recurrence arrays (alpha, beta, gamma), by one Horner
    chain over bands: from the top degree down, t <- M t + sum of p_k A.

    M is tridiagonal, so each product widens t by a diagonal on either side
    and a dense row under any dense rows, and each sum spans both bands.
    Every entry is summed in the order of the chain over full arrays, so t
    is its result bit for bit.  The section's blocks of _BLOCK rows are cut
    from t at its own extents: row i from column i + low on, to its last
    diagonal, or to the last column in a block holding a dense row.  shape
    has at least as many rows as columns, and each A as many rows.
    """
    rows, cols = shape
    top = max(p.shape[0] for p, _ in terms) - 1
    # zero: no diagonals, and low past the last column, so the first sum
    # takes the extents of its term
    t = _Band(np.zeros((0, rows)), rows, np.zeros((0, rows)))
    for k in range(top, -1, -1):
        if k < top:
            t = t.shifted(*recurrence)
        for p, a in terms:
            if k < p.shape[0]:
                t = t.plus(p[k], a)
    out = []
    for i0 in range(0, rows, _BLOCK):
        i1 = min(i0 + _BLOCK, rows)
        j1 = cols if i0 < len(t.lead) else min(cols, i1 + t.low + len(t.diags) - 1)
        j0 = min(max(0, i0 + t.low), j1)
        out.append((slice(i0, i1), t.block(i0, i1, j0, j1), slice(j0, j1)))
    return Section(shape, out)


def _xd_order(basis: RecurrenceBasis, term: OperatorTerm) -> int:
    """k when term is x^k q(x) D^k (k >= 1) on the Laguerre basis, whose
    x^k D^k is banded (_xd_powers); 0 for every term built from H^k."""
    k = term.order
    divisible = k >= 1 and term.degree >= k and not np.any(term.coeff[:k])
    return k if divisible and basis.family == "laguerre" else 0


def assemble_pi(problem: TauProblem) -> Section:
    """Operator section Pi of shape (n+1+h, n+1): Pi @ a holds the
    nu-coefficients of L[u_n]."""
    n, basis = problem.degree, problem.basis
    s = n + 1 + operator_height(problem.operator)
    recurrence = recurrence_arrays(basis, s + 1)
    xd = [_xd_order(basis, t) for t in problem.operator]
    dense = {t.order for t, k in zip(problem.operator, xd) if t.order > 0 and not k}
    factors = _xd_powers(s, max(xd))  # x^0 D^0 = I for every basis
    powers = _derivative_table(*recurrence, s, dense) if dense else {}
    terms = [
        (t.coeff[k:], factors[k])
        if k or not t.order
        else (t.coeff, _volterra_band(basis, s, t.lower) if t.order < 0 else powers[t.order])
        for t, k in zip(problem.operator, xd)
    ]
    return _poly_in_shift(recurrence, terms, (s, n + 1))


def project_rhs(coeff, basis: RecurrenceBasis, length: int) -> np.ndarray:
    """nu-coefficients of the polynomial with monomial coefficients coeff,
    padded with zeros to the requested length: p(M) e_0 by Horner in the
    shift, since nu_0 = 1 and e_0 is the identity's first column."""
    c = _trim_poly(coeff)
    d = c.shape[0] - 1
    if d + 1 > length:
        raise ValueError(f"polynomial degree {d} does not fit in length {length}")
    recurrence = recurrence_arrays(basis, d + 1)
    t = np.zeros((d + 1, 1))
    for k in range(d, -1, -1):
        if k < d:
            t = _shift_apply(*recurrence, t)
        t[0] += c[k]
    return np.pad(t[:, 0], (0, length - d - 1))


def condition_row(cond: ConditionSpec, basis: RecurrenceBasis, n: int) -> np.ndarray:
    """Row of the condition functional applied to (nu_0, ..., nu_n), in
    np.longdouble."""
    row = np.zeros(n + 1, dtype=np.longdouble)
    for term in cond.terms:
        row += term.coeff * eval_basis_derivs(basis, n, term.point, term.deriv)[term.deriv]
    return row


def solve_tau(problem: TauProblem) -> TauSolution:
    """Assemble and solve the square Tau system for the given problem."""
    return solve_tau_system(problem, assemble_pi(problem))


def solve_tau_system(problem: TauProblem, section: Section) -> TauSolution:
    """Solve using a caller-supplied operator section (shape (n+1+h, n+1));
    lets alternative section builders reuse the row selection and solve.
    Section.from_dense takes a section held as an array.

    Raises SingularMatrixError on an exactly singular system and
    NonFiniteSolutionError, before factoring, on a Tau system holding NaN or
    infinity, and after it when the coefficients, the residual tail or the
    condition estimate come out NaN or infinite.
    """
    n = problem.degree
    m_c = len(problem.conditions)
    h = operator_height(problem.operator)
    if section.shape != (n + 1 + h, n + 1):
        raise ValueError(f"operator section shape {section.shape} != {(n + 1 + h, n + 1)}")
    f_nu = project_rhs(problem.rhs, problem.basis, n + 1 + h)
    keep = n + 1 - m_c
    cond_rows = np.zeros((m_c, n + 1), dtype=np.longdouble)
    for i, cond in enumerate(problem.conditions):
        cond_rows[i] = condition_row(cond, problem.basis, n)
    # The Tau matrix: the condition rows, then the section's rows above keep;
    # the rows below are the tail.
    blocks = [(slice(0, m_c), cond_rows.astype(np.float64), slice(0, n + 1))]
    tail_blocks = []
    for rows, vals, cols in section.blocks:
        split = min(max(keep, rows.start), rows.stop)
        if rows.start < split:
            blocks.append((slice(m_c + rows.start, m_c + split), vals[: split - rows.start], cols))
        if split < rows.stop:
            tail_blocks.append((slice(split - keep, rows.stop - keep), vals[split - rows.start :], cols))
    row_max = np.concatenate([np.max(np.abs(vals), axis=1) for _, vals, _ in blocks])
    if not np.all(np.isfinite(row_max)):
        raise NonFiniteSolutionError("Tau system is not finite")
    # Scale each row by the power of two that brings its largest magnitude
    # into [1, 2): exact in both precisions, and it keeps Laguerre condition
    # rows (~1e13) from spoiling the factors the refinement contracts with.
    shift = 1 - np.frexp(row_max)[1]
    b = np.ldexp(np.concatenate([[cond.target for cond in problem.conditions], f_nu[:keep]]), shift)
    blocks = [(rows, np.ldexp(vals, shift[rows, None]), cols) for rows, vals, cols in blocks]
    col_sums = np.zeros(n + 1)
    for _, vals, cols in blocks:
        col_sums[cols] += np.sum(np.abs(vals), axis=0)
    norm1 = float(np.max(col_sums))
    factors = qr_factor(blocks, n + 1)
    # the refinement residual reads the condition rows unrounded
    blocks[0] = (blocks[0][0], np.ldexp(cond_rows, shift[:m_c, None]), blocks[0][2])
    coeffs_ext = _refine(blocks, b, factors, qr_solve(factors, b))
    if not np.all(np.isfinite(coeffs_ext)):
        raise NonFiniteSolutionError("solution coefficients are not finite")
    coeffs = np.asarray(coeffs_ext, dtype=np.float64)
    tail = -f_nu[keep:]
    for rows, vals, cols in tail_blocks:
        tail[rows] += vals @ coeffs[cols]
    if not np.all(np.isfinite(tail)):
        raise NonFiniteSolutionError("residual tail is not finite")
    cond_estimate = cond_estimate_factored(factors, norm1)
    if not math.isfinite(cond_estimate):
        raise NonFiniteSolutionError("condition estimate is not finite")
    diags = Diagnostics(cond_estimate=cond_estimate, growth=factors.growth, height=h)
    return TauSolution(problem.basis, diags, coeffs_extended=coeffs_ext, residual_tail=tail)


def _residual(blocks: list, b_ext: np.ndarray, a_ext: np.ndarray) -> np.ndarray:
    """b - t a in extended precision from the (rows, values, cols) blocks
    of the Tau matrix; a float64 block enters the product exactly, promoted
    to long double.  The terms left out are exact zeros, so each entry
    equals the full product's bit for bit."""
    r = np.empty_like(b_ext)
    for rows, t_blk, cols in blocks:
        r[rows] = b_ext[rows] - t_blk @ a_ext[cols]
    return r


def _refine(blocks: list, b: np.ndarray, factors, coeffs: np.ndarray) -> np.ndarray:
    """Iterative refinement with the residual taken in extended precision.

    The raw forward error of a Laguerre system is visible in the solution
    even though every row residual is tiny; a few corrected steps recover
    the accuracy, provided the float64 factors contract the error, which
    unscaled Laguerre condition rows prevent.  blocks hold the row-scaled
    system with its condition rows in extended precision, so the fixed
    point satisfies the accurate functionals, not their float64 images.
    Cheap (one banded matvec and one substitution per step) and a near
    no-op for well-conditioned systems.
    """
    b_ext = b.astype(np.longdouble)
    a_ext = coeffs.astype(np.longdouble)
    last = math.inf
    for _ in range(6):
        r = _residual(blocks, b_ext, a_ext)
        corr = qr_solve(factors, np.asarray(r, dtype=np.float64))
        step = float(np.max(np.abs(corr)))
        if not math.isfinite(step) or step == 0.0 or step >= last:
            break
        a_ext = a_ext + corr.astype(np.longdouble)
        last = step
    return a_ext

