"""Tau discretization and solve for linear operators with polynomial data.

A problem is an operator L u = f with m_c supplementary conditions, where

    L = sum over terms of p(x) * (d^i/dx^i | identity | integral from a to x)

and p and f are polynomials given by monomial coefficients.  The degree-n
approximation u_n = sum_k a_k nu_k satisfies the conditions exactly and the
first n+1-m_c coefficient rows of L u_n = f; the remaining rows of the
residual are the tail that the method perturbs the equation by.

The operator section is sum over terms of p(M) * A with A one of H^i, I, or
the Volterra matrix, all generated at section size n+1+h, where the height h
is how far the operator can raise coefficient indices; the section therefore
holds every row the degree-n image can touch.  One recurrence pass builds
every power H^i, and one Horner chain in M sums the terms: t <- M t + sum p_k A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import RecurrenceBasis, clenshaw, eval_basis_derivs, recurrence_arrays
from .linalg import cond_estimate_factored, lu_factor, lu_solve_factored
from .opmatrix import MAX_SECTION_SIZE, _derivative_table, _shift_apply, volterra_matrix

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
    "assemble_pi",
    "project_rhs",
    "condition_row",
    "solve_tau",
    "solve_tau_system",
    "sup_error",
]

_ACTIONS = ("derivative", "identity", "volterra")


class NonFiniteSolutionError(ArithmeticError):
    """The solve produced NaN or infinite coefficients."""


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
    """One operator term p(x) * A; coeff are monomial coefficients of p."""

    coeff: np.ndarray
    action: str
    order: int = 0
    lower: float = 0.0

    def __post_init__(self):
        self.coeff = _trim_poly(self.coeff)
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown action {self.action!r}, expected one of {_ACTIONS}")
        if self.action == "derivative":
            if self.order < 1:
                raise ValueError(f"derivative order must be >= 1, got {self.order}")
        elif self.order != 0:
            raise ValueError(f"order is only meaningful for derivative terms, got {self.order}")
        if self.action == "volterra" and not np.isfinite(self.lower):
            raise ValueError("volterra lower limit must be finite")

    @property
    def degree(self) -> int:
        return self.coeff.shape[0] - 1


def derivative_term(coeff, order: int = 1) -> OperatorTerm:
    return OperatorTerm(coeff=np.asarray(coeff, dtype=np.float64), action="derivative", order=order)


def identity_term(coeff) -> OperatorTerm:
    return OperatorTerm(coeff=np.asarray(coeff, dtype=np.float64), action="identity")


def volterra_term(coeff, lower: float) -> OperatorTerm:
    return OperatorTerm(
        coeff=np.asarray(coeff, dtype=np.float64), action="volterra", lower=float(lower)
    )


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
        s = self.degree + 1 + operator_height(self.operator)
        if s > MAX_SECTION_SIZE:
            raise ValueError(f"section size {s} (degree + 1 + height) exceeds {MAX_SECTION_SIZE}")
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
        return clenshaw(self.basis, self.coeffs_extended, x, np.longdouble)


def operator_height(terms) -> int:
    """How far the operator can raise coefficient indices: the section is
    built with n+1+h rows so no reachable row is lost."""
    h = 0
    for t in terms:
        if t.action == "derivative":
            h = max(h, t.degree - t.order)
        elif t.action == "identity":
            h = max(h, t.degree)
        else:
            h = max(h, t.degree + 1)
    return h


def _poly_in_shift(recurrence, terms, shape: tuple[int, int]) -> np.ndarray:
    """Sum of p(M) @ A over the (p, A) terms (A = None for the identity),
    with M the shift of the recurrence arrays (alpha, beta, gamma), by one
    Horner chain: from the top degree down, t <- M t + sum of p_k A."""
    diag = (np.arange(min(shape)),) * 2
    top = max(p.shape[0] for p, _ in terms) - 1
    t = np.zeros(shape)
    for k in range(top, -1, -1):
        if k < top:
            t = _shift_apply(*recurrence, t)
        for p, a_mat in terms:
            if k < p.shape[0] and a_mat is None:
                t[diag] += p[k]
            elif k < p.shape[0]:
                t += p[k] * a_mat
    return t


def assemble_pi(problem: TauProblem) -> np.ndarray:
    """Operator section Pi of shape (n+1+h, n+1): Pi @ a holds the
    nu-coefficients of L[u_n]."""
    n = problem.degree
    s = n + 1 + operator_height(problem.operator)
    recurrence = recurrence_arrays(problem.basis, s + 1)
    orders = {t.order for t in problem.operator if t.action == "derivative"}
    powers = _derivative_table(*recurrence, s, orders) if orders else {}
    terms = [
        (t.coeff, volterra_matrix(problem.basis, s, t.lower))
        if t.action == "volterra"
        else (t.coeff, powers.get(t.order))  # identity terms have order 0: None
        for t in problem.operator
    ]
    return _poly_in_shift(recurrence, terms, (s, s))[:, : n + 1]


def project_rhs(coeff, basis: RecurrenceBasis, length: int) -> np.ndarray:
    """nu-coefficients of the polynomial with monomial coefficients coeff,
    padded with zeros to the requested length: p(M) e_0 by Horner in the
    shift, since nu_0 = 1 and e_0 is the identity's first column."""
    c = _trim_poly(coeff)
    d = c.shape[0] - 1
    if d + 1 > length:
        raise ValueError(f"polynomial degree {d} does not fit in length {length}")
    return _poly_in_shift(recurrence_arrays(basis, length), [(c, None)], (length, 1))[:, 0]


def condition_row(
    cond: ConditionSpec, basis: RecurrenceBasis, n: int, dtype=np.float64
) -> np.ndarray:
    """Row of the condition functional applied to (nu_0, ..., nu_n), in dtype."""
    row = np.zeros(n + 1, dtype=dtype)
    for term in cond.terms:
        table = eval_basis_derivs(basis, n, term.point, term.deriv, dtype)
        row += term.coeff * table[term.deriv]
    return row


def solve_tau(problem: TauProblem) -> TauSolution:
    """Assemble and solve the square Tau system for the given problem."""
    return solve_tau_system(problem, assemble_pi(problem))


def solve_tau_system(problem: TauProblem, pi: np.ndarray) -> TauSolution:
    """Solve using a caller-supplied operator section (shape (n+1+h, n+1));
    lets alternative section builders reuse the row selection and solve.

    Raises SingularMatrixError on an exactly singular system and
    NonFiniteSolutionError when the coefficients come out NaN or infinite.
    """
    n = problem.degree
    m_c = len(problem.conditions)
    h = operator_height(problem.operator)
    if pi.shape != (n + 1 + h, n + 1):
        raise ValueError(f"operator section shape {pi.shape} != {(n + 1 + h, n + 1)}")
    if m_c > n + 1:
        raise ValueError(f"{m_c} conditions over-constrain degree {n}")
    f_nu = project_rhs(problem.rhs, problem.basis, n + 1 + h)
    t = np.empty((n + 1, n + 1))
    b = np.empty(n + 1)
    for i, cond in enumerate(problem.conditions):
        t[i] = condition_row(cond, problem.basis, n)
        b[i] = cond.target
    keep = n + 1 - m_c
    t[m_c:] = pi[:keep]
    b[m_c:] = f_nu[:keep]
    norm1 = float(np.max(np.sum(np.abs(t), axis=0)))
    factors = lu_factor(t)
    coeffs = lu_solve_factored(factors, b)
    cond_rows = [
        condition_row(cond, problem.basis, n, np.longdouble) for cond in problem.conditions
    ]
    coeffs_ext = _refine(t, b, factors, coeffs, cond_rows)
    if not np.all(np.isfinite(coeffs_ext)):
        raise NonFiniteSolutionError("solution coefficients are not finite")
    diags = Diagnostics(
        cond_estimate=cond_estimate_factored(factors, norm1),
        growth=factors.growth,
        height=h,
    )
    return TauSolution(
        basis=problem.basis,
        diagnostics=diags,
        coeffs_extended=coeffs_ext,
        residual_tail=pi[keep:] @ np.asarray(coeffs_ext, dtype=np.float64) - f_nu[keep:],
    )


def _refine(
    t: np.ndarray, b: np.ndarray, factors, coeffs: np.ndarray, cond_rows
) -> np.ndarray:
    """Iterative refinement with the residual taken in extended precision.

    Boundary rows of Laguerre problems reach 1-norms ~1e13, which drives the
    condition estimate past 1/eps; the raw LU forward error is then visible
    in the solution even though every row residual is tiny.  A few corrected
    steps recover the accuracy.  The condition rows are replaced by their
    extended-precision recomputation so the fixed point satisfies the
    accurate functionals, not their float64 images.  Cheap (one matvec and
    one substitution per step) and a near no-op for well-conditioned systems.
    """
    t_ext = t.astype(np.longdouble)
    for i, row in enumerate(cond_rows):
        t_ext[i] = row
    b_ext = b.astype(np.longdouble)
    a_ext = coeffs.astype(np.longdouble)
    last = math.inf
    for _ in range(6):
        r = b_ext - t_ext @ a_ext
        corr = lu_solve_factored(factors, np.asarray(r, dtype=np.float64))
        step = float(np.max(np.abs(corr)))
        if not math.isfinite(step) or step == 0.0 or step >= last:
            break
        a_ext = a_ext + corr.astype(np.longdouble)
        last = step
    return a_ext


def sup_error(solution: TauSolution, reference, grid) -> float:
    """Max absolute deviation of the solution from reference(x) over grid."""
    xs = np.asarray(grid, dtype=np.float64).reshape(-1)
    if xs.shape[0] == 0:
        raise ValueError("grid must contain at least one point")
    ys = solution(xs)
    ref = np.array([float(reference(float(x))) for x in xs])
    return float(np.max(np.abs(ys - ref)))
