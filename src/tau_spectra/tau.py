"""Tau discretization and solve for linear operators with polynomial data.

A problem is an operator L u = f with m_c supplementary conditions, where

    L = sum over terms of p(x) * (d^i/dx^i | identity | integral from a to x)

and p and f are polynomials given by monomial coefficients.  The degree-n
approximation u_n = sum_k a_k nu_k satisfies the conditions exactly and the
first n+1-m_c coefficient rows of L u_n = f; the remaining rows of the
residual are the tail that the method perturbs the equation by.

Operator sections are composed per term as p(M) * A with A one of H^i, I, or
the Volterra matrix, all generated at section size n+1+h, where the height h
is how far the operator can raise coefficient indices; the section therefore
holds every row the degree-n image can touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .basis import (
    RecurrenceBasis,
    change_of_basis,
    clenshaw,
    eval_basis_derivs,
    recurrence_arrays,
)
from .linalg import cond_estimate_factored, lu_factor, lu_solve_factored, solve_upper_triangular
from .opmatrix import derivative_matrix, volterra_matrix

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
    "assemble_pi_power",
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


@dataclass(frozen=True)
class Diagnostics:
    cond_estimate: float
    growth: float
    height: int


@dataclass
class TauSolution:
    """Coefficient vector of the degree-n approximation plus solve metadata.

    coeffs_extended carries the same vector in the precision the refinement
    loop worked in; evaluators that must not lose the imposed conditions to
    float64 rounding (Laguerre series summed at large x) read it instead of
    coeffs.  residual_tail holds the coefficients of L[u_n] - f on the rows
    the square system left free (indices n-m_c+1 .. n+h): the perturbation
    the method committed to.
    """

    basis: RecurrenceBasis
    coeffs: np.ndarray
    diagnostics: Diagnostics
    coeffs_extended: np.ndarray
    residual_tail: np.ndarray

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, x):
        return clenshaw(self.basis, self.coeffs, x)


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


def _shift_apply(alpha, beta, gamma, t: np.ndarray) -> np.ndarray:
    """Product M @ t using only the tridiagonal coefficients of M."""
    s = t.shape[0]
    out = beta[:s, None] * t
    out[1:] += alpha[: s - 1, None] * t[:-1]
    out[:-1] += gamma[1:s, None] * t[1:]
    return out


def _power_shift_apply(t: np.ndarray) -> np.ndarray:
    """Product M @ t for the monomial shift, which moves rows down by one."""
    out = np.zeros_like(t)
    out[1:] = t[:-1]
    return out


def _poly_in_shift(shift, p: np.ndarray, a_mat: np.ndarray | None, s: int):
    """Horner evaluation of p(M) @ A (A = identity when a_mat is None), where
    shift(t) computes M @ t."""
    if a_mat is None:
        t = np.zeros((s, s))
        np.fill_diagonal(t, p[-1])
    else:
        t = p[-1] * a_mat
    for k in range(p.shape[0] - 2, -1, -1):
        t = shift(t)
        if a_mat is None:
            t[np.diag_indices(s)] += p[k]
        else:
            t += p[k] * a_mat
    return t


def assemble_pi(problem: TauProblem) -> np.ndarray:
    """Operator section Pi of shape (n+1+h, n+1): Pi @ a holds the
    nu-coefficients of L[u_n]."""
    n = problem.degree
    h = operator_height(problem.operator)
    s = n + 1 + h
    shift = partial(_shift_apply, *recurrence_arrays(problem.basis, s + 1))
    eta = None
    pi = np.zeros((s, s))
    for term in problem.operator:
        if term.action == "derivative":
            if eta is None:
                eta = derivative_matrix(problem.basis, s).data
            a_mat = eta
            for _ in range(term.order - 1):
                a_mat = eta @ a_mat
        elif term.action == "identity":
            a_mat = None
        else:
            a_mat = volterra_matrix(problem.basis, s, term.lower).data
        pi += _poly_in_shift(shift, term.coeff, a_mat, s)
    return pi[:, : n + 1]


def assemble_pi_power(terms, s: int) -> np.ndarray:
    """Monomial-basis operator section of shape (s, s), for the classic
    change-of-basis route (similarity_pi) and for oracle comparisons."""
    pi = np.zeros((s, s))
    k = np.arange(s)
    for term in terms:
        if term.action == "derivative":
            a_mat = np.zeros((s, s))
            j = np.arange(s - term.order, dtype=np.float64)
            fall = np.ones_like(j)
            for d in range(1, term.order + 1):
                fall *= j + d
            a_mat[k[: s - term.order], k[: s - term.order] + term.order] = fall
        elif term.action == "identity":
            a_mat = None
        else:
            a_mat = np.zeros((s, s))
            inv = 1.0 / (k[:-1] + 1.0)
            a_mat[k[:-1] + 1, k[:-1]] = inv
            a_mat[0, :] = -float(term.lower) ** (k + 1) / (k + 1.0)
        pi += _poly_in_shift(_power_shift_apply, term.coeff, a_mat, s)
    return pi


def project_rhs(coeff, basis: RecurrenceBasis, length: int) -> np.ndarray:
    """nu-coefficients of the polynomial with monomial coefficients coeff,
    exact by construction, padded with zeros to the requested length."""
    c = _trim_poly(coeff)
    d = c.shape[0] - 1
    if d + 1 > length:
        raise ValueError(f"polynomial degree {d} does not fit in length {length}")
    v = change_of_basis(basis, d)
    out = np.zeros(length)
    out[: d + 1] = solve_upper_triangular(v.T, c)
    return out


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
    coeffs = np.asarray(coeffs_ext, dtype=np.float64)
    return TauSolution(
        basis=problem.basis,
        coeffs=coeffs,
        diagnostics=diags,
        coeffs_extended=coeffs_ext,
        residual_tail=pi[keep:] @ coeffs - f_nu[keep:],
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
    ys = clenshaw(solution.basis, solution.coeffs, xs)
    ref = np.array([float(reference(float(x))) for x in xs])
    return float(np.max(np.abs(ys - ref)))
