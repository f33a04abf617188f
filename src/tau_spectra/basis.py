"""Orthogonal polynomial bases defined by their three-term recurrence.

A basis nu_0, nu_1, ... with nu_0 = 1 is described by coefficients
(alpha_j, beta_j, gamma_j) in

    x * nu_j(x) = alpha_j * nu_{j+1}(x) + beta_j * nu_j(x) + gamma_j * nu_{j-1}(x)

with nu_{-1} = 0.  Jacobi and Laguerre families are built in; arbitrary bases,
the monomials among them, are supplied through a coefficient callback.
Everything downstream (evaluation, operational matrices, the solver)
consumes only these coefficients, so no change of basis to monomials is
ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BasisValidityError",
    "RecurrenceBasis",
    "jacobi",
    "laguerre",
    "custom",
    "monomial",
    "recurrence_arrays",
    "eval_basis_derivs",
    "clenshaw",
    "change_of_basis",
]


class BasisValidityError(ValueError):
    """A basis produced coefficients unusable for the intended operation."""


@dataclass(frozen=True)
class RecurrenceBasis:
    """A polynomial basis identified by its three-term recurrence."""

    family: str  # "jacobi" | "laguerre" | "custom"
    alpha: float = math.nan  # Jacobi weight exponents (unused otherwise)
    beta: float = math.nan
    coeff_fn: Callable[[int], tuple[float, float, float]] | None = None

    def label(self) -> str:
        if self.family == "jacobi":
            return f"jacobi({self.alpha:g},{self.beta:g})"
        return self.family


def jacobi(alpha: float, beta: float) -> RecurrenceBasis:
    """Jacobi basis for weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    alpha = float(alpha)
    beta = float(beta)
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    return RecurrenceBasis(family="jacobi", alpha=alpha, beta=beta)


def laguerre() -> RecurrenceBasis:
    """Laguerre basis for weight exp(-x) on [0, inf)."""
    return RecurrenceBasis(family="laguerre")


def custom(coeff_fn: Callable[[int], tuple[float, float, float]]) -> RecurrenceBasis:
    """Basis defined by a callback j -> (alpha_j, beta_j, gamma_j)."""
    return RecurrenceBasis(family="custom", coeff_fn=coeff_fn)


def monomial() -> RecurrenceBasis:
    """The powers x^j: alpha_j = 1, beta_j = gamma_j = 0.  Not orthogonal;
    the classic change-of-basis route builds its operator sections in this
    basis."""
    return custom(lambda j: (1.0, 0.0, 0.0))


def recurrence_arrays(
    basis: RecurrenceBasis, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient arrays (alpha, beta, gamma) for indices 0 .. count-1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if basis.family == "jacobi":
        a, b = basis.alpha, basis.beta
        g = a + b
        j = np.arange(1.0, count)
        alpha = np.empty(count)
        beta = np.empty(count)
        gamma = np.empty(count)
        # Factored limit forms at j = 0, valid for all a, b > -1 (the generic
        # formulas hit 0/0 at g = 0 and g = -1).
        alpha[0] = 2.0 / (g + 2.0)
        beta[0] = (b - a) / (g + 2.0)
        gamma[0] = 0.0
        alpha[1:] = 2.0 * (j + 1.0) * (j + g + 1.0) / ((2.0 * j + g + 1.0) * (2.0 * j + g + 2.0))
        beta[1:] = (b - a) * g / ((2.0 * j + g) * (2.0 * j + g + 2.0))
        gamma[1:] = 2.0 * (j + a) * (j + b) / ((2.0 * j + g) * (2.0 * j + g + 1.0))
    elif basis.family == "laguerre":
        j = np.arange(float(count))
        alpha = -(j + 1.0)
        beta = 2.0 * j + 1.0
        gamma = -j
    else:
        alpha = np.empty(count)
        beta = np.empty(count)
        gamma = np.empty(count)
        for k in range(count):
            alpha[k], beta[k], gamma[k] = basis.coeff_fn(k)
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all() and np.isfinite(gamma).all()):
        raise BasisValidityError("recurrence requires finite alpha_j, beta_j, gamma_j for every j")
    if np.any(alpha == 0.0):
        raise BasisValidityError("recurrence requires nonzero alpha_j for every j")
    return alpha, beta, gamma


def eval_basis_derivs(basis: RecurrenceBasis, n: int, x: float, r: int = 0) -> np.ndarray:
    """Table of nu_k^(d)(x) for k = 0..n, d = 0..r, shape (r+1, n+1), in
    np.longdouble.

    Built from the recurrence differentiated d times:
        x*nu_j^(d) + d*nu_j^(d-1) = alpha_j*nu_{j+1}^(d) + beta_j*nu_j^(d)
                                    + gamma_j*nu_{j-1}^(d),
    carried in extended precision from the float64 coefficients.  Condition
    rows of Laguerre problems hold values ~1e13 whose float64 recurrence
    error alone would perturb the imposed functional by ~1e-7.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if r < 0:
        raise ValueError(f"derivative order must be >= 0, got {r}")
    x = np.longdouble(float(x))
    alpha, beta, gamma = (arr.astype(np.longdouble) for arr in recurrence_arrays(basis, max(n, 1)))
    out = np.zeros((r + 1, n + 1), dtype=np.longdouble)
    out[0, 0] = 1.0
    for j in range(n):
        # nu_{j+1} has degree j+1, so its rows d > j+1 stay exactly zero
        for d in range(min(r, j + 1) + 1):
            v = (x - beta[j]) * out[d, j]
            if d > 0:
                v += d * out[d - 1, j]
            if j > 0:
                v -= gamma[j] * out[d, j - 1]
            out[d, j + 1] = v / alpha[j]
    return out


# Unit roundoff of float64 and Higham's gamma_5 = 5u / (1 - 5u), the relative
# error of five roundings in a row: the most one float64 Clenshaw step
# commits to any of its terms.
_U64 = 2.0**-53
_GAMMA5 = 5.0 * _U64 / (1.0 - 5.0 * _U64)


def _sup_nu(basis: RecurrenceBasis, count: int, lo: float, hi: float) -> np.ndarray | None:
    """B_k >= max |nu_k(x)| over lo <= x <= hi for k < count, from a closed
    form rounded up, or None where none is known.

    Jacobi with q = max(alpha, beta) >= -1/2 on [-1, 1]: binom(k + q, k),
    the value at the endpoint of the larger exponent (Szego, Orthogonal
    Polynomials, Thm 7.32.1), as a cumulative product.  It is rounded up by a
    relative 2^-50 (k+1)^2, which covers the product's 3k roundings and how
    far nu_k, built from the float64 recurrence coefficients, strays from the
    exact polynomial: at most 0.5 (k+1)^2 2^-53 over k <= 2000 and a dozen
    (alpha, beta).  Laguerre on [0, inf): e^(hi/2) (Szego (7.21.3)); its
    recurrence coefficients are exact.  An overflow reads inf.
    """
    with np.errstate(over="ignore"):
        if basis.family == "jacobi" and -1.0 <= lo and hi <= 1.0:
            q = max(basis.alpha, basis.beta)
            if q >= -0.5:
                j = np.arange(1.0, count)
                binom = np.cumprod(np.concatenate(([1.0], (j + q) / j)))
                return binom * (1.0 + 2.0**-50 * np.arange(1.0, count + 1.0) ** 2)
        if basis.family == "laguerre" and lo >= 0.0:
            return np.full(count, np.exp(0.5 * hi) * (1.0 + 2.0**-48))
    return None


def _head_budget(basis: RecurrenceBasis, coeffs: np.ndarray, recurrence, xs: np.ndarray):
    """(tau, keep, spent, wc, wu, wg): the sum keeps the terms k < keep,
    which moves it by at most spent at any point of xs, and float64 step k
    adds at most wc[k] + wu[k]*s1 + wg[k]*s2 to its error, where s1 and s2
    are the largest |b_{k+1}| and |b_{k+2}| the steps before it computed; or
    None where no closed-form bound on |nu_k| covers xs.

    The terms from K on add at most S_K = sum_{k >= K} |c_k| B_k to the sum
    at any point, with B_k >= sup |nu_k|.  keep is the smallest K with
    S_K <= tau/2 (Aurentz & Trefethen, "Chopping a Chebyshev series", ACM
    TOMS 43, 2017), and spent = S_keep is charged to the same tau the head
    spends, so the head gets what the chop leaves.  A nan S_K (an infinite
    B_k times a zero c_k) or an infinite one fails that test, so no term at
    or past an overflowing B_k is dropped; where no K passes, keep = n + 1
    and spent = 0.

    Step k computes b_k = c_k + (x - beta_k)/alpha_k * b_{k+1}
    - (gamma_{k+1}/alpha_{k+1}) * b_{k+2}, and an error delta in b_k enters
    the steps below it exactly as a change of c_k would, so it moves the sum
    by delta * nu_k(x).  Five roundings bound delta by
    gamma_5 * (|c_k| + U_k*s1 + G_k*s2), with U_k = max |x - beta_k| / |alpha_k|
    over xs and G_k = |gamma_{k+1}/alpha_{k+1}|; times B_k >= sup |nu_k| that
    is the step's share.  A relative 2^-50 per step covers the roundings of
    U_k, G_k and of the running sum itself; the same factor, 2^-50 (n + 9),
    rounds S_K up past its n + 3 roundings.  Underflow is not counted: its
    absolute errors, below 2^-1074 an operation, stay far under tau unless
    max|coeffs| is itself near the bottom of the float64 range.
    """
    if xs.size == 0 or not np.isfinite(xs).all():
        return None
    tau = float(np.finfo(np.longdouble).eps * np.max(np.abs(coeffs)))
    lo, hi = float(xs.min()), float(xs.max())
    n1 = coeffs.shape[0]
    sup = _sup_nu(basis, n1, lo, hi)
    if sup is None or not math.isfinite(tau):
        return None
    alpha, beta, gamma = recurrence
    up = 1.0 + 2.0**-50 * (n1 + 8)
    # An infinite B_k makes its step's cost and every S_K from it down inf or
    # nan, either of which ends the head and keeps the term.
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(coeffs).astype(np.float64)
        w = _GAMMA5 * up * sup
        u = np.maximum(np.abs(hi - beta[:n1]), np.abs(lo - beta[:n1])) / np.abs(alpha[:n1])
        g = np.abs(gamma[1:] / alpha[1:])
        wc = w * mag
        tail = np.append(np.cumsum((mag * sup)[::-1])[::-1] * up, 0.0)
    # S_K falls as K grows, so the K with S_K <= tau/2 are a run up to n1.
    keep = n1 + 1 - int(np.count_nonzero(tail <= 0.5 * tau))
    return tau, keep, float(tail[keep]), wc.tolist(), (w * u).tolist(), (w * g).tolist()


def clenshaw(basis: RecurrenceBasis, coeffs, x):
    """Evaluate sum_k coeffs[k]*nu_k(x) by backward recurrence, to the
    accuracy of a sum run wholly in np.longdouble.

    x may be a scalar or an ndarray; the float64 result matches its shape.
    Summing a Laguerre series at large x cancels intermediate terms up to
    ~1e9 times the value, so float64 evaluation would only be good to ~1e-7
    absolute there.

    The terms from K on cannot move the sum by more than
    S_K = sum_{k >= K} |coeffs[k]| B_k at any point, where B_k >= sup |nu_k|
    over the points is a closed form (Szego, Orthogonal Polynomials,
    Thm 7.32.1 for Jacobi, (7.21.3) for Laguerre; see _head_budget).  So the
    recurrence drops them, starting at the smallest K with S_K <= tau/2, where
    tau = np.finfo(np.longdouble).eps * max|coeffs| (Aurentz & Trefethen,
    ACM TOMS 43, 2017).  The top of what remains, where the terms are still
    small, runs in float64.  It hands b_{k+1} and b_{k+2} (exact in long
    double) to np.longdouble at the first step where S_K plus a first-order
    bound on the error of its float64 steps would exceed tau.  Each step's
    rounding reaches the sum multiplied by nu_k(x) (Barrio, J. Comput. Appl.
    Math. 138, 2002), and the bound weights it by the same B_k, so it costs
    one float64 reduction, max|b_k|, a step.  The chop and the head thus
    spend one tau between them: an output value moves from the all-long-double
    sum by at most tau plus the long-double rounding either sum carries, and
    one float64 rounding.  The chop and the switch depend on the extreme
    points, so a value can move by as much with the other points summed
    alongside it.  A series where no S_K reaches tau/2 keeps every term, and
    where no B_k is known every step runs in long double, bit for bit the
    plain loop: custom bases, Jacobi with max(alpha, beta) < -1/2, points
    outside [-1, 1] (Jacobi) or below 0 (Laguerre), no points, or a point
    that is not finite.
    """
    xs = np.asarray(x, dtype=np.float64)
    sums, _, _ = _clenshaw_steps(basis, coeffs, xs.reshape(-1))
    vals = sums.astype(np.float64)
    if xs.ndim == 0:
        return float(vals[0])
    return vals.reshape(xs.shape)


def _clenshaw_steps(
    basis: RecurrenceBasis, coeffs, xs: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """clenshaw at the flat float64 points xs: the sums in the precision of
    the last step, the index K the recurrence started at (b_K = b_{K+1} = 0,
    so K = len(coeffs) where no term was dropped), and how many of the steps
    ran in long double."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.longdouble)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise ValueError("coeffs must be a non-empty 1-d array")
    n1 = coeffs.shape[0]
    recurrence = recurrence_arrays(basis, n1 + 1)
    budget = _head_budget(basis, coeffs, recurrence, xs)
    keep = n1
    if budget is not None:
        tau, keep, spent, wc, wu, wg = budget
    work = np.longdouble if budget is None else np.float64
    extended = n1 if budget is None else 0
    c, alpha, beta, gamma, xw = (a.astype(work) for a in (coeffs, *recurrence, xs))
    b1 = b2 = np.zeros_like(xw)
    s1 = s2 = 0.0
    for k in range(keep - 1, -1, -1):
        if work is np.float64:
            spent += wc[k] + wu[k] * s1 + wg[k] * s2
            if not spent <= tau:
                work = np.longdouble
                extended = k + 1
                c, alpha, beta, gamma, xw, b1, b2 = (
                    a.astype(work) for a in (coeffs, *recurrence, xs, b1, b2)
                )
        b = c[k] + (xw - beta[k]) / alpha[k] * b1 - (gamma[k + 1] / alpha[k + 1]) * b2
        b2 = b1
        b1 = b
        if work is np.float64:
            s2, s1 = s1, float(np.abs(b).max())
    return b1, keep, extended


def change_of_basis(basis: RecurrenceBasis, n: int) -> np.ndarray:
    """Lower-triangular V with nu_i(x) = sum_j V[i, j] x^j, shape (n+1, n+1).

    Row i+1 follows from the recurrence applied to monomial coefficients.
    Entries grow like the inverse leading coefficients, so large n (hundreds)
    overflows; intended for modest sizes and conditioning demonstrations.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    alpha, beta, gamma = recurrence_arrays(basis, max(n, 1))
    v = np.zeros((n + 1, n + 1))
    v[0, 0] = 1.0
    for j in range(n):
        row = np.zeros(n + 1)
        row[1:] = v[j, :-1]
        row -= beta[j] * v[j]
        if j > 0:
            row -= gamma[j] * v[j - 1]
        v[j + 1] = row / alpha[j]
    return v
