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


def clenshaw(basis: RecurrenceBasis, coeffs, x):
    """Evaluate sum_k coeffs[k]*nu_k(x) by backward recurrence in np.longdouble.

    x may be a scalar or an ndarray; the float64 result matches its shape.
    Summing a Laguerre series at large x cancels intermediate terms up to
    ~1e9 times the value, so float64 evaluation would only be good to ~1e-7
    absolute there.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.longdouble)
    if coeffs.ndim != 1 or coeffs.shape[0] == 0:
        raise ValueError("coeffs must be a non-empty 1-d array")
    n1 = coeffs.shape[0]
    alpha, beta, gamma = (arr.astype(np.longdouble) for arr in recurrence_arrays(basis, n1 + 1))
    xs = np.asarray(x, dtype=np.float64)
    flat = xs.reshape(-1).astype(np.longdouble)
    b1 = np.zeros_like(flat)
    b2 = np.zeros_like(flat)
    for k in range(n1 - 1, -1, -1):
        b = coeffs[k] + (flat - beta[k]) / alpha[k] * b1 - (gamma[k + 1] / alpha[k + 1]) * b2
        b2 = b1
        b1 = b
    vals = b1.astype(np.float64)
    if xs.ndim == 0:
        return float(vals[0])
    return vals.reshape(xs.shape)


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
