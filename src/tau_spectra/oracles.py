"""Independent reference values for testing the recurrence-built machinery.

Each oracle reaches its answer by a route disjoint from the code it checks:
operational-matrix columns via exact monomial arithmetic on small degrees,
Bessel values via Miller's normalized downward recurrence (cross-checked by
the ascending series), a closed-form solution for the Volterra benchmark, and
a Maclaurin-series two-point boundary solve for the stiff second-order
benchmark.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .basis import RecurrenceBasis, recurrence_arrays

__all__ = [
    "power_oracle_column",
    "bessel_j",
    "bessel_j_series",
    "volterra_exact",
    "volterra_forcing",
    "airy_bvp_reference",
]

_ORACLE_MAX_DEGREE = 25  # rational arithmetic cost grows fast beyond this


def _exact_monomial_rows(
    basis: RecurrenceBasis, count: int
) -> list[list[Fraction]]:
    """Monomial coefficients of nu_0 .. nu_count in exact rational arithmetic.

    The stored recurrence coefficients are binary floats, hence exact
    rationals; running the three-term recurrence over Fraction values
    therefore reproduces, with no rounding at all, the polynomial family
    those coefficients define.
    """
    alpha, beta, gamma = recurrence_arrays(basis, max(count, 1))
    al = [Fraction(a) for a in alpha]
    be = [Fraction(b) for b in beta]
    ga = [Fraction(g) for g in gamma]
    rows = [[Fraction(1)]]
    for k in range(count):
        cur = rows[k]
        prev = rows[k - 1] if k >= 1 else []
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += c  # the x * nu_k shift
            nxt[i] -= be[k] * c
        for i, c in enumerate(prev):
            nxt[i] -= ga[k] * c
        rows.append([c / al[k] for c in nxt])
    return rows


def power_oracle_column(
    basis: RecurrenceBasis, kind: str, j: int, lower: float | None = None
) -> np.ndarray:
    """Column j of an operational matrix computed through monomials.

    Expands nu_j into monomial coefficients, applies the monomial-basis
    operation for the requested kind (shift, derivative, integral, volterra),
    and converts back by triangular back-substitution.  Every step runs in
    exact rational arithmetic, so the result equals the recurrence-built
    column up to the float rounding of the recurrence path alone.  Returns a
    vector of length j+2 (every such column lives in indices 0..j+1).  Small
    degrees only: exact arithmetic gets expensive quickly.
    """
    if not 0 <= j <= _ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle supports 0 <= j <= {_ORACLE_MAX_DEGREE}, got {j}")
    if kind not in ("shift", "derivative", "integral", "volterra"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if kind == "volterra" and lower is None:
        raise ValueError("volterra oracle needs the lower integration limit")
    s = j + 2
    rows = _exact_monomial_rows(basis, s - 1)
    p = list(rows[j]) + [Fraction(0)] * (s - j - 1)
    if kind == "shift":
        q = [Fraction(0)] + p[: s - 1]
    elif kind == "derivative":
        q = [Fraction(i + 1) * p[i + 1] for i in range(s - 1)] + [Fraction(0)]
    else:
        q = [Fraction(0)] + [p[i] / (i + 1) for i in range(s - 1)]
        if kind == "volterra":
            # subtract the value at the lower limit so the primitive vanishes there
            a = Fraction(float(lower))
            q[0] = -sum(q[i] * a**i for i in range(1, s))
    out = [Fraction(0)] * s
    for k in range(s - 1, -1, -1):
        acc = q[k]
        for m in range(k + 1, s):
            acc -= out[m] * rows[m][k]
        out[k] = acc / rows[k][k]
    if kind == "integral":
        out[0] = Fraction(0)  # free constant fixed by zero nu_0-component
    return np.array([float(c) for c in out])


_MILLER_MAX_START = 100_000


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind by Miller's downward recurrence.

    Runs J_{k-1} = (2k/x) J_k - J_{k+1} downward from a start index far into
    the decaying regime and normalizes with J_0 + 2*sum J_{2k} = 1, which
    keeps full relative accuracy for the minimal solution.  The recurrence
    takes about m + 1.5x steps, so orders and arguments needing more than
    _MILLER_MAX_START of them are rejected instead of running unbounded.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    start = m + 25 + int(math.ceil(1.5 * x))
    if start > _MILLER_MAX_START:
        raise ValueError(f"J_{m}({x}) needs {start} recurrence steps, over {_MILLER_MAX_START}")
    if start % 2 == 1:
        start += 1
    fkp1 = 0.0
    fk = 1e-30
    even_sum = fk if start % 2 == 0 else 0.0
    target = math.nan
    for k in range(start, 0, -1):
        fkm1 = (2.0 * k / x) * fk - fkp1
        fkp1 = fk
        fk = fkm1
        idx = k - 1
        if idx == m:
            target = fk
        if idx > 0 and idx % 2 == 0:
            even_sum += fk
        if abs(fk) > 1e250:
            fk *= 1e-250
            fkp1 *= 1e-250
            even_sum *= 1e-250
            target *= 1e-250
    return target / (fk + 2.0 * even_sum)


def bessel_j_series(m: int, x: float) -> float:
    """Ascending series for J_m; accurate for small arguments, used as the
    independent cross-check of bessel_j."""
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    x = float(x)
    half = 0.5 * x
    term = 1.0
    for i in range(1, m + 1):
        term *= half / i
    total = term
    for k in range(1, 80):
        term *= -(half * half) / (k * (m + k))
        total += term
        if abs(term) <= 1e-25 * max(abs(total), 1e-280):
            break
    return total


def volterra_forcing(a: float, x: float) -> float:
    """f(x) = exp(1 / (2 (x-a)^2)), the function generating the Volterra
    benchmark: its derivative is the benchmark's exact solution."""
    return math.exp(1.0 / (2.0 * (x - a) ** 2))


def volterra_exact(a: float, x: float) -> float:
    """Exact solution y(x) = f'(x) = (a-x)^{-3} exp(1/(2(x-a)^2)) of
    (x-a)^3 y + integral from -1 to x of y = -f(-1)."""
    if not a > 1.0:
        raise ValueError(f"pole parameter must exceed 1, got {a}")
    if x >= a:
        raise ValueError(f"evaluation point must stay below the pole at {a}")
    return volterra_forcing(a, x) / (a - x) ** 3


_AIRY_EPS_MIN = 1e-3  # series cancellation destroys accuracy below this


@functools.lru_cache(maxsize=32)
def _airy_series_coeffs(epsilon: float) -> np.ndarray:
    """Maclaurin coefficients of the solution of eps*y'' = x*y, y(+-1) = 1.

    Two fundamental series (c0, c1) = (1, 0) and (0, 1) follow from
    c_{k+2} = c_{k-1} / (eps*(k+1)*(k+2)); the boundary conditions fix their
    combination by a 2x2 solve.
    """
    limit = 5000
    c1 = [1.0, 0.0, 0.0]
    c2 = [0.0, 1.0, 0.0]
    peak = 1.0
    quiet = 0
    k = 1
    while k < limit:
        nxt1 = c1[k - 1] / (epsilon * (k + 1.0) * (k + 2.0))
        nxt2 = c2[k - 1] / (epsilon * (k + 1.0) * (k + 2.0))
        c1.append(nxt1)
        c2.append(nxt2)
        mag = max(abs(nxt1), abs(nxt2))
        peak = max(peak, mag)
        quiet = quiet + 1 if mag <= 1e-22 * peak else 0
        if quiet >= 12:
            break
        k += 1
    else:
        raise ValueError(f"series for epsilon={epsilon} did not settle within {limit} terms")
    y1 = np.array(c1)
    y2 = np.array(c2)

    def horner(c, x):
        acc = 0.0
        for v in c[::-1]:
            acc = acc * x + v
        return acc

    p, q = horner(y1, -1.0), horner(y2, -1.0)
    r, t = horner(y1, 1.0), horner(y2, 1.0)
    det = p * t - q * r
    if det == 0.0:
        raise ValueError(f"boundary system is singular for epsilon={epsilon}")
    a = (t - q) / det
    b = (p - r) / det
    return a * y1 + b * y2


def airy_bvp_reference(epsilon: float, x: float, deriv: int = 0) -> float:
    """Reference solution of eps*y'' - x*y = 0 with y(-1) = y(1) = 1,
    evaluated at x (optionally a derivative), via boundary-fitted series."""
    epsilon = float(epsilon)
    if not epsilon >= _AIRY_EPS_MIN:
        raise ValueError(f"epsilon must be >= {_AIRY_EPS_MIN} for a trustworthy series")
    if deriv < 0:
        raise ValueError(f"derivative order must be >= 0, got {deriv}")
    c = _airy_series_coeffs(epsilon)
    for _ in range(deriv):
        c = c[1:] * np.arange(1.0, c.shape[0])
        if c.shape[0] == 0:
            return 0.0
    acc = 0.0
    for v in c[::-1]:
        acc = acc * float(x) + v
    return acc
