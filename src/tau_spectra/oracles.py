"""Independent reference values for the commands' error columns.

Each oracle reaches its answer by a route disjoint from the code it checks:
Bessel values via Miller's normalized downward recurrence (cross-checked by
the ascending series), a closed-form solution for the Volterra benchmark, and
a Maclaurin-series two-point boundary solve for the stiff second-order
benchmark.  The exact-rational oracle for operational-matrix columns lives
with the tests that use it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "bessel_j",
    "volterra_exact",
    "volterra_forcing",
    "airy_bvp_reference",
]

_MILLER_MAX_START = 100_000


def _miller_start(m: int, x: float) -> int:
    """Even start index of Miller's recurrence for J_m(x), 0 for x = 0;
    raises ValueError for a negative x or more than _MILLER_MAX_START steps."""
    if x < 0.0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 0
    start = m + 25 + int(math.ceil(1.5 * x))
    if start > _MILLER_MAX_START:
        raise ValueError(f"J_{m}({x}) needs {start} recurrence steps, over {_MILLER_MAX_START}")
    return start + start % 2


def bessel_j(m: int, x):
    """Bessel function of the first kind by Miller's downward recurrence.

    Runs J_{k-1} = (2k/x) J_k - J_{k+1} downward from a start index far into
    the decaying regime and normalizes with J_0 + 2*sum J_{2k} = 1, which
    keeps full relative accuracy for the minimal solution.  The recurrence
    takes about m + 1.5x steps, so orders and arguments needing more than
    _MILLER_MAX_START of them are rejected instead of running unbounded.

    x is a float, giving a float, or an array, giving an array of its shape.
    All points share one downward loop; each joins it at its own start index
    and sees exactly the operations a lone point would, so every array value
    equals the per-point value bitwise.  Where 2k/x overflows the loop past
    what the rescale can hold, at x > 0 below about 1e-59, the value is
    bessel_j_series(m, x), accurate there.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    xs = np.asarray(x, dtype=np.float64)
    starts = np.array([_miller_start(m, v) for v in xs.ravel().tolist()], dtype=np.int64)
    starts = starts.reshape(xs.shape)
    joins = set(starts.ravel().tolist())
    # A point's state stays exactly zero until the step at its own start
    # index, where fk takes 1e-30: the recurrence keeps zero at zero, with
    # x = 1 standing in until then so a tiny x cannot make inf * 0, and a
    # rescale of other points multiplies it by an exact 1.0.  [()] turns a
    # 0-d array into a numpy scalar, so a float argument runs on scalar
    # arithmetic.
    fk = fkp1 = np.zeros(xs.shape)[()]
    even_sum = np.full(xs.shape, 1e-30)[()]
    target = np.full(xs.shape, math.nan)[()]
    # Overflow and NaN run on silently, as they do in Python float arithmetic.
    with np.errstate(all="ignore"):
        for k in range(int(starts.max(initial=0)), 0, -1):
            if k in joins:
                xk = np.where(starts >= k, xs, 1.0)[()]
                fk = np.where(starts == k, 1e-30, fk)[()]
            fk, fkp1 = (2.0 * k / xk) * fk - fkp1, fk
            idx = k - 1
            if idx == m:
                target = fk
            if idx > 0 and idx % 2 == 0:
                even_sum = even_sum + fk
            big = abs(fk) > 1e250
            if np.count_nonzero(big):
                scale = np.where(big, 1e-250, 1.0)[()]
                fk, fkp1, even_sum, target = fk * scale, fkp1 * scale, even_sum * scale, target * scale
        values = np.where(starts > 0, target / (fk + 2.0 * even_sum), 1.0 if m == 0 else 0.0)
    lost = np.flatnonzero(~np.isfinite(values) & (xs > 0.0))
    if lost.size:
        values = np.array(values)  # writable, also for a 0-d result
        values.flat[lost] = [bessel_j_series(m, v) for v in xs.flat[lost].tolist()]
    return float(values) if values.ndim == 0 else values


def bessel_j_series(m: int, x: float) -> float:
    """Ascending series for J_m, m >= 0 (bessel_j checks it); accurate for
    small arguments, used as the independent cross-check of bessel_j."""
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


# Series cancellation destroys accuracy below this, and costs digits well
# above it: against a 50-digit mpmath Airy solution the series is itself off
# by 1.8e-6 at eps = 1e-3, 3.7e-8 at 2e-3, 4.2e-13 at 5e-3 and 1.05e-13 at
# 1e-2, so an error column below about 2e-3 measures the reference.
_AIRY_EPS_MIN = 1e-3


def _horner(c: np.ndarray, xs):
    """sum_k c[k] * xs**k by Horner's rule, per point bitwise for an array xs."""
    acc = np.zeros(np.shape(xs))[()]
    for v in c[::-1]:
        acc = acc * xs + v
    return acc


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
    p, q = _horner(y1, -1.0), _horner(y2, -1.0)
    r, t = _horner(y1, 1.0), _horner(y2, 1.0)
    det = p * t - q * r
    if det == 0.0:
        raise ValueError(f"boundary system is singular for epsilon={epsilon}")
    a = (t - q) / det
    b = (p - r) / det
    return a * y1 + b * y2


def airy_bvp_reference(epsilon: float, x, deriv: int = 0):
    """Reference solution of eps*y'' - x*y = 0 with y(-1) = y(1) = 1,
    evaluated at x (optionally a derivative), via boundary-fitted series.

    x is a float, giving a float, or an array, giving an array of its shape.
    One Horner loop over the series coefficients serves every point, with
    the per-point operations, so every array value equals the per-point
    value bitwise.
    """
    epsilon = float(epsilon)
    if not epsilon >= _AIRY_EPS_MIN:
        raise ValueError(f"epsilon must be >= {_AIRY_EPS_MIN} for a trustworthy series")
    if deriv < 0:
        raise ValueError(f"derivative order must be >= 0, got {deriv}")
    c = _airy_series_coeffs(epsilon)
    for _ in range(deriv):
        c = c[1:] * np.arange(1.0, c.shape[0])
        if c.shape[0] == 0:
            break
    xs = np.asarray(x, dtype=np.float64)[()]
    acc = _horner(c, xs)
    return float(acc) if xs.ndim == 0 else acc
