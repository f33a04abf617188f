"""Independent high-precision references for checking tau-spectra outputs.

Every value here comes from mpmath by a route that shares no code with the
package under test (in particular not with ``tau_spectra.oracles``):

* Bessel: ``mpmath.besselj`` normalised at the right end point.
* Boundary layer ``eps*y'' = x*y, y(-1) = y(1) = 1``: the exact solution
  ``c1*Ai(k*x) + c2*Bi(k*x)`` with ``k = eps**(-1/3)``, c1 and c2 fitted to the
  boundary values at 50 digits.
* Volterra benchmark: the closed form ``(a-x)**-3 * exp(1/(2*(x-a)**2))``.

Results are cached per parameter set and grid, so a run pays for each
reference once however many outputs it checks against it.
"""

from __future__ import annotations

import functools

import mpmath
import numpy as np


@functools.lru_cache(maxsize=None)
def _bessel_ratio(m: int, right: float, xs: tuple[float, ...]) -> np.ndarray:
    with mpmath.workdps(30):
        scale = mpmath.besselj(m, right)
        return np.array([float(mpmath.besselj(m, x) / scale) for x in xs])


@functools.lru_cache(maxsize=None)
def _airy_bvp(epsilon: float, xs: tuple[float, ...]) -> np.ndarray:
    with mpmath.workdps(50):
        k = mpmath.mpf(epsilon) ** (-mpmath.mpf(1) / 3)

        def basis(x):
            return mpmath.airyai(k * x), mpmath.airybi(k * x)

        (ai_l, bi_l), (ai_r, bi_r) = basis(mpmath.mpf(-1)), basis(mpmath.mpf(1))
        det = ai_l * bi_r - ai_r * bi_l
        c1 = (bi_r - bi_l) / det
        c2 = (ai_l - ai_r) / det
        out = []
        for x in xs:
            ai, bi = basis(mpmath.mpf(x))
            out.append(float(c1 * ai + c2 * bi))
        return np.array(out)


@functools.lru_cache(maxsize=None)
def _volterra(a: float, xs: tuple[float, ...]) -> np.ndarray:
    with mpmath.workdps(30):
        am = mpmath.mpf(a)
        return np.array(
            [float(mpmath.exp(1 / (2 * (x - am) ** 2)) / (am - x) ** 3) for x in xs]
        )


def bessel_ratio(m: int, right: float, xs) -> np.ndarray:
    """J_m(x) / J_m(right) at each x."""
    return _bessel_ratio(int(m), float(right), tuple(float(x) for x in xs))


def airy_bvp(epsilon: float, xs) -> np.ndarray:
    """Solution of eps*y'' - x*y = 0 on [-1, 1] with y(-1) = y(1) = 1."""
    return _airy_bvp(float(epsilon), tuple(float(x) for x in xs))


def volterra(a: float, xs) -> np.ndarray:
    """Exact solution of (x-a)^3 y + integral_{-1}^x y = -exp(1/(2(1+a)^2))."""
    return _volterra(float(a), tuple(float(x) for x in xs))
