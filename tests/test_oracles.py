"""Reference computations checked against closed forms, independent
quadrature, a finite-difference BVP solve, and each other."""

import math
import sys

import numpy as np
import pytest

from tau_spectra.basis import jacobi, laguerre
from tau_spectra.oracles import (
    _airy_series_coeffs,
    airy_bvp_reference,
    bessel_j,
    bessel_j_series,
    volterra_exact,
    volterra_forcing,
)
from monomial_oracle import power_oracle_column


def test_oracle_derivative_legendre_j3():
    # columns come back with length j+2
    col = power_oracle_column(jacobi(0.0, 0.0), "derivative", 3)
    assert np.allclose(col, [1.0, 0.0, 5.0, 0.0, 0.0], atol=1e-12)


def test_oracle_derivative_j0_is_zero():
    for basis in (jacobi(0.0, 0.0), jacobi(10.0, 0.0), laguerre()):
        col = power_oracle_column(basis, "derivative", 0)
        assert np.all(col == 0.0)


def test_oracle_volterra_legendre_j0():
    col = power_oracle_column(jacobi(0.0, 0.0), "volterra", 0, lower=-1.0)
    assert np.allclose(col, [1.0, 1.0], atol=1e-14)


def test_oracle_rejects_large_degree():
    with pytest.raises(ValueError):
        power_oracle_column(jacobi(0.0, 0.0), "shift", 26)


def test_bessel_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for m in (1, 2, 7):
        assert bessel_j(m, 0.0) == 0.0


def test_bessel_rejects_unbounded_recurrence():
    for m, x in ((0, 1e308), (10**9, 1.0), (0, 1e5)):
        with pytest.raises(ValueError, match="recurrence steps"):
            bessel_j(m, x)
    assert math.isfinite(bessel_j(100, 6e4))


def test_bessel_order_one_at_one():
    assert bessel_j(1, 1.0) == pytest.approx(0.44005058574493355, abs=1e-12)


def test_bessel_three_term_identity():
    for m in range(1, 21):
        for x in (1.0, 10.0, 30.0, 60.0):
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = 2.0 * m / x * bessel_j(m, x)
            scale = max(abs(lhs), abs(rhs), 1e-8)
            assert abs(lhs - rhs) <= 1e-10 * scale, (m, x)


def test_bessel_miller_matches_series_small_x():
    for m in range(11):
        for x in (0.5, 2.0, 5.0, 10.0):
            assert bessel_j(m, x) == pytest.approx(bessel_j_series(m, x), abs=1e-12)


@pytest.mark.parametrize("m", [0, 1, 10, 25])
def test_bessel_matches_mpmath_on_grid(m):
    # independent route: mpmath's hypergeometric-series besselj at 30 digits
    mpmath = pytest.importorskip("mpmath")
    grid = np.linspace(0.0, 60.0, 1201)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(m, mpmath.mpf(float(x)))) for x in grid])
    ours = np.array([bessel_j(m, float(x)) for x in grid])
    assert np.max(np.abs(ours - ref)) <= 1e-14


def _miller_per_point(m, x):
    """Miller's recurrence for one point, as a scalar Python loop; returns
    J_m(x) and whether the 1e250 rescale fired."""
    if x == 0.0:
        return (1.0 if m == 0 else 0.0), False
    start = m + 25 + int(math.ceil(1.5 * x))
    start += start % 2
    fkp1, fk, even_sum, target, rescaled = 0.0, 1e-30, 1e-30, math.nan, False
    for k in range(start, 0, -1):
        fkp1, fk = fk, (2.0 * k / x) * fk - fkp1
        if k - 1 == m:
            target = fk
        if k - 1 > 0 and (k - 1) % 2 == 0:
            even_sum += fk
        if abs(fk) > 1e250:
            fk, fkp1, even_sum, target = fk * 1e-250, fkp1 * 1e-250, even_sum * 1e-250, target * 1e-250
            rescaled = True
    return target / (fk + 2.0 * even_sum), rescaled


@pytest.mark.parametrize("m", [0, 1, 10, 100])
def test_bessel_array_equals_per_point_bitwise(m):
    # shuffled, so points with different start indices interleave; the small
    # arguments make the rescale fire at different steps
    points = np.r_[0.0, 1e-8, 0.5, np.geomspace(1e-12, 1.0, 16), np.linspace(0.0, 60.0, 241)]
    grid = np.random.default_rng(m).permutation(points)
    expected = {x: _miller_per_point(m, x) for x in grid.tolist()}
    want = np.array([expected[x][0] for x in grid.tolist()])
    assert bessel_j(m, grid).tobytes() == want.tobytes()
    assert bessel_j(m, grid.reshape(4, 65)).tobytes() == want.tobytes()
    assert np.array([bessel_j(m, x) for x in grid.tolist()]).tobytes() == want.tobytes()
    rescaled = {x for x, (_, fired) in expected.items() if fired}
    if m == 100:
        assert {1e-8, 0.5} <= rescaled
    if m == 10:
        assert 1e-8 in rescaled


@pytest.mark.parametrize("deriv", [0, 2])
@pytest.mark.parametrize("eps", [1e-2, 5e-3, 2e-3, 1e-3])
def test_airy_array_equals_per_point_bitwise(eps, deriv):
    c = _airy_series_coeffs(eps)
    for _ in range(deriv):
        c = c[1:] * np.arange(1.0, c.shape[0])
    grid = np.linspace(-1.0, 1.0, 401)

    def horner(x):
        acc = 0.0
        for v in c[::-1]:
            acc = acc * x + v
        return acc

    want = np.array([horner(x) for x in grid.tolist()])
    assert airy_bvp_reference(eps, grid, deriv).tobytes() == want.tobytes()
    per_point = [airy_bvp_reference(eps, x, deriv) for x in grid.tolist()]
    assert np.array(per_point).tobytes() == want.tobytes()


def test_float_argument_returns_python_float():
    for value in (
        bessel_j(1, 0.5),
        bessel_j(0, 0.0),
        airy_bvp_reference(1e-2, 0.25),
        airy_bvp_reference(1e-2, 0.25, deriv=10_000),
    ):
        assert type(value) is float


def test_volterra_exact_closed_forms():
    assert volterra_exact(1.25, -1.0) == pytest.approx(math.exp(1.0 / 10.125) / 2.25**3, rel=1e-15)
    assert volterra_exact(2.0, 1.0) == pytest.approx(math.exp(0.5), rel=1e-15)


def test_volterra_exact_domain():
    with pytest.raises(ValueError):
        volterra_exact(1.25, 1.25)
    with pytest.raises(ValueError):
        volterra_exact(1.25, 1.3)
    with pytest.raises(ValueError):
        volterra_exact(0.5, 0.0)


def _adaptive_simpson(f, a, b, tol=1e-13, depth=24):
    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def test_volterra_integral_identity():
    # (x-a)^3 y(x) + integral_{-1}^x y = -f(-1), quadrature fully independent
    a = 1.25
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            integral = _adaptive_simpson(lambda t: volterra_exact(a, t), -1.0, x) if x > -1.0 else 0.0
            residual = (x - a) ** 3 * volterra_exact(a, x) + integral + volterra_forcing(a, -1.0)
            assert abs(residual) <= 1e-12, x
    finally:
        sys.setrecursionlimit(limit)


def test_airy_boundary_values():
    for eps in (1e-2, 0.3, 1.0):
        assert airy_bvp_reference(eps, -1.0) == pytest.approx(1.0, abs=1e-12)
        assert airy_bvp_reference(eps, 1.0) == pytest.approx(1.0, abs=1e-12)
    # at the bottom of the supported range the series fit cancels ~1e9,
    # which costs double precision most of its digits at the boundary
    assert airy_bvp_reference(1e-3, -1.0) == pytest.approx(1.0, abs=1e-6)
    assert airy_bvp_reference(1e-3, 1.0) == pytest.approx(1.0, abs=1e-5)


def test_airy_equation_residual():
    eps = 1e-2
    xs = np.linspace(-1.0, 1.0, 21)
    peak = max(abs(airy_bvp_reference(eps, float(x))) for x in xs)
    for x in xs:
        resid = eps * airy_bvp_reference(eps, float(x), deriv=2) - x * airy_bvp_reference(
            eps, float(x)
        )
        assert abs(resid) <= 1e-10 * peak


def _airy_series_explicit(eps, x, nterms):
    c1 = [1.0, 0.0, 0.0]
    c2 = [0.0, 1.0, 0.0]
    for k in range(1, nterms):
        c1.append(c1[k - 1] / (eps * (k + 1.0) * (k + 2.0)))
        c2.append(c2[k - 1] / (eps * (k + 1.0) * (k + 2.0)))

    def horner(c, t):
        acc = 0.0
        for v in c[::-1]:
            acc = acc * t + v
        return acc

    p, q = horner(c1, -1.0), horner(c2, -1.0)
    r, t = horner(c1, 1.0), horner(c2, 1.0)
    det = p * t - q * r
    a = (t - q) / det
    b = (p - r) / det
    return a * horner(c1, x) + b * horner(c2, x)


def test_airy_series_truncation_settled():
    for eps in (1e-2, 1e-1):
        for x in np.linspace(-1.0, 1.0, 21):
            short = _airy_series_explicit(eps, float(x), 300)
            long = _airy_series_explicit(eps, float(x), 600)
            assert abs(short - long) <= 1e-12
            assert abs(long - airy_bvp_reference(eps, float(x))) <= 1e-12


def _airy_fd_value_at_zero(eps, npts):
    """Second-order central differences on a uniform mesh, Thomas solve."""
    h = 2.0 / (npts - 1)
    xs = np.linspace(-1.0, 1.0, npts)
    n = npts - 2
    sub = np.full(n, eps / h**2)
    dia = -2.0 * eps / h**2 - xs[1:-1]
    sup = np.full(n, eps / h**2)
    rhs = np.zeros(n)
    rhs[0] -= eps / h**2
    rhs[-1] -= eps / h**2
    c = sup.copy()
    d = rhs.copy()
    c[0] /= dia[0]
    d[0] /= dia[0]
    for i in range(1, n):
        m = dia[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / m
        d[i] = (d[i] - sub[i] * d[i - 1]) / m
    y = np.empty(n)
    y[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        y[i] = d[i] - c[i] * y[i + 1]
    mid = (npts - 1) // 2 - 1
    assert abs(xs[1:][mid]) < 1e-14
    return y[mid]


def test_airy_cross_checked_by_finite_differences():
    eps = 1e-2
    coarse = _airy_fd_value_at_zero(eps, 2001)
    fine = _airy_fd_value_at_zero(eps, 4001)
    richardson = (4.0 * fine - coarse) / 3.0
    assert abs(richardson - airy_bvp_reference(eps, 0.0)) <= 1e-8


def test_airy_rejects_tiny_epsilon():
    with pytest.raises(ValueError):
        airy_bvp_reference(1e-4, 0.0)


@pytest.mark.parametrize("m", [0, 1, 10])
def test_bessel_finite_at_tiny_arguments(m):
    # There 2k/x overflows the downward recurrence; the series takes over.
    grid = np.geomspace(1e-300, 1e-3, 298)
    values = bessel_j(m, grid)
    assert np.all(np.isfinite(values))
    series = np.array([bessel_j_series(m, x) for x in grid.tolist()])
    assert np.all(np.abs(values - series) <= 2e-15 * np.maximum(np.abs(series), 1e-300))
    assert np.array([bessel_j(m, x) for x in grid.tolist()]).tobytes() == values.tobytes()
    assert bessel_j(m, 1e-100) == (1.0 if m == 0 else bessel_j_series(m, 1e-100))
