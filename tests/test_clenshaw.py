"""Clenshaw summation with a float64 head: where the head hands over to long
double, that the closed-form bounds on |nu_k| hold, that the sum stays
within its error budget of a 50-digit sum, and that every basis or point set
without a known bound takes the all-long-double loop bit for bit."""

import math

import numpy as np
import pytest

from tau_spectra import solve_tau
from tau_spectra.basis import (
    _clenshaw_steps,
    _sup_nu,
    clenshaw,
    custom,
    jacobi,
    laguerre,
    recurrence_arrays,
)
from tau_spectra.cli import GRID_BESSEL, GRID_JACOBI, TABLE2_LOWER, bessel_problem, volterra_problem

U64 = 2.0**-53
EPS_LD = float(np.finfo(np.longdouble).eps)


def _longdouble_clenshaw(basis, coeffs, x):
    """The sum run wholly in np.longdouble, step for step as clenshaw runs
    it where no bound on |nu_k| is known: the oracle for those routes."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.longdouble)
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


def _chebyshev(j):
    return (1.0, 0.0, 0.0) if j == 0 else (0.5, 0.0, 0.5)


def _decaying(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n) * 0.97 ** np.arange(n)


@pytest.mark.parametrize(
    "basis, x",
    [
        (custom(_chebyshev), np.linspace(-1.0, 1.0, 101)),
        (jacobi(-0.9, -0.9), np.linspace(-1.0, 1.0, 101)),
        (jacobi(0.0, 0.0), np.linspace(-1.0, 1.5, 101)),
        (laguerre(), np.linspace(-1.0, 20.0, 101)),
        (laguerre(), np.linspace(0.0, 1500.0, 101)),
        (jacobi(0.5, -0.5), np.array([-1.0, 0.25, math.nan, 1.0])),
        (laguerre(), np.array([0.0, 3.0, math.nan])),
        (jacobi(0.0, 0.0), np.array([])),
        (laguerre(), np.zeros((0, 3))),
    ],
    ids=[
        "custom",
        "jacobi(-0.9,-0.9)",
        "jacobi-grid-to-1.5",
        "laguerre-grid-from-minus-1",
        "laguerre-bound-overflows",
        "jacobi-nan-point",
        "laguerre-nan-point",
        "empty",
        "empty-2d",
    ],
)
def test_unbounded_routes_run_the_long_double_loop_bitwise(basis, x):
    coeffs = _decaying(200, 31)
    out = clenshaw(basis, coeffs, x)
    assert out.shape == x.shape
    assert np.array_equal(out, _longdouble_clenshaw(basis, coeffs, x), equal_nan=True)
    assert _clenshaw_steps(basis, coeffs, x.reshape(-1))[1] == coeffs.shape[0]


def test_bounded_route_still_takes_a_scalar():
    coeffs = _decaying(300, 32)
    value = clenshaw(jacobi(0.0, 0.0), coeffs, 0.3)
    assert isinstance(value, float)
    assert _clenshaw_steps(jacobi(0.0, 0.0), coeffs, np.array([0.3]))[1] < 300
    assert abs(value - _longdouble_clenshaw(jacobi(0.0, 0.0), coeffs, 0.3)) <= 4 * U64 * abs(value)


def test_switch_lands_late_on_legendre_and_early_on_laguerre():
    """table2's Legendre n = 1000 series runs all but about 60 of its 1001
    steps in float64; on the Bessel grid [0, 60] B_k = e^30 stops the head
    after about 44 of 2001."""
    grid = np.linspace(*GRID_JACOBI)
    legendre = solve_tau(volterra_problem(jacobi(0.0, 0.0), 1000, TABLE2_LOWER))
    assert _clenshaw_steps(legendre.basis, legendre.coeffs_extended, grid)[1] < 100
    bessel = solve_tau(bessel_problem(10, 2000))
    grid = np.linspace(*GRID_BESSEL)
    assert _clenshaw_steps(bessel.basis, bessel.coeffs_extended, grid)[1] >= 1900


def _forward_values(basis, count, xs):
    """nu_0 .. nu_{count-1} at xs by the forward recurrence in long double,
    shape (count, len(xs))."""
    alpha, beta, gamma = (a.astype(np.longdouble) for a in recurrence_arrays(basis, count))
    x = xs.astype(np.longdouble)
    nu = np.zeros((count, x.shape[0]), dtype=np.longdouble)
    nu[0] = 1.0
    for j in range(count - 1):
        prev = nu[j - 1] if j else 0.0
        nu[j + 1] = ((x - beta[j]) * nu[j] - gamma[j] * prev) / alpha[j]
    return nu


pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

mpmath = pytest.importorskip("mpmath")


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.99, 12.0),
    st.floats(-0.5, 12.0),
    st.booleans(),
    st.integers(1, 400),
)
def test_jacobi_bound_covers_the_polynomials_on_the_interval(other, q, swap, k):
    """Szego Thm 7.32.1: for q = max(a, b) >= -1/2, |P_k^(a,b)| <= binom(k+q, k)
    on [-1, 1], reached at an endpoint."""
    a, b = (min(other, q), q) if swap else (q, min(other, q))
    grid = np.linspace(-1.0, 1.0, 2001)
    sup = np.max(np.abs(_forward_values(jacobi(a, b), k + 1, grid)), axis=1)
    assert np.all(sup <= _sup_nu(jacobi(a, b), k + 1, -1.0, 1.0))


def test_laguerre_bound_covers_the_polynomials_on_the_half_line():
    """Szego (7.21.3): |L_k(x)| <= e^(x/2) for x >= 0, checked per point."""
    grid = np.linspace(0.0, 60.0, 601)
    nu = np.abs(_forward_values(laguerre(), 401, grid))
    bound = np.array([_sup_nu(laguerre(), 1, 0.0, x)[0] for x in grid])
    assert np.all(nu <= bound)


def _mp_sum(basis, coeffs, xs):
    """The exact Clenshaw sum of the long-double coefficients over the
    float64 recurrence coefficients, at 50 digits."""
    with mpmath.workdps(50):
        recurrence = recurrence_arrays(basis, len(coeffs) + 1)
        alpha, beta, gamma = ([mpmath.mpf(v) for v in arr.tolist()] for arr in recurrence)
        cs = [_mp(c) for c in coeffs.tolist()]
        out = []
        for x in xs.tolist():
            x = mpmath.mpf(x)
            b1 = b2 = mpmath.mpf(0)
            for k in range(len(cs) - 1, -1, -1):
                b = cs[k] + (x - beta[k]) / alpha[k] * b1 - gamma[k + 1] / alpha[k + 1] * b2
                b1, b2 = b, b1
            out.append(b1)
        return out


def _long_double_rounding(basis, coeffs, xs, steps):
    """Running bound on the rounding of the long-double steps k < steps at
    each point: step k's rounding, gamma_5 in long double times
    |c_k| + |x - beta_k|/|alpha_k| |b_{k+1}| + |gamma_{k+1}/alpha_{k+1}| |b_{k+2}|,
    reaches the sum times |nu_k(x)|."""
    n1 = coeffs.shape[0]
    alpha, beta, gamma = (a.astype(np.longdouble) for a in recurrence_arrays(basis, n1 + 1))
    x = xs.astype(np.longdouble)
    nu = np.abs(_forward_values(basis, n1, xs))
    b1 = b2 = np.zeros_like(x)
    total = np.zeros_like(x)
    for k in range(n1 - 1, -1, -1):
        if k < steps:
            step = abs((x - beta[k]) / alpha[k] * b1) + abs(gamma[k + 1] / alpha[k + 1] * b2)
            total += nu[k] * (abs(coeffs[k]) + step)
        b1, b2 = coeffs[k] + (x - beta[k]) / alpha[k] * b1 - (gamma[k + 1] / alpha[k + 1]) * b2, b1
    return 1.01 * 5.0 * (0.5 * EPS_LD) * total.astype(np.float64)


def _mp(value):
    n, d = value.as_integer_ratio()
    return mpmath.mpf(n) / d


def _assert_within_budget(basis, coeffs, xs):
    """The float64 head spends at most tau = eps_ld max|c|: before its last
    rounding to float64, the sum is within tau plus the rounding of the
    steps left to long double of the exact sum; after it, within one more
    float64 rounding."""
    coeffs = np.asarray(coeffs, dtype=np.longdouble)
    with mpmath.workdps(50):
        exact = _mp_sum(basis, coeffs, xs)
        sums, steps = _clenshaw_steps(basis, coeffs, xs)
        err = np.array([float(abs(_mp(v) - e)) for v, e in zip(sums.tolist(), exact)])
        tau = EPS_LD * float(np.max(np.abs(coeffs)))
        tol = tau + _long_double_rounding(basis, coeffs, xs, steps)
        assert np.all(err <= tol), float(np.max(err / tol))
        got = clenshaw(basis, coeffs, xs)
        final = np.array([float(abs(_mp(v) - e)) for v, e in zip(got.tolist(), exact)])
        tol += U64 * np.abs(got)
        assert np.all(final <= tol), float(np.max(final / tol))


@settings(max_examples=30, deadline=None)
# Two draws where sup |nu_k| is far above 1 on the points (x = 60 on
# Laguerre, x = 1 on jacobi(10, 0)): with B_k taken as 1 the head runs too
# long and these read 31 and 22 times their budget.
@example("laguerre", 0.0, 0.0, 300, 0.5, 2)
@example("jacobi", 10.0, 0.0, 300, 0.5, 1)
@given(
    st.sampled_from(["jacobi", "laguerre"]),
    st.floats(-0.5, 12.0),
    st.floats(-0.99, 12.0),
    st.integers(1, 300),
    st.floats(0.5, 0.99),
    st.integers(0, 2**32 - 1),
)
def test_sum_stays_within_its_error_budget(family, q, other, n, rate, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, n) * rate ** np.arange(n)
    if family == "jacobi":
        basis = jacobi(q, min(q, other)) if seed % 2 else jacobi(min(q, other), q)
        xs = np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, 14)))
    else:
        basis = laguerre()
        xs = np.concatenate(([0.0, 60.0], rng.uniform(0.0, 60.0, 14)))
    _assert_within_budget(basis, coeffs, xs)


def test_bessel_solution_stays_within_its_error_budget():
    solution = solve_tau(bessel_problem(10, 500))
    xs = np.linspace(*GRID_BESSEL)[::30]
    _assert_within_budget(solution.basis, solution.coeffs_extended, xs)
