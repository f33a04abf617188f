"""Clenshaw summation with a chopped tail and a float64 head: where the
recurrence starts and where the head hands over to long double, that the
closed-form bounds on |nu_k| hold, that the sum stays within its error budget
of a 50-digit sum, and that every basis or point set without a known bound
takes the all-long-double loop bit for bit."""

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
from tau_spectra.cli import (
    GRID_BESSEL,
    GRID_JACOBI,
    TABLE2_LOWER,
    TABLE2_PAIRS,
    bessel_problem,
    volterra_problem,
)

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
    _, start, extended = _clenshaw_steps(basis, coeffs, x.reshape(-1))
    assert start == extended == coeffs.shape[0]


def test_overflowing_bound_times_a_zero_coefficient_drops_no_term():
    """On [0, 1500] the Laguerre B_k = e^750 overflows, and inf * 0 makes the
    tail bound S_K nan: a nan must keep its terms, where reading it as small
    would drop them all and sum to [0, 0, 0]."""
    coeffs = np.array([1.0, 0.0, 2.0, 0.0])
    xs = np.array([0.0, 1.0, 1500.0])
    assert clenshaw(laguerre(), coeffs, xs).tolist() == [3.0, 0.0, 2244003.0]
    assert _clenshaw_steps(laguerre(), coeffs, xs)[1:] == (4, 4)


def test_bounded_route_still_takes_a_scalar():
    coeffs = _decaying(300, 32)
    value = clenshaw(jacobi(0.0, 0.0), coeffs, 0.3)
    assert isinstance(value, float)
    assert _clenshaw_steps(jacobi(0.0, 0.0), coeffs, np.array([0.3]))[2] < 300
    assert abs(value - _longdouble_clenshaw(jacobi(0.0, 0.0), coeffs, 0.3)) <= 4 * U64 * abs(value)


def test_switch_lands_late_on_legendre_and_early_on_laguerre():
    """table2's Legendre n = 1000 series runs all but about 60 of the steps
    it keeps in float64; on the Bessel grid [0, 60] B_k = e^30 stops the head
    after about 44 of 2001 and keeps every term."""
    grid = np.linspace(*GRID_JACOBI)
    legendre = solve_tau(volterra_problem(jacobi(0.0, 0.0), 1000, TABLE2_LOWER))
    assert _clenshaw_steps(legendre.basis, legendre.coeffs_extended, grid)[2] < 100
    bessel = solve_tau(bessel_problem(10, 2000))
    grid = np.linspace(*GRID_BESSEL)
    _, start, extended = _clenshaw_steps(bessel.basis, bessel.coeffs_extended, grid)
    assert start == 2001
    assert extended >= 1900


@pytest.mark.parametrize("pair", TABLE2_PAIRS, ids=lambda p: f"jacobi{p}")
def test_table2_series_at_n_1000_start_at_or_below_250(pair):
    """The tail bound S_K drops the top of every table2 n = 1000 series: of
    1001 terms they keep about 130 to 215."""
    solution = solve_tau(volterra_problem(jacobi(*pair), 1000, TABLE2_LOWER))
    grid = np.linspace(*GRID_JACOBI)
    assert _clenshaw_steps(solution.basis, solution.coeffs_extended, grid)[1] <= 250


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


def _with_flat_tail(basis, head, xs, length, scale=1.0 - 2.0**-20):
    """head followed by length coefficients of one size whose tail bound S_K,
    rounded up as clenshaw rounds it, is scale * tau/2: just under it, the
    chop drops them all and leaves the head only the other half of tau.
    Their signs follow nu_k at the endpoint where B_k is reached (x = 60 on
    Laguerre), so there they add up to nearly all of S_K."""
    n1 = len(head) + length
    sup = _sup_nu(basis, n1, float(xs.min()), float(xs.max()))[len(head) :]
    size = 0.5 * EPS_LD * np.max(np.abs(head)) * scale
    size /= (1.0 + 2.0**-50 * (n1 + 8)) * sup.sum()
    end = -1.0 if basis.family == "jacobi" and basis.beta > basis.alpha else float(xs.max())
    signs = np.sign(_forward_values(basis, n1, np.array([end]))[len(head) :, 0])
    return np.concatenate((head, size * signs.astype(np.float64)))


@pytest.mark.parametrize(
    "basis", [jacobi(0.0, 0.0), jacobi(0.0, 3.0), laguerre()], ids=lambda b: b.label()
)
def test_chop_fires_just_under_half_tau_and_not_just_over(basis):
    """A flat tail with S_K a relative 2^-20 under tau/2 is dropped whole; one
    2^-20 over keeps its first term."""
    xs = np.array([-1.0, 0.5, 1.0]) if basis.family == "jacobi" else np.array([0.0, 60.0])
    head = np.array([1.0, -0.5, 0.25])
    under = _with_flat_tail(basis, head, xs, 50, 1.0 - 2.0**-20)
    over = _with_flat_tail(basis, head, xs, 50, 1.0 + 2.0**-20)
    assert _clenshaw_steps(basis, under, xs)[1] == 3
    assert _clenshaw_steps(basis, over, xs)[1] == 4


def test_dropped_terms_are_charged_to_the_heads_budget():
    """The dropped tail spends just under half of tau, so the float64 head
    hands over to long double sooner than on the same terms without it."""
    basis, xs = jacobi(0.0, 0.0), np.array([-1.0, 0.5, 1.0])
    head = 0.5 ** np.arange(40.0)
    _, start, extended = _clenshaw_steps(basis, _with_flat_tail(basis, head, xs, 50), xs)
    assert start == 40
    assert extended > _clenshaw_steps(basis, head, xs)[2]


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
    """The chop and the float64 head spend at most tau = eps_ld max|c|
    between them: before its last rounding to float64, the sum is within tau
    plus the rounding of the steps left to long double of the exact sum;
    after it, within one more float64 rounding."""
    coeffs = np.asarray(coeffs, dtype=np.longdouble)
    with mpmath.workdps(50):
        exact = _mp_sum(basis, coeffs, xs)
        sums, _, steps = _clenshaw_steps(basis, coeffs, xs)
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
@example("laguerre", 0.0, 0.0, 300, 0.5, 2, False)
@example("jacobi", 10.0, 0.0, 300, 0.5, 1, False)
# Chops at the edge of their half of tau: with B_k far above 1, with nu_k
# alternating in sign at the bound's endpoint (jacobi(0, 3) at x = -1), with
# a head that spends the other half in float64, and on Laguerre.
@example("jacobi", 10.0, 0.0, 120, 0.9, 1, True)
@example("jacobi", 3.0, 0.0, 3, 0.7, 2, True)
@example("jacobi", 0.0, 0.0, 40, 0.5, 3, True)
@example("laguerre", 0.0, 0.0, 200, 0.95, 3, True)
@given(
    st.sampled_from(["jacobi", "laguerre"]),
    st.floats(-0.5, 12.0),
    st.floats(-0.99, 12.0),
    st.integers(1, 300),
    st.floats(0.5, 0.99),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_sum_stays_within_its_error_budget(family, q, other, n, rate, seed, flat_tail):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, n) * rate ** np.arange(n)
    if family == "jacobi":
        basis = jacobi(q, min(q, other)) if seed % 2 else jacobi(min(q, other), q)
        xs = np.concatenate(([-1.0, 1.0], rng.uniform(-1.0, 1.0, 14)))
    else:
        basis = laguerre()
        xs = np.concatenate(([0.0, 60.0], rng.uniform(0.0, 60.0, 14)))
    if flat_tail:
        coeffs = _with_flat_tail(basis, coeffs, xs, int(rng.integers(1, 200)))
        assert _clenshaw_steps(basis, coeffs, xs)[1] <= n
    _assert_within_budget(basis, coeffs, xs)


def test_bessel_solution_stays_within_its_error_budget():
    solution = solve_tau(bessel_problem(10, 500))
    xs = np.linspace(*GRID_BESSEL)[::30]
    _assert_within_budget(solution.basis, solution.coeffs_extended, xs)
