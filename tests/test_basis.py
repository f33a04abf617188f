"""Recurrence coefficients, evaluation, and monomial conversion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tau_spectra.basis import (
    BasisValidityError,
    change_of_basis,
    clenshaw,
    custom,
    eval_basis_derivs,
    jacobi,
    laguerre,
    norms_sq,
    recurrence_arrays,
    recurrence_coeffs,
)

BASES = [jacobi(0.0, 0.0), jacobi(-0.5, -0.5), jacobi(1.0, -0.9), jacobi(10.0, 0.0), laguerre()]
IDS = [b.label() for b in BASES]
DTYPES = (np.float64, np.longdouble)


def _sample_points(basis, count=21):
    lo, hi = basis.interval
    if math.isinf(hi):
        hi = 60.0
    return np.linspace(lo, hi, count)


def _forward_values(basis, n, x):
    """Forward recurrence nu_{j+1} = ((x - beta_j) nu_j - gamma_j nu_{j-1}) / alpha_j."""
    vals = np.empty(n + 1)
    vals[0] = 1.0
    prev = 0.0
    for j in range(n):
        al, be, ga = recurrence_coeffs(basis, j)
        vals[j + 1] = ((x - be) * vals[j] - ga * prev) / al
        prev = vals[j]
    return vals


def _exact_monomial_rows(basis, count):
    """Row k = exact power coefficients of nu_k, in Fractions over the same
    float recurrence coefficients the library uses."""
    alpha, beta, gamma = recurrence_arrays(basis, max(count, 1))
    rows = [[Fraction(1)]]
    for k in range(count):
        cur = rows[k]
        prev = rows[k - 1] if k >= 1 else []
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += c
            nxt[i] -= Fraction(beta[k]) * c
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(gamma[k]) * c
        rows.append([c / Fraction(alpha[k]) for c in nxt])
    return rows


def test_legendre_coefficients_closed_form():
    basis = jacobi(0.0, 0.0)
    for j in range(12):
        al, be, ga = recurrence_coeffs(basis, j)
        assert al == pytest.approx((j + 1) / (2 * j + 1), rel=1e-15)
        assert be == pytest.approx(0.0, abs=1e-15)
        assert ga == pytest.approx(j / (2 * j + 1), rel=1e-15)


def test_jacobi_j0_limit():
    basis = jacobi(1.0, -0.9)
    al, be, ga = recurrence_coeffs(basis, 0)
    g = 0.1
    assert al == pytest.approx(2.0 / (g + 2.0), rel=1e-15)
    assert be == pytest.approx((-0.9 - 1.0) / (g + 2.0), rel=1e-15)
    assert ga == 0.0


def test_laguerre_coefficients():
    basis = laguerre()
    for j in range(8):
        al, be, ga = recurrence_coeffs(basis, j)
        assert al == -(j + 1)
        assert be == 2 * j + 1
        assert ga == (-j if j else 0)


def test_jacobi_rejects_invalid_exponents():
    with pytest.raises(ValueError):
        jacobi(-1.0, 0.0)
    with pytest.raises(ValueError):
        jacobi(0.0, -1.5)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_three_term_identity(basis):
    xs = _sample_points(basis)
    for dtype in DTYPES:
        for j in range(41):
            al, be, ga = recurrence_coeffs(basis, j)
            for x in xs:
                table = eval_basis_derivs(basis, j + 1, x, dtype=dtype)
                assert table.dtype == dtype
                vals = table[0]
                lhs = x * vals[j]
                rhs = al * vals[j + 1] + be * vals[j]
                if j >= 1:
                    rhs += ga * vals[j - 1]
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (dtype, j, x)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_clenshaw_matches_forward_summation(basis):
    rng = np.random.default_rng(21)
    xs = _sample_points(basis)
    for length in (1, 2, 7, 40, 100):
        coeffs = rng.uniform(-1.0, 1.0, length)
        for x in xs:
            direct = float(coeffs @ _forward_values(basis, length - 1, x))
            val = clenshaw(basis, coeffs, float(x))
            assert abs(val - direct) <= 1e-12 * max(1.0, abs(direct))


def test_clenshaw_array_shape_and_scalar():
    basis = jacobi(0.0, 0.0)
    coeffs = np.array([1.0, 0.5, 0.25])
    xs = np.linspace(-1, 1, 5).reshape(5, 1)
    out = clenshaw(basis, coeffs, xs)
    assert out.shape == (5, 1)
    assert isinstance(clenshaw(basis, coeffs, 0.3), float)
    with pytest.raises(ValueError):
        clenshaw(basis, np.array([]), 0.0)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_clenshaw_extended_agrees_with_double(basis):
    rng = np.random.default_rng(22)
    coeffs = rng.uniform(-1.0, 1.0, 30)
    xs = _sample_points(basis, 9)
    plain = clenshaw(basis, coeffs, xs)
    extended = clenshaw(basis, coeffs, xs, np.longdouble)
    assert extended.dtype == np.float64
    scale = np.max(np.abs(plain)) + 1.0
    assert np.max(np.abs(plain - extended)) <= 1e-11 * scale


def test_norms_sq_legendre():
    out = norms_sq(jacobi(0.0, 0.0), 50)
    for k in range(51):
        assert out[k] == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)


def test_norms_sq_laguerre_is_unit():
    assert np.allclose(norms_sq(laguerre(), 20), 1.0, rtol=1e-13)


def test_eval_basis_values_at_one():
    vals = eval_basis_derivs(jacobi(0.0, 0.0), 10, 1.0)[0]
    assert np.allclose(vals, 1.0, rtol=1e-14)
    vals = eval_basis_derivs(laguerre(), 10, 0.0)[0]
    assert np.allclose(vals, 1.0, rtol=1e-14)


def test_eval_basis_derivative_at_one():
    # d/dx P_k at x=1 equals k(k+1)/2
    table = eval_basis_derivs(jacobi(0.0, 0.0), 8, 1.0, r=1)
    for k in range(9):
        assert table[1][k] == pytest.approx(k * (k + 1) / 2.0, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_change_of_basis_matches_exact_rows(basis):
    v = change_of_basis(basis, 25)
    rows = _exact_monomial_rows(basis, 25)
    for k in range(26):
        exact = np.array([float(c) for c in rows[k]])
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(v[k, : k + 1] - exact)) <= 1e-13 * scale, k


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_change_of_basis_horner_roundtrip(basis):
    """Horner over the monomial rows reproduces recurrence values.

    The conversion itself is exact to 1e-13 (previous test); evaluating the
    monomial form loses further ground with k because the coefficients are
    large and alternating, which is the conditioning story this library
    exists to avoid.  Tight tolerance up to k=16, loose through k=25.
    """
    v = change_of_basis(basis, 25)
    xs = _sample_points(basis, 7)
    for k in range(26):
        for x in xs:
            acc = 0.0
            for c in v[k, : k + 1][::-1]:
                acc = acc * x + c
            ref = eval_basis_derivs(basis, k, x)[0][k]
            scale = max(1.0, abs(ref), np.max(np.abs(v[k, : k + 1])) * max(1.0, abs(x)) ** k * 1e-3)
            tol = 1e-10 if k <= 16 else 1e-6
            assert abs(acc - ref) <= tol * scale, (k, x)


def test_custom_basis_runs_via_callback():
    # Chebyshev (first kind, nu_0=1, nu_1=x) through the custom-callback door
    def cheb(j):
        if j == 0:
            return (1.0, 0.0, 0.0)
        return (0.5, 0.0, 0.5)

    basis = custom(cheb, mu0=math.pi, interval=(-1.0, 1.0))
    xs = np.linspace(-1.0, 1.0, 11)
    for x in xs:
        vals = eval_basis_derivs(basis, 6, x)[0]
        assert vals[3] == pytest.approx(math.cos(3 * math.acos(x)), abs=1e-13)


def test_custom_basis_bad_coefficient_rejected():
    bad = custom(lambda j: (0.0, 0.0, 0.0), mu0=1.0)
    with pytest.raises(BasisValidityError):
        recurrence_arrays(bad, 3)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_custom_basis_nonfinite_coefficient_rejected(which, value):
    def coeffs(j):
        out = [0.5, 0.0, 0.5 if j else 0.0]
        if j == 2:
            out[which] = value
        return tuple(out)

    bad = custom(coeffs, mu0=math.pi, interval=(-1.0, 1.0))
    recurrence_arrays(bad, 2)
    with pytest.raises(BasisValidityError):
        recurrence_arrays(bad, 3)
    with pytest.raises(BasisValidityError):
        eval_basis_derivs(bad, 5, 0.3)
