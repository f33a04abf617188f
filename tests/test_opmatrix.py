"""Operational matrices built from the recurrence, their exact structure,
calculus identities, and agreement with the monomial-conversion oracle."""

import numpy as np
import pytest

from tau_spectra.basis import clenshaw, custom, jacobi, laguerre, monomial, recurrence_arrays
from tau_spectra.opmatrix import (
    derivative_matrix,
    integral_matrix,
    shift_matrix,
    similarity_pi,
    volterra_matrix,
)
from monomial_oracle import power_oracle_column
from tau_spectra.basis import change_of_basis

BASES = [jacobi(0.0, 0.0), jacobi(-0.5, -0.5), jacobi(1.0, -0.9), jacobi(10.0, 0.0), laguerre()]
IDS = [b.label() for b in BASES]
# The monomials are one more recurrence basis (alpha = 1, beta = gamma = 0).
WITH_MONOMIAL = BASES + [monomial()]
WITH_MONOMIAL_IDS = IDS + ["monomial"]


def test_shift_legendre_columns():
    m = shift_matrix(jacobi(0.0, 0.0), 3)
    assert np.allclose(m[:, 0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(m[:, 1], [1 / 3, 0.0, 2 / 3], rtol=1e-15)
    assert np.allclose(m[:, 2], [0.0, 2 / 5, 0.0], rtol=1e-15)


def test_shift_laguerre_columns():
    m = shift_matrix(laguerre(), 2)
    assert np.allclose(m[:, 0], [1.0, -1.0], atol=1e-15)
    assert np.allclose(m[:, 1], [-1.0, 3.0], atol=1e-15)


def test_shift_size_one():
    m = shift_matrix(jacobi(1.0, -0.9), 1)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx((-0.9 - 1.0) / 2.1, rel=1e-15)


def test_derivative_legendre_nonzeros():
    h = derivative_matrix(jacobi(0.0, 0.0), 4)
    expect = np.zeros((4, 4))
    expect[0, 1] = 1.0
    expect[1, 2] = 3.0
    expect[0, 3] = 1.0
    expect[2, 3] = 5.0
    assert np.allclose(h, expect, atol=1e-14)


def test_derivative_column_zero():
    for basis in BASES:
        assert np.all(derivative_matrix(basis, 5)[:, 0] == 0.0)


def test_derivative_laguerre_values():
    h = derivative_matrix(laguerre(), 3)
    assert h[0, 1] == pytest.approx(-1.0)
    assert h[0, 2] == pytest.approx(-1.0)
    assert h[1, 2] == pytest.approx(-1.0)


def test_integral_legendre_columns():
    t = integral_matrix(jacobi(0.0, 0.0), 4)
    assert t[1, 0] == pytest.approx(1.0)
    assert t[2, 1] == pytest.approx(1 / 3, rel=1e-15)
    assert t[1, 1] == pytest.approx(0.0, abs=1e-16)


def test_integral_laguerre_first_column():
    t = integral_matrix(laguerre(), 3)
    assert t[1, 0] == pytest.approx(-1.0)


def test_volterra_legendre_columns():
    v = volterra_matrix(jacobi(0.0, 0.0), 4, -1.0)
    assert v[0, 0] == pytest.approx(1.0)
    assert v[1, 0] == pytest.approx(1.0)
    assert v[0, 1] == pytest.approx(-1 / 3, rel=1e-14)
    assert v[2, 1] == pytest.approx(1 / 3, rel=1e-14)


def test_volterra_equals_integral_below_row_zero():
    for basis in BASES:
        t = integral_matrix(basis, 8)
        v = volterra_matrix(basis, 8, -1.0)
        assert np.array_equal(t[1:], v[1:])


def test_power_matrices_columns():
    basis = monomial()
    h, m, t = derivative_matrix(basis, 4), shift_matrix(basis, 4), integral_matrix(basis, 4)
    assert np.allclose(h[:, 1], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(m[:, 0], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(t[:, 2], [0.0, 0.0, 0.0, 1 / 3])


@pytest.mark.parametrize("basis", WITH_MONOMIAL, ids=WITH_MONOMIAL_IDS)
def test_structure_exact_at_size_300(basis):
    s = 300
    m = shift_matrix(basis, s)
    h = derivative_matrix(basis, s)
    t = integral_matrix(basis, s)
    assert np.all(np.triu(m, 2) == 0.0) and np.all(np.tril(m, -2) == 0.0)
    assert np.all(np.tril(h, 0) == 0.0)
    assert np.all(t[0, :] == 0.0)
    # column j reaches no deeper than row j+1
    assert np.all(np.tril(t, -2) == 0.0)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_classical_integral_matrix_is_tridiagonal(basis):
    # structure relation nu_j = a_j nu_{j+1}' + b_j nu_j' + c_j nu_{j-1}'
    t = integral_matrix(basis, 300)
    assert np.all(np.triu(t, 2) == 0.0)


def _as_custom(basis, count):
    """The same recurrence behind a callback, so the operational matrices
    take the generic back substitution instead of the structure relation."""
    alpha, beta, gamma = recurrence_arrays(basis, count)
    return custom(lambda j: (alpha[j], beta[j], gamma[j]))


@pytest.mark.parametrize("s", [300, 1004])
@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_structure_relation_matches_back_substitution(basis, s):
    generic = _as_custom(basis, s + 2)
    lower = 0.0 if basis.family == "laguerre" else -1.0
    for build, extra in ((integral_matrix, ()), (volterra_matrix, (lower,))):
        classical = build(basis, s, *extra)
        reference = build(generic, s, *extra)
        scale = np.max(np.abs(reference), axis=0)
        assert np.all(np.abs(classical - reference) <= 1e-12 * scale), build.__name__


@pytest.mark.parametrize("s", [2, 3, 60, 300])
def test_monomial_matrices_are_their_closed_forms(s):
    # x * x^j = x^{j+1}, (x^{j+1})' = (j+1) x^j, integral of x^j = x^{j+1}/(j+1):
    # the custom route, back substitution included, lands on them bit for bit
    j = np.arange(s - 1)
    shift, deriv, theta = np.zeros((3, s, s))
    shift[j + 1, j] = 1.0
    deriv[j, j + 1] = j + 1.0
    theta[j + 1, j] = 1.0 / (j + 1.0)
    basis = monomial()
    assert np.array_equal(shift_matrix(basis, s), shift)
    assert np.array_equal(derivative_matrix(basis, s), deriv)
    assert np.array_equal(integral_matrix(basis, s), theta)


@pytest.mark.parametrize("basis", WITH_MONOMIAL, ids=WITH_MONOMIAL_IDS)
def test_calculus_identities(basis):
    s = 120
    h = derivative_matrix(basis, s)
    m = shift_matrix(basis, s)
    t = integral_matrix(basis, s)
    prod = h @ t
    assert np.max(np.abs(prod[:, : s - 1] - np.eye(s)[:, : s - 1])) <= 1e-12
    comm = h @ m - m @ h
    assert np.max(np.abs(comm[: s - 1, : s - 1] - np.eye(s - 1))) <= 1e-11


@pytest.mark.parametrize("basis", WITH_MONOMIAL, ids=WITH_MONOMIAL_IDS)
def test_columns_match_oracle(basis):
    s = 27
    mats = {
        "shift": shift_matrix(basis, s),
        "derivative": derivative_matrix(basis, s),
        "integral": integral_matrix(basis, s),
        "volterra": volterra_matrix(basis, s, -1.0),
    }
    for kind, mat in mats.items():
        for j in range(26):
            oracle = power_oracle_column(basis, kind, j, lower=-1.0)
            col = mat[: oracle.shape[0], j]
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(col - oracle)) <= 1e-9 * scale, (kind, j)


@pytest.mark.parametrize(
    "basis, a",
    [(jacobi(0.0, 0.0), -1.0), (jacobi(1.0, -0.9), -1.0), (laguerre(), 0.0)],
    ids=["legendre", "jacobi(1,-0.9)", "laguerre"],
)
def test_volterra_vanishes_at_lower_limit(basis, a):
    s = 52
    v = volterra_matrix(basis, s, a)
    for j in range(51):
        col = v[:, j]
        val = clenshaw(basis, col, a)
        scale = max(1.0, float(np.max(np.abs(col))))
        assert abs(val) <= 1e-10 * scale, j


def test_similarity_identity_v():
    pi = np.arange(9.0).reshape(3, 3)
    assert np.allclose(similarity_pi(np.eye(3), pi), pi, atol=1e-14)


def test_similarity_small_size_matches_recurrence():
    basis = jacobi(0.0, 0.0)
    v = change_of_basis(basis, 5)
    h_pow = derivative_matrix(monomial(), 6)
    via_similarity = similarity_pi(v, h_pow)
    direct = derivative_matrix(basis, 6)
    assert np.max(np.abs(via_similarity - direct)) <= 1e-10


def test_similarity_large_size_degrades():
    basis = jacobi(0.0, 0.0)
    v = change_of_basis(basis, 120)
    h_pow = derivative_matrix(monomial(), 121)
    via_similarity = similarity_pi(v, h_pow)
    direct = derivative_matrix(basis, 121)
    assert np.max(np.abs(via_similarity - direct)) >= 1e-2


def test_size_validation():
    with pytest.raises(ValueError):
        shift_matrix(jacobi(0.0, 0.0), 0)
    with pytest.raises(ValueError):
        integral_matrix(jacobi(0.0, 0.0), 1)
