"""Dense LU with partial pivoting, back substitution, condition estimate."""

import numpy as np
import pytest

from tau_spectra.linalg import (
    LUFactors,
    SingularMatrixError,
    cond_estimate_1,
    lu_factor,
    lu_solve,
    lu_solve_factored,
    lu_solve_transposed,
    solve_upper_triangular,
)


def _well_conditioned(rng, size):
    return rng.standard_normal((size, size)) + size * np.eye(size)


def test_lu_solve_roundtrip():
    rng = np.random.default_rng(31)
    for size in (1, 2, 9, 50, 200):
        a = _well_conditioned(rng, size)
        b = rng.standard_normal(size)
        x = lu_solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_permutation_consistency():
    rng = np.random.default_rng(32)
    size = 40
    a = _well_conditioned(rng, size)
    b = rng.standard_normal(size)
    x = lu_solve(a, b)
    perm = rng.permutation(size)
    x_perm = lu_solve(a[perm], b[perm])
    assert np.allclose(x, x_perm, rtol=1e-10, atol=1e-12)


def test_transposed_solve():
    rng = np.random.default_rng(33)
    size = 30
    a = _well_conditioned(rng, size)
    b = rng.standard_normal(size)
    factors = lu_factor(a)
    x = lu_solve_transposed(factors, b)
    assert np.max(np.abs(a.T @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_factors_reusable_for_many_rhs():
    rng = np.random.default_rng(34)
    a = _well_conditioned(rng, 25)
    factors = lu_factor(a)
    for _ in range(3):
        b = rng.standard_normal(25)
        x = lu_solve_factored(factors, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_factor(a)
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((3, 3)), np.ones(3))


def test_shape_validation():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))
    factors = lu_factor(np.eye(3))
    with pytest.raises(ValueError):
        lu_solve_factored(factors, np.ones(4))


def test_growth_recorded():
    factors = lu_factor(np.eye(4))
    assert factors.growth == 1.0
    rng = np.random.default_rng(35)
    a = _well_conditioned(rng, 20)
    growth = lu_factor(a).growth
    assert np.isfinite(growth) and growth > 0.0


def test_triangular_solves():
    rng = np.random.default_rng(36)
    size = 15
    u_mat = np.triu(rng.standard_normal((size, size))) + size * np.eye(size)
    b = rng.standard_normal(size)
    x = solve_upper_triangular(u_mat, b)
    assert np.max(np.abs(u_mat @ x - b)) <= 1e-10


def test_triangular_solve_matrix_rhs():
    rng = np.random.default_rng(37)
    size = 10
    u_mat = np.triu(rng.standard_normal((size, size))) + size * np.eye(size)
    b = rng.standard_normal((size, 4))
    x = solve_upper_triangular(u_mat, b)
    assert np.max(np.abs(u_mat @ x - b)) <= 1e-10


def test_unit_diagonal_lower_solve():
    # packed factors: the diagonal belongs to U, L's unit diagonal is implied
    factors = LUFactors(
        lu=np.array([[9.0, 0.0], [2.0, 9.0]]), piv=np.array([0, 1]), growth=1.0
    )
    a = np.array([[9.0, 0.0], [18.0, 9.0]])  # L @ U
    b = np.array([1.0, 2.0])
    assert np.allclose(lu_solve_factored(factors, b), [1.0 / 9.0, 0.0])
    assert np.allclose(a.T @ lu_solve_transposed(factors, b), b)


def test_cond_estimate_identity_and_diagonal():
    assert cond_estimate_1(np.eye(6)) == pytest.approx(1.0)
    d = np.diag([1.0, 2.0, 1e-8])
    assert cond_estimate_1(d) == pytest.approx(2e8, rel=1e-12)


def test_cond_estimate_is_lower_bound_of_true_cond():
    rng = np.random.default_rng(38)
    for size in (5, 20, 60):
        a = _well_conditioned(rng, size)
        est = cond_estimate_1(a)
        true = np.linalg.cond(a, 1)
        assert est <= true * (1.0 + 1e-10)
        assert est >= 0.1 * true  # Hager's estimate is rarely far off
