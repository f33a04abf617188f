"""Dense LU with partial pivoting, back substitution, condition estimate."""

import numpy as np
import pytest

from tau_spectra.linalg import (
    LUFactors,
    SingularMatrixError,
    cond_estimate_1,
    lu_factor,
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
        x = lu_solve_factored(lu_factor(a), b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))


def test_permutation_consistency():
    rng = np.random.default_rng(32)
    size = 40
    a = _well_conditioned(rng, size)
    b = rng.standard_normal(size)
    x = lu_solve_factored(lu_factor(a), b)
    perm = rng.permutation(size)
    x_perm = lu_solve_factored(lu_factor(a[perm]), b[perm])
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
        lu_solve_factored(lu_factor(np.zeros((3, 3))), np.ones(3))


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


def test_band_limited_update_matches_full_update():
    # Tau shape: dense condition rows on top, a band of 3 below the diagonal
    # under them.  Stopping each update at the last nonzero multiplier must
    # give the factors of the full rank-one update bit for bit.
    rng = np.random.default_rng(38)
    size = 60
    a = rng.standard_normal((size, size))
    rows, cols = np.indices(a.shape)
    a[rows - cols > 2 + 3] = 0.0
    full = a.copy()
    piv = np.zeros(size, dtype=np.int64)
    for k in range(size):
        piv[k] = p = k + int(np.argmax(np.abs(full[k:, k])))
        full[[k, p]] = full[[p, k]]
        full[k + 1 :, k] /= full[k, k]
        full[k + 1 :, k + 1 :] -= np.outer(full[k + 1 :, k], full[k, k + 1 :])
    factors = lu_factor(a)
    assert np.array_equal(factors.piv, piv)
    assert factors.lu.tobytes() == full.tobytes()


def test_growth_is_largest_u_entry_over_largest_a_entry():
    rng = np.random.default_rng(40)
    graded = [rng.standard_normal((n, n)) * np.exp(rng.uniform(-30.0, 30.0, (n, 1))) for n in (1, 7, 60, 150)]
    # U's largest entry on its diagonal, in the first row
    dominant = np.diag(np.arange(7.0, 0.0, -1.0)) + 0.01 * rng.standard_normal((7, 7))
    # every entry of U far below the unit multipliers of L
    small = 1e-3 * rng.standard_normal((150, 150))
    for a in (*graded, dominant, small):
        factors = lu_factor(a)
        assert factors.growth == np.max(np.abs(np.triu(factors.lu))) / np.max(np.abs(a))


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
