"""Dense LU with partial pivoting, back substitution, condition estimate."""

import numpy as np
import pytest

from tau_spectra import tau
from tau_spectra.cli import bessel_problem
from tau_spectra.linalg import (
    _BLOCK,
    LUFactors,
    SingularMatrixError,
    cond_estimate_1,
    lu_factor,
    lu_solve_factored,
    lu_solve_transposed,
    qr_factor,
    solve_upper_triangular,
    _substitute,
)
from tau_spectra.tau import solve_tau


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


def test_overwrite_factors_the_array_itself():
    # lu_factor factors a copy and leaves its input as it was
    rng = np.random.default_rng(39)
    size = 70
    a = rng.standard_normal((size, size))
    rows, cols = np.indices(a.shape)
    a[rows - cols > 4] = 0.0
    before = a.copy()
    copied = lu_factor(a)
    assert a.tobytes() == before.tobytes()
    assert not np.shares_memory(copied.lu, a)


@pytest.mark.parametrize("column", [0, 70, 149])
def test_qr_zero_column_raises_at_its_index(column):
    # two dense rows over a band of 3 and 3, one column exactly zero
    rng = np.random.default_rng(46)
    size = 150
    a = rng.standard_normal((size, size)) + 3.0 * np.eye(size)
    rows, cols = np.indices(a.shape)
    a[(rows >= 2) & (np.abs(rows - cols) > 3)] = 0.0
    a[:, column] = 0.0
    with pytest.raises(SingularMatrixError) as err:
        qr_factor([(slice(0, size), a, slice(0, size))], size)
    assert err.value.pivot_index == column


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


def _rowwise_solve(factors, b):
    """Per-row forward and back substitution, one Python step per row."""
    lu, n = factors.lu, factors.size
    x = np.array(b, dtype=np.float64, copy=True)
    for k in range(n):
        p = factors.piv[k]
        x[k], x[p] = x[p], x[k]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def _rowwise_solve_transposed(factors, b):
    lu, n = factors.lu, factors.size
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(n):
        x[i] = (x[i] - lu[:i, i] @ x[:i]) / lu[i, i]
    for i in range(n - 2, -1, -1):
        x[i] -= lu[i + 1 :, i] @ x[i + 1 :]
    for k in range(n - 1, -1, -1):
        p = factors.piv[k]
        x[k], x[p] = x[p], x[k]
    return x


def _backward_error(a, x, b):
    """Normwise backward error ||a x - b|| / (||a|| ||x|| + ||b||), inf-norms."""
    norm_a = np.max(np.sum(np.abs(a), axis=1))
    residual = np.max(np.abs(a @ x - b))
    return residual / (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))


def _diagonal_blocks(a, upper):
    tri = np.triu if upper else (lambda d: np.tril(d, -1) + np.eye(d.shape[0]))
    return [tri(a[k : k + _BLOCK, k : k + _BLOCK]) for k in range(0, a.shape[0], _BLOCK)]


def _check_against_rows(a, factors, b):
    for solve, reference, system in (
        (lu_solve_factored, _rowwise_solve, a),
        (lu_solve_transposed, _rowwise_solve_transposed, a.T),
    ):
        x, x_rows = solve(factors, b), reference(factors, b)
        assert _backward_error(system, x_rows, b) <= 1e-14
        assert _backward_error(system, x, b) <= 1e-14, solve.__name__


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_blocked_solves_match_per_row_substitution(size):
    rng = np.random.default_rng(41 + size)
    a = _well_conditioned(rng, size)
    b = rng.standard_normal(size)
    factors = lu_factor(a)
    _check_against_rows(a, factors, b)
    x, x_rows = lu_solve_factored(factors, b), _rowwise_solve(factors, b)
    assert np.max(np.abs(x - x_rows)) <= 1e-14 * np.max(np.abs(x_rows))


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("upper", [True, False], ids=["upper", "unit-lower"])
def test_blocked_kernel_with_matrix_rhs(size, upper):
    rng = np.random.default_rng(43 + size)
    a = rng.standard_normal((size, size)) + size * np.eye(size)
    tri = np.triu(a) if upper else np.tril(a, -1) + np.eye(size)
    b = rng.standard_normal((size, 4))
    x = _substitute(a, _diagonal_blocks(a, upper), b.copy(), upper)
    assert np.all(np.abs(tri @ x - b) <= 1e-14 * (np.abs(tri) @ np.abs(x) + np.abs(b)))
    if upper:
        x_rows = solve_upper_triangular(a, b)
        assert np.max(np.abs(x - x_rows)) <= 1e-14 * np.max(np.abs(x_rows))


def test_blocked_solves_on_a_bessel_tau_matrix(monkeypatch):
    seen = {}
    real = tau.qr_factor

    def spy(blocks, n):
        seen["t"] = t = np.zeros((n, n))
        for rows, vals, cols in blocks:
            t[rows, cols] = vals
        return real(blocks, n)

    monkeypatch.setattr(tau, "qr_factor", spy)
    solve_tau(bessel_problem(10, 500))
    b = np.random.default_rng(44).standard_normal(501)
    _check_against_rows(seen["t"], lu_factor(seen["t"]), b)


def _factors_with_zero_pivots(size, zeros):
    lu = lu_factor(_well_conditioned(np.random.default_rng(45), size)).lu
    lu[zeros, zeros] = 0.0
    return LUFactors(lu=lu, piv=np.arange(size), growth=1.0)


def test_zero_pivot_raises_where_substitution_meets_it():
    # Back substitution meets the last zero first, forward substitution the
    # first; solve_upper_triangular's per-row loop raises at the same index.
    size = 3 * _BLOCK + 5
    zeros = [5, _BLOCK + 3, 2 * _BLOCK + 7]
    factors = _factors_with_zero_pivots(size, zeros)
    with pytest.raises(SingularMatrixError) as back:
        lu_solve_factored(factors, np.ones(size))
    with pytest.raises(SingularMatrixError) as forward:
        lu_solve_transposed(factors, np.ones(size))
    with pytest.raises(SingularMatrixError) as rows:
        solve_upper_triangular(factors.lu, np.ones(size))
    assert back.value.pivot_index == rows.value.pivot_index == zeros[-1]
    assert forward.value.pivot_index == zeros[0]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_factors_give_non_finite_solutions(value):
    # np.linalg.LinAlgError is a ValueError, which the CLI would report as a
    # config error: non-finite entries must come out as non-finite numbers,
    # wherever the per-row loops give them (an infinite pivot gives a zero).
    size = 2 * _BLOCK + 3
    factors = _factors_with_zero_pivots(size, [])
    for i, j in ((7, 7), (_BLOCK + 1, 2 * _BLOCK), (2 * _BLOCK + 2, 3)):
        lu = factors.lu.copy()
        lu[i, j] = value
        broken = LUFactors(lu=lu, piv=factors.piv, growth=1.0)
        for solve, reference in (
            (lu_solve_factored, _rowwise_solve),
            (lu_solve_transposed, _rowwise_solve_transposed),
        ):
            with np.errstate(all="ignore"):
                finite = np.all(np.isfinite(solve(broken, np.ones(size))))
                assert finite == np.all(np.isfinite(reference(broken, np.ones(size))))
            assert finite == (i == j and np.isinf(value))


def test_lapack_failure_becomes_nan(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    factors = lu_factor(np.eye(3) + 0.5)
    for solve in (lu_solve_factored, lu_solve_transposed):
        assert np.all(np.isnan(solve(factors, np.ones(3))))
