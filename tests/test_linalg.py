"""Almost-banded QR: growth, singular columns, condition estimate; back
substitution."""

import pickle

import numpy as np
import pytest

from tau_spectra.basis import BasisValidityError
from tau_spectra.linalg import Section, SingularMatrixError, cond_estimate_factored, qr_factor
from tau_spectra.opmatrix import solve_upper_triangular
from tau_spectra.tau import NonFiniteSolutionError


def _well_conditioned(rng, size):
    return rng.standard_normal((size, size)) + size * np.eye(size)


def _qr(a):
    """qr_factor of a square matrix, every row held dense."""
    return qr_factor(Section.from_dense(a))


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
        _qr(a)
    assert err.value.pivot_index == column


def _almost_banded(rng, n, dense):
    """dense full rows over a band of 3 below and 2 above the diagonal; the
    dense rows are large far right of the band, so R's largest entries lie in
    the fill they cause there."""
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    rows, cols = np.indices(a.shape)
    a[(rows >= dense) & ((rows - cols > 3) | (cols - rows > 2))] = 0.0
    a[:dense, n // 2 :] *= 1e3
    return a


def test_qr_growth_is_largest_r_entry_over_largest_a_entry():
    rng = np.random.default_rng(40)
    graded = [rng.standard_normal((n, n)) * np.exp(rng.uniform(-30.0, 30.0, (n, 1))) for n in (1, 7, 60, 150)]
    # R's largest entry on its diagonal, in the first row
    dominant = np.diag(np.arange(7.0, 0.0, -1.0)) + 0.01 * rng.standard_normal((7, 7))
    small = 1e-3 * rng.standard_normal((150, 150))
    banded = [_almost_banded(rng, n, 3) for n in (200, 333)]
    for a in (*graded, dominant, small, *banded):
        factors = _qr(a)
        growth = np.max(np.abs(np.linalg.qr(a, mode="r"))) / np.max(np.abs(a))
        assert factors.growth == pytest.approx(growth, rel=1e-14, abs=0.0)
    # the dense rows are held apart, so R's entries beyond each block's
    # explicit columns come from the fill
    assert all(_qr(a).dense.shape[0] > 0 for a in banded)


def test_triangular_solves():
    rng = np.random.default_rng(36)
    size = 15
    u_mat = np.triu(rng.standard_normal((size, size))) + size * np.eye(size)
    b = rng.standard_normal((size, 1))
    x = solve_upper_triangular(u_mat, b)
    assert np.max(np.abs(u_mat @ x - b)) <= 1e-10
    # back substitution meets the last zero diagonal entry first
    u_mat[[5, 9], [5, 9]] = 0.0
    with pytest.raises(SingularMatrixError) as err:
        solve_upper_triangular(u_mat, b)
    assert err.value.pivot_index == 9


def test_singular_matrix_error_survives_pickling():
    # A worker process's failure reaches the parent pickled.
    err = pickle.loads(pickle.dumps(SingularMatrixError(7)))
    assert type(err) is SingularMatrixError
    assert err.pivot_index == 7
    assert str(err) == "matrix is singular: zero pivot column at index 7"


@pytest.mark.parametrize(
    "error",
    [
        NonFiniteSolutionError("solution coefficients are not finite"),
        BasisValidityError("recurrence requires nonzero alpha_j for every j"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_solve_failures_survive_pickling(error):
    # A ladder worker returns its solve's failure to the parent pickled.
    err = pickle.loads(pickle.dumps(error))
    assert type(err) is type(error)
    assert str(err) == str(error)


def test_triangular_solve_matrix_rhs():
    rng = np.random.default_rng(37)
    size = 10
    u_mat = np.triu(rng.standard_normal((size, size))) + size * np.eye(size)
    b = rng.standard_normal((size, 4))
    x = solve_upper_triangular(u_mat, b)
    assert np.max(np.abs(u_mat @ x - b)) <= 1e-10


def _cond_estimate(a):
    return cond_estimate_factored(_qr(a))


def test_cond_estimate_identity_and_diagonal():
    assert _cond_estimate(np.eye(6)) == pytest.approx(1.0)
    d = np.diag([1.0, 2.0, 1e-8])
    assert _cond_estimate(d) == pytest.approx(2e8, rel=1e-12)


def test_cond_estimate_is_lower_bound_of_true_cond():
    rng = np.random.default_rng(38)
    for size in (5, 20, 60):
        a = _well_conditioned(rng, size)
        est = _cond_estimate(a)
        true = np.linalg.cond(a, 1)
        assert est <= true * (1.0 + 1e-10)
        assert est >= 0.1 * true  # Hager's estimate is rarely far off
