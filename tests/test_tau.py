"""System assembly, the square Tau solve, and the perturbation tail."""

import tracemalloc

import numpy as np
import pytest

from tau_spectra.basis import clenshaw, eval_basis_derivs, jacobi, laguerre, monomial
from tau_spectra.linalg import SingularMatrixError
from tau_spectra.opmatrix import MAX_SECTION_SIZE, derivative_matrix
from tau_spectra.oracles import volterra_exact, volterra_forcing
from tau_spectra.tau import (
    TauProblem,
    assemble_pi,
    condition_row,
    derivative_term,
    identity_term,
    operator_height,
    point_condition,
    project_rhs,
    solve_tau,
    sup_error,
    volterra_term,
)

LEG = jacobi(0.0, 0.0)
BASES = [LEG, jacobi(-0.5, -0.5), jacobi(1.0, -0.9), jacobi(10.0, 0.0), laguerre(), monomial()]
BASE_IDS = [b.label() for b in BASES[:5]] + ["monomial"]


def _airy_operator(epsilon):
    return [derivative_term([epsilon], 2), identity_term([0.0, -1.0])]


def _volterra_problem(basis, n, a=1.25):
    return TauProblem(
        basis=basis,
        operator=[identity_term([-(a**3), 3 * a * a, -3 * a, 1.0]), volterra_term([1.0], lower=-1.0)],
        conditions=[],
        rhs=np.array([-volterra_forcing(a, -1.0)]),
        degree=n,
    )


def test_operator_height_examples():
    assert operator_height(_airy_operator(1e-5)) == 1
    assert operator_height([derivative_term([1.0]), identity_term([-1.0])]) == 0
    a = 1.25
    assert operator_height(
        [identity_term([-(a**3), 3 * a * a, -3 * a, 1.0]), volterra_term([1.0], lower=-1.0)]
    ) == 3


def test_term_validation():
    with pytest.raises(ValueError):
        derivative_term([1.0], 0)
    with pytest.raises(ValueError):
        identity_term([])
    with pytest.raises(ValueError):
        volterra_term([1.0], lower=np.inf)


def test_assemble_pi_first_order():
    problem = TauProblem(
        basis=LEG,
        operator=[derivative_term([1.0]), identity_term([-1.0])],
        conditions=[point_condition(0.0, 1.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    assert np.allclose(assemble_pi(problem), [[-1.0, 1.0], [0.0, -1.0]], atol=1e-15)


def test_assemble_pi_identity():
    problem = TauProblem(
        basis=jacobi(10.0, 0.0),
        operator=[identity_term([1.0])],
        conditions=[],
        rhs=np.array([0.0]),
        degree=4,
    )
    assert np.array_equal(assemble_pi(problem), np.eye(5))


def test_assemble_pi_shift():
    problem = TauProblem(
        basis=LEG,
        operator=[identity_term([0.0, 1.0])],
        conditions=[point_condition(0.0, 0.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    pi = assemble_pi(problem)
    assert pi.shape == (3, 2)
    assert np.allclose(pi[:, 0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(pi[:, 1], [1 / 3, 0.0, 2 / 3], rtol=1e-15)


def _power_section(basis, order, s):
    """H^order on an s-section: assemble_pi of a lone derivative term."""
    problem = TauProblem(
        basis=basis, operator=[derivative_term([1.0], order)], conditions=[], rhs=[0.0],
        degree=s - 1,
    )
    return assemble_pi(problem)


@pytest.mark.parametrize("basis", BASES, ids=BASE_IDS)
def test_derivative_powers_match_repeated_product(basis):
    # Laguerre and the monomials stay in exact integer arithmetic both ways.
    s = 300
    h = derivative_matrix(basis, s)
    product = h
    for order in (2, 3):
        product = h @ product
        power = _power_section(basis, order, s)
        if basis.family == "jacobi":
            assert np.max(np.abs(power - product)) <= 1e-12 * np.max(np.abs(product))
        else:
            assert np.array_equal(power, product)


@pytest.mark.parametrize("basis", BASES, ids=BASE_IDS)
def test_derivative_power_columns_are_pointwise_derivatives(basis):
    s = 12
    points = (0.5, 2.0, 7.0) if basis.family == "laguerre" else (-0.7, 0.1, 0.9)
    for order in (1, 2, 3):
        power = _power_section(basis, order, s)
        for x in points:
            table = eval_basis_derivs(basis, s - 1, x, order)
            scale = max(1.0, float(np.max(np.abs(table[order]))))
            assert np.max(np.abs(table[0] @ power - table[order])) <= 1e-12 * scale


@pytest.mark.parametrize("basis", BASES, ids=BASE_IDS)
def test_derivative_power_of_section_size_is_zero(basis):
    for s in (1, 2, 7, 40):
        assert not np.any(_power_section(basis, s, s))
        if s > 1:
            assert _power_section(basis, s - 1, s)[0, s - 1] != 0.0


def test_high_derivative_order_memory_is_bounded():
    """The table keeps two columns of each lower power, not every power."""
    problem = TauProblem(
        basis=laguerre(), operator=[derivative_term([1.0], 250)], conditions=[], rhs=[0.0],
        degree=300,
    )
    s = 301
    tracemalloc.start()
    try:
        assemble_pi(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * s * s * np.dtype(np.float64).itemsize


@pytest.mark.parametrize(
    "basis, operator, rtol",
    [
        (
            laguerre(),
            [
                derivative_term([0.0, 0.0, 1.0], 2),
                derivative_term([0.0, 1.0], 1),
                identity_term([-100.0, 0.0, 1.0]),
            ],
            0.0,
        ),
        (
            jacobi(1.0, -0.9),
            [
                derivative_term([0.3], 2),
                volterra_term([0.5, -1.2], lower=-1.0),
                identity_term([1.5, 0.25, -2.0]),
            ],
            1e-14,
        ),
    ],
    ids=["laguerre-bessel", "jacobi-degrees-0-1-2"],
)
def test_operator_section_is_sum_of_term_sections(basis, operator, rtol):
    def section(terms):
        return assemble_pi(
            TauProblem(basis=basis, operator=terms, conditions=[], rhs=[0.0], degree=200)
        )

    full = section(operator)
    total = np.zeros_like(full)
    for term in operator:
        part = section([term])
        total[: part.shape[0]] += part
    if rtol == 0.0:
        assert np.array_equal(full, total)
    else:
        assert np.max(np.abs(full - total)) <= rtol * np.max(np.abs(total))


def test_project_rhs_examples():
    out = project_rhs([4.5], jacobi(1.0, -0.9), 4)
    assert np.allclose(out, [4.5, 0.0, 0.0, 0.0], atol=1e-15)
    out = project_rhs([0.0, 1.0], LEG, 4)
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    out = project_rhs([0.0, 0.0, 1.0], LEG, 4)
    assert np.allclose(out, [1 / 3, 0.0, 2 / 3, 0.0], rtol=1e-14, atol=1e-15)
    with pytest.raises(ValueError):
        project_rhs([0.0, 0.0, 1.0], LEG, 2)


def test_condition_row_examples():
    for dtype in (np.float64, np.longdouble):
        row = condition_row(point_condition(1.0, 1.0), LEG, 3, dtype)
        assert row.dtype == dtype
        assert np.allclose(row, 1.0, rtol=1e-14)
        row = condition_row(point_condition(0.0, 0.0), laguerre(), 3, dtype)
        assert np.allclose(row, 1.0, rtol=1e-14)
        row = condition_row(point_condition(0.0, 1.0), LEG, 1, dtype)
        assert np.allclose(row, [1.0, 0.0], atol=1e-15)


def test_solve_first_order_by_hand():
    problem = TauProblem(
        basis=LEG,
        operator=[derivative_term([1.0]), identity_term([-1.0])],
        conditions=[point_condition(0.0, 1.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    solution = solve_tau(problem)
    assert np.allclose(solution.coeffs, [1.0, 1.0], rtol=1e-14)
    # the committed perturbation is -x, a single tail coefficient
    tail = solution.residual_tail
    assert tail.shape == (1,)
    assert tail[0] == pytest.approx(-1.0, rel=1e-14)


def test_constant_solution_reproduced_exactly():
    for c in (2.5, -0.3):
        problem = TauProblem(
            basis=jacobi(0.5, -0.5),
            operator=[derivative_term([1.0])],
            conditions=[point_condition(0.0, c)],
            rhs=np.array([0.0]),
            degree=2,
        )
        solution = solve_tau(problem)
        assert np.allclose(solution.coeffs, [c, 0.0, 0.0], atol=1e-14)
        assert np.max(np.abs(solution.residual_tail)) <= 1e-12


def test_volterra_benchmark_degree_100():
    problem = _volterra_problem(LEG, 100)
    solution = solve_tau(problem)
    grid = np.linspace(-1.0, 1.0, 2001)
    err = sup_error(solution, lambda x: volterra_exact(1.25, x), grid)
    assert 1e-8 <= err <= 1e-5


def test_basis_independence_at_converged_degree():
    grid = np.linspace(-1.0, 1.0, 2001)
    sol_leg = solve_tau(_volterra_problem(LEG, 150))
    sol_cheb = solve_tau(_volterra_problem(jacobi(-0.5, -0.5), 150))
    diff = np.max(np.abs(clenshaw(LEG, sol_leg.coeffs, grid) - clenshaw(jacobi(-0.5, -0.5), sol_cheb.coeffs, grid)))
    # both converged cells sit near 1e-7 of 2e5-scale values; 10x their size
    assert diff <= 10 * max(5.4e-7, 1.8e-7)


def test_condition_rows_satisfied():
    epsilon = 1e-2
    problem = TauProblem(
        basis=LEG,
        operator=_airy_operator(epsilon),
        conditions=[point_condition(-1.0, 1.0), point_condition(1.0, 1.0)],
        rhs=np.array([0.0]),
        degree=60,
    )
    solution = solve_tau(problem)
    for cond in problem.conditions:
        row = condition_row(cond, problem.basis, problem.degree)
        slack = 1e-10 * (1.0 + abs(cond.target)) * max(1.0, solution.diagnostics.cond_estimate * 1e-12)
        assert abs(row @ solution.coeffs - cond.target) <= slack


def test_imposed_residual_rows_satisfied():
    problem = _volterra_problem(LEG, 40)
    solution = solve_tau(problem)
    pi = assemble_pi(problem)
    rhs = project_rhs(problem.rhs, problem.basis, pi.shape[0])
    res = pi @ solution.coeffs - rhs
    m_c = len(problem.conditions)
    imposed = res[: problem.degree - m_c + 1]
    bound = 1e-9 * np.max(np.abs(pi).sum(axis=1)) * np.max(np.abs(solution.coeffs))
    assert np.max(np.abs(imposed)) <= bound


def test_airy_tail_decreases_with_degree():
    tails = []
    for n in (250, 350):
        problem = TauProblem(
            basis=LEG,
            operator=_airy_operator(1e-5),
            conditions=[point_condition(-1.0, 1.0), point_condition(1.0, 1.0)],
            rhs=np.array([0.0]),
            degree=n,
        )
        solution = solve_tau(problem)
        tails.append(np.max(np.abs(solution.residual_tail)))
    assert tails[1] < tails[0]


def test_polynomial_exactness_small():
    # L = d/dx + x*id applied to y = x^2: rhs = 2x + x^3
    problem = TauProblem(
        basis=jacobi(1.0, -0.9),
        operator=[derivative_term([1.0]), identity_term([0.0, 1.0])],
        conditions=[point_condition(0.5, 0.25)],
        rhs=np.array([0.0, 2.0, 0.0, 1.0]),
        degree=4,
    )
    solution = solve_tau(problem)
    y_power_exact = project_rhs([0.0, 0.0, 1.0], problem.basis, 5)
    assert np.max(np.abs(solution.coeffs - y_power_exact)) <= 1e-10 * np.max(np.abs(y_power_exact))
    tail = solution.residual_tail
    assert np.max(np.abs(tail)) <= 1e-10


def test_overconstrained_rejected():
    with pytest.raises(ValueError):
        solve_tau(
            TauProblem(
                basis=LEG,
                operator=[derivative_term([1.0])],
                conditions=[point_condition(0.0, 0.0), point_condition(1.0, 1.0)],
                rhs=np.array([0.0]),
                degree=0,
            )
        )


def test_section_size_bounded():
    """Sizes are checked on construction, before any section is allocated."""
    first_order = [derivative_term([1.0]), identity_term([-1.0])]
    at_limit = MAX_SECTION_SIZE - 1  # height 0: section degree + 1
    TauProblem(basis=LEG, operator=first_order, conditions=[], rhs=[0.0], degree=at_limit)
    with pytest.raises(ValueError, match="section size"):
        TauProblem(basis=LEG, operator=first_order, conditions=[], rhs=[0.0], degree=at_limit + 1)
    # degree 3, height 0: section size 4 admits derivative order 4, not 5
    for order, deriv in ((4, 0), (1, 4)):
        TauProblem(
            basis=LEG,
            operator=[derivative_term([1.0], order)],
            conditions=[point_condition(0.0, 0.0, deriv)],
            rhs=[0.0],
            degree=3,
        )
    for order, deriv in ((5, 0), (1, 5)):
        with pytest.raises(ValueError, match="exceeds the section size 4"):
            TauProblem(
                basis=LEG,
                operator=[derivative_term([1.0], order)],
                conditions=[point_condition(0.0, 0.0, deriv)],
                rhs=[0.0],
                degree=3,
            )


def test_singular_system_raises():
    problem = TauProblem(
        basis=LEG,
        operator=[derivative_term([1.0])],
        conditions=[point_condition(0.0, 0.0), point_condition(0.0, 1.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    with pytest.raises(SingularMatrixError):
        solve_tau(problem)


def test_solution_is_callable():
    problem = TauProblem(
        basis=LEG,
        operator=[derivative_term([1.0]), identity_term([-1.0])],
        conditions=[point_condition(0.0, 1.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    solution = solve_tau(problem)
    assert solution(0.5) == pytest.approx(1.5, rel=1e-14)
    assert solution.degree == 1


def test_sup_error_direct():
    problem = TauProblem(
        basis=LEG,
        operator=[derivative_term([1.0]), identity_term([-1.0])],
        conditions=[point_condition(0.0, 1.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    solution = solve_tau(problem)
    err = sup_error(solution, np.exp, [-1.0, 0.0, 1.0])
    assert err == pytest.approx(np.e - 2.0, rel=1e-12)
