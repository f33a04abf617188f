"""System assembly, the square Tau solve, and the perturbation tail."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from tau_spectra import linalg, tau
from tau_spectra.basis import (
    clenshaw,
    custom,
    eval_basis_derivs,
    jacobi,
    laguerre,
    monomial,
    recurrence_arrays,
)
from tau_spectra.cli import airy_problem, bessel_problem
from tau_spectra.linalg import Section, SingularMatrixError, _shift_apply
from tau_spectra.opmatrix import (
    MAX_SECTION_SIZE,
    _derivative_table,
    derivative_matrix,
    volterra_matrix,
)
from tau_spectra.oracles import volterra_exact, volterra_forcing
from tau_spectra.tau import (
    NonFiniteSolutionError,
    OperatorTerm,
    TauProblem,
    assemble_pi,
    condition_row,
    derivative_term,
    identity_term,
    operator_height,
    point_condition,
    project_rhs,
    solve_tau,
    solve_tau_system,
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
    assert operator_height([derivative_term([1.0], 2)]) == 0
    assert operator_height([volterra_term([0, 0, 1.0], -1)]) == 3


def test_term_validation():
    with pytest.raises(ValueError):
        derivative_term([1.0], 0)
    with pytest.raises(ValueError):
        identity_term([])
    with pytest.raises(ValueError):
        volterra_term([1.0], lower=np.inf)
    with pytest.raises(ValueError):
        OperatorTerm([1.0], -2)
    with pytest.raises(ValueError):
        OperatorTerm([1.0], -1, math.inf)
    for array in (np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="expected a 2-d array"):
            Section.from_dense(array)


def test_assemble_pi_first_order():
    problem = TauProblem(
        basis=LEG,
        operator=[derivative_term([1.0]), identity_term([-1.0])],
        conditions=[point_condition(0.0, 1.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    assert np.allclose(assemble_pi(problem).to_dense(), [[-1.0, 1.0], [0.0, -1.0]], atol=1e-15)


def test_assemble_pi_identity():
    problem = TauProblem(
        basis=jacobi(10.0, 0.0),
        operator=[identity_term([1.0])],
        conditions=[],
        rhs=np.array([0.0]),
        degree=4,
    )
    assert np.array_equal(assemble_pi(problem).to_dense(), np.eye(5))


def test_assemble_pi_shift():
    problem = TauProblem(
        basis=LEG,
        operator=[identity_term([0.0, 1.0])],
        conditions=[point_condition(0.0, 0.0)],
        rhs=np.array([0.0]),
        degree=1,
    )
    pi = assemble_pi(problem).to_dense()
    assert pi.shape == (3, 2)
    assert np.allclose(pi[:, 0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(pi[:, 1], [1 / 3, 0.0, 2 / 3], rtol=1e-15)


def _power_section(basis, order, s):
    """H^order on an s-section: assemble_pi of a lone derivative term."""
    problem = TauProblem(
        basis=basis, operator=[derivative_term([1.0], order)], conditions=[], rhs=[0.0],
        degree=s - 1,
    )
    return assemble_pi(problem).to_dense()


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
    assert _traced(assemble_pi, problem)[1] < 8 * s * s * np.dtype(np.float64).itemsize


def _traced(fn, *args):
    """fn(*args) and the peak of the memory it allocated, numpy's buffers
    included."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bessel_solve_holds_no_square_array():
    # Pi is held as its band, and the Tau matrix is the same band under the
    # condition rows, factored by almost-banded QR: the whole solve
    # allocates no (n+1)^2 array
    n = 1000
    peak = _traced(solve_tau, bessel_problem(10, n))[1]
    assert peak <= 0.6 * (n + 1) ** 2 * np.dtype(np.float64).itemsize


def test_dense_top_degree_term_assembles_without_a_sheared_scratch():
    # x^2 D^2 is dense on Legendre and the chain's top-degree term, so the
    # first sum lays its rows over a section with no diagonals; a block of
    # that section spans only the columns asked for.  Measured 4.01 when
    # this bound was set, 5.00 with a scratch 2s - 1 columns wide.
    n = 1000
    problem = TauProblem(
        basis=jacobi(0.0, 0.0),
        operator=[derivative_term([0.0, 0.0, 1.0], 2), identity_term([1.0])],
        conditions=[point_condition(-1.0, 1.0), point_condition(1.0, 0.0)],
        rhs=[0.0],
        degree=n,
    )
    assert _traced(assemble_pi, problem)[1] <= 4.5 * (n + 3) ** 2 * np.dtype(np.float64).itemsize


def test_bessel_section_holds_its_band():
    n = 1000
    section = assemble_pi(bessel_problem(10, n))
    assert section.diags.size + section.lead.size <= 0.15 * (n + 1) ** 2


# The table2 problem: the Volterra matrix is theta's three diagonals under
# its dense row 0, so only the section's first row is held over every column.
# Measured 0.34 and 0.066 when these bounds were set; 1.62 and 0.52 with an
# s x s Volterra matrix.
def test_volterra_solve_holds_no_square_array():
    n = 2000
    peak = _traced(solve_tau, _volterra_problem(jacobi(1.0, -0.9), n))[1]
    assert peak <= 0.5 * (n + 1) ** 2 * np.dtype(np.float64).itemsize


def test_volterra_section_holds_its_band_and_row_block_0():
    n = 2000
    section = assemble_pi(_volterra_problem(jacobi(1.0, -0.9), n))
    assert section.diags.size + section.lead.size <= 0.1 * (n + 1) ** 2


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
        ).to_dense()

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


def test_condition_row_examples():
    row = condition_row(point_condition(1.0, 1.0), LEG, 3)
    assert row.dtype == np.longdouble
    assert np.allclose(row, 1.0, rtol=1e-14)
    row = condition_row(point_condition(0.0, 0.0), laguerre(), 3)
    assert np.allclose(row, 1.0, rtol=1e-14)
    row = condition_row(point_condition(0.0, 1.0), LEG, 1)
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
    exact = np.array([volterra_exact(1.25, float(x)) for x in grid])
    err = np.max(np.abs(solution(grid) - exact))
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
    pi = assemble_pi(problem).to_dense()
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


def test_overconstrained_rejected_on_construction():
    """m_c > n + 1 raises in TauProblem itself, before any section is built."""
    points = (-1.0, 0.0, 1.0)
    first_order = [derivative_term([1.0])]
    TauProblem(LEG, first_order, [point_condition(x, 0.0) for x in points[:2]], [0.0], 1)
    with pytest.raises(ValueError, match="3 conditions over-constrain degree 1"):
        TauProblem(LEG, first_order, [point_condition(x, 0.0) for x in points], [0.0], 1)


def test_oversized_rhs_rejected_on_construction():
    """An rhs of degree above n + h raises in TauProblem itself, before any
    section is built; trailing zeros do not count."""
    operator = _airy_operator(1e-2)  # height 1: degree 3 leaves room for rhs degree 4
    TauProblem(LEG, operator, [], [0.0] * 4 + [1.0], 3)
    TauProblem(LEG, operator, [], [1.0] + [0.0] * 9, 3)
    with pytest.raises(ValueError, match=r"rhs degree 5 exceeds degree \+ height 4"):
        TauProblem(LEG, operator, [], [0.0] * 5 + [1.0], 3)


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


def _dense_pi(problem):
    """Pi by the Horner chain over whole s x s arrays, every row of every
    column, with H^k from the derivative table for every derivative term:
    the reference the banded chain and the Laguerre xD route must match."""
    n = problem.degree
    s = n + 1 + operator_height(problem.operator)
    recurrence = recurrence_arrays(problem.basis, s + 1)
    terms = []
    for term in problem.operator:
        if term.order < 0:
            a_mat = volterra_matrix(problem.basis, s, term.lower)
        elif term.order > 0:
            a_mat = _derivative_table(*recurrence, s, (term.order,))[term.order].lead
        else:
            a_mat = None
        terms.append((term.coeff, a_mat))
    diag = (np.arange(s),) * 2
    top = max(p.shape[0] for p, _ in terms) - 1
    t = np.zeros((s, s))
    for k in range(top, -1, -1):
        if k < top:
            t = _shift_apply(*recurrence, t)
        for p, a_mat in terms:
            if k < p.shape[0] and a_mat is None:
                t[diag] += p[k]
            elif k < p.shape[0]:
                t += p[k] * a_mat
    return np.ascontiguousarray(t[:, : n + 1])


BANDED_PROBLEMS = {
    "bessel-laguerre-300": bessel_problem(10, 300),
    "airy-legendre-200": airy_problem(LEG, 200, 1e-3),
    "volterra-jacobi(1,-0.9)-120": _volterra_problem(jacobi(1.0, -0.9), 120),
    # The rows a Volterra row 0 reaches after deg p products with M are dense,
    # held over every column, the later ones over the band.
    "volterra-quadratic-p-jacobi(1,-0.9)-130": TauProblem(
        basis=jacobi(1.0, -0.9),
        operator=[identity_term([1.0, 0.5]), volterra_term([0.5, -1.2, 0.3], lower=-1.0)],
        conditions=[],
        rhs=[0.0],
        degree=130,
    ),
    "two-volterra-jacobi(10,0)-64": TauProblem(
        basis=jacobi(10.0, 0.0),
        operator=[
            identity_term([2.0, 0.0, -1.0]),
            volterra_term([1.0], lower=-1.0),
            volterra_term([0.0, 0.7], lower=0.5),
        ],
        conditions=[],
        rhs=[0.0],
        degree=64,
    ),
    "volterra-laguerre-63": TauProblem(
        basis=laguerre(),
        operator=[identity_term([1.0]), volterra_term([1.0, -0.5], lower=0.0)],
        conditions=[],
        rhs=[0.0],
        degree=63,
    ),
    "volterra-laguerre-130": TauProblem(
        basis=laguerre(),
        operator=[identity_term([1.0]), volterra_term([1.0, -0.5], lower=2.5)],
        conditions=[],
        rhs=[0.0],
        degree=130,
    ),
    "identity-jacobi(0.5,-0.5)-300": TauProblem(
        basis=jacobi(0.5, -0.5),
        operator=[identity_term([1.0, -2.0, 3.0])],
        conditions=[],
        rhs=[0.0],
        degree=300,
    ),
    # The chain's band grows a diagonal on either side per product with M.
    # Here p(M) V is dense in its first deg p + 1 = 64 rows, as many as a
    # block of the QR has columns;
    "volterra-degree-63-jacobi(1,-0.9)-130": TauProblem(
        basis=jacobi(1.0, -0.9),
        operator=[identity_term([1.0]), volterra_term([(-1.0) ** k / (k + 1) for k in range(64)], lower=-1.0)],
        conditions=[],
        rhs=[0.0],
        degree=130,
    ),
    # here p(M) is 141 diagonals wide, more than two blocks of the QR;
    "identity-degree-70-legendre-200": TauProblem(
        basis=LEG,
        operator=[identity_term([1.0 / (k + 1) for k in range(71)])],
        conditions=[],
        rhs=[0.0],
        degree=200,
    ),
    # here x^2 D^2 is a band of three diagonals under a degree-4 quotient;
    "x2d2-quartic-q-laguerre-129": TauProblem(
        basis=laguerre(),
        operator=[derivative_term([0.0, 0.0, 1.0, -2.0, 0.5, 3.0, -1.0], 2), identity_term([1.0])],
        conditions=[],
        rhs=[0.0],
        degree=129,
    ),
    # and here the 301 diagonals of a degree-150 p(M) are written into the
    # dense rows of H.
    "identity-degree-150-plus-D-legendre-400": TauProblem(
        basis=LEG,
        operator=[identity_term([1.0 / (k + 1) for k in range(151)]), derivative_term([0.5, -1.0], 1)],
        conditions=[],
        rhs=[0.0],
        degree=400,
    ),
    "monomial-mixed-150": TauProblem(
        basis=monomial(),
        operator=[
            derivative_term([0.3, -1.0, 2.0], 2),
            volterra_term([0.5, -1.2], lower=0.25),
            identity_term([-1.5, 0.25, -2.0, 1.0]),
        ],
        conditions=[],
        rhs=[0.0],
        degree=150,
    ),
}


@pytest.mark.parametrize("problem", BANDED_PROBLEMS.values(), ids=BANDED_PROBLEMS.keys())
def test_banded_assembly_equals_dense_chain_bitwise(problem):
    assert assemble_pi(problem).to_dense().tobytes() == _dense_pi(problem).tobytes()


def test_chain_multiplies_by_m_once_per_degree(monkeypatch):
    # One Horner chain over the whole section: deg p = 3 products with M for
    # the Volterra problem, whose section spans five blocks of the QR.
    problem = _volterra_problem(jacobi(1.0, -0.9), 300)
    assert problem.degree + 1 + operator_height(problem.operator) > 4 * linalg._BLOCK
    expected = _dense_pi(problem)
    calls = []
    real = Section.shifted

    def spy(band, *recurrence):
        calls.append(band.diags.shape[1])
        return real(band, *recurrence)

    monkeypatch.setattr(Section, "shifted", spy)
    assert assemble_pi(problem).to_dense().tobytes() == expected.tobytes()
    assert calls == [304] * 3


def test_high_degree_coefficient_assembles_in_seconds():
    # On a 2-core Xeon VM a chain per 64-row block, run on a halo of deg p
    # rows on either side, took 17.4-17.8 s; the band chain takes 1.4-1.5 s.
    problem = TauProblem(
        basis=LEG,
        operator=[identity_term(np.linspace(1.0, 2.0, 301)), derivative_term([1.0], 1)],
        conditions=[],
        rhs=[0.0],
        degree=1000,
    )
    start = time.perf_counter()
    assemble_pi(problem)
    assert time.perf_counter() - start <= 6.0


def _laguerre_problem(operator, n):
    return TauProblem(basis=laguerre(), operator=operator, conditions=[], rhs=[0.0], degree=n)


# 63, 64 and 65 put the last column at either side of a 64-column block edge.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 2000])
def test_bessel_xd_route_equals_dense_route_bitwise(n):
    problem = bessel_problem(10, n)
    assert assemble_pi(problem).to_dense().tobytes() == _dense_pi(problem).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_xk_dk_route_equals_dense_route_bitwise(k):
    for n in (k - 1, 4, 63, 64, 65, 300):  # xD at n = 0 is the 1 x 1 section
        problem = _laguerre_problem([derivative_term([0.0] * k + [1.0], k)], n)
        assert assemble_pi(problem).to_dense().tobytes() == _dense_pi(problem).tobytes()


def test_mixed_xd_and_dense_laguerre_terms_bitwise():
    # x^2 D^2 takes the xD route and D^2 the H^2 table, so no row is cut.
    operator = [derivative_term([0.0, 0.0, 1.0], 2), derivative_term([1.0], 2), identity_term([1.0])]
    problem = _laguerre_problem(operator, 150)
    assert assemble_pi(problem).to_dense().tobytes() == _dense_pi(problem).tobytes()


def test_non_integer_xd_coefficient_within_roundoff():
    # The two routes round differently once a coefficient is not an integer:
    # 2.6e-14 relative to the largest entry, measured at n = 300.
    problem = _laguerre_problem([derivative_term([0.0, 0.0, 0.3], 2)], 300)
    dense = _dense_pi(problem)
    assert np.max(np.abs(assemble_pi(problem).to_dense() - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_xd_route_builds_no_derivative_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("the derivative table was built")

    expected = _dense_pi(bessel_problem(10, 200))
    monkeypatch.setattr(tau, "_derivative_table", no_table)
    assert assemble_pi(bessel_problem(10, 200)).to_dense().tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "problem",
    [
        airy_problem(LEG, 200, 1e-3),
        TauProblem(
            basis=jacobi(1.0, -0.9),
            operator=[derivative_term([0.0, 0.0, 1.0], 2), derivative_term([0.0, 1.0])],
            conditions=[],
            rhs=[0.0],
            degree=150,
        ),
    ],
    ids=["airy-legendre", "jacobi-x2d2-xd"],
)
def test_jacobi_sections_keep_the_derivative_table(problem, monkeypatch):
    expected = _dense_pi(problem)
    orders = []

    def spy(alpha, beta, gamma, s, wanted):
        orders.append(sorted(wanted))
        return _derivative_table(alpha, beta, gamma, s, wanted)

    monkeypatch.setattr(tau, "_derivative_table", spy)
    assert assemble_pi(problem).to_dense().tobytes() == expected.tobytes()
    assert orders == [sorted({t.order for t in problem.operator if t.order > 0})]


def test_project_rhs_follows_the_polynomial_degree():
    coeff = np.array([1.0, -2.0, 0.0, 3.5, -0.25])
    for basis in BASES:
        nu = project_rhs(coeff, basis, 300)
        assert not np.any(nu[5:])
        assert np.array_equal(nu[:5], project_rhs(coeff, basis, 5))


def _refine_arguments(problem, monkeypatch):
    seen = {}
    real = tau._refine

    def spy(t, cond, b, factors, coeffs):
        seen.update(t=t, cond=cond, b=b, coeffs=coeffs)
        seen["refined"] = real(t, cond, b, factors, coeffs)
        return seen["refined"]

    monkeypatch.setattr(tau, "_refine", spy)
    solve_tau(problem)
    return seen


def _tau_matrix(problem) -> np.ndarray:
    """The row-scaled Tau matrix, built densely: the condition rows rounded
    to float64 above the leading rows of Pi, each row scaled by the power of
    two that brings its largest magnitude into [1, 2)."""
    m_c, n = len(problem.conditions), problem.degree
    rows = [np.asarray(condition_row(c, problem.basis, n), dtype=np.float64) for c in problem.conditions]
    t = np.vstack([*rows, assemble_pi(problem).to_dense()[: n + 1 - m_c]])
    return np.ldexp(t, 1 - np.frexp(np.max(np.abs(t), axis=1))[1][:, None])


def _extended_system(t, cond) -> np.ndarray:
    """T with its extended condition rows: the matrix of the band the
    refinement reads, its first rows replaced by the condition rows."""
    t_ext = t.to_dense().astype(np.longdouble)
    t_ext[: len(cond)] = cond
    return t_ext


def _bandwidths(t, dense):
    """Lower and upper bandwidth of t below its first dense rows."""
    rows, cols = np.nonzero(t[dense:])
    rows += dense
    return int(np.max(rows - cols)), int(np.max(cols - rows))


# (problem, rows above the band): Bessel's two condition rows; row 0 of the
# Volterra section, whose Volterra term has p = 1 (the cubic multiplies the
# identity); Airy's H^2 is dense.
RESIDUAL_PROBLEMS = {
    "bessel-500": (bessel_problem(10, 500), 2),
    "volterra-200": (_volterra_problem(jacobi(1.0, -0.9), 200), 1),
    "airy-200": (airy_problem(LEG, 200, 1e-3), None),
}


@pytest.mark.parametrize("problem, dense", RESIDUAL_PROBLEMS.values(), ids=RESIDUAL_PROBLEMS.keys())
def test_banded_residual_equals_full_extended_product(problem, dense, monkeypatch):
    seen = _refine_arguments(problem, monkeypatch)
    t, band, cond = _tau_matrix(problem), seen["t"], seen["cond"]
    t_ext = _extended_system(band, cond)
    b_ext = seen["b"].astype(np.longdouble)
    assert band.to_dense().tobytes() == t.tobytes()
    if dense is not None:
        # the rows above the band held dense, and below them no diagonal
        # past the bandwidths
        lower, upper = _bandwidths(t, dense)
        assert len(band.lead) == dense
        assert len(band.diags) <= lower + upper + 1
    for a in (seen["coeffs"], seen["refined"]):
        a_ext = np.asarray(a, dtype=np.longdouble)
        full = b_ext - t_ext @ a_ext
        banded = b_ext - band.dot(a_ext)
        banded[: len(cond)] = b_ext[: len(cond)] - cond @ a_ext
        # equal values and signs: bit for bit, without the padding bytes
        assert np.array_equal(banded, full)
        assert np.array_equal(np.signbit(banded), np.signbit(full))


# Dense rows the factorization keeps apart: Bessel's two condition rows,
# Volterra's row 0 (the lower limit of its integral); Airy's H^2 makes every
# row dense above the diagonal, so every row is kept explicitly.
DENSE_ROWS_KEPT = {"bessel-500": 2, "volterra-200": 1, "airy-200": 0}


@pytest.mark.parametrize("name", DENSE_ROWS_KEPT)
def test_tau_factor_keeps_only_the_dense_rows_apart(name, monkeypatch):
    problem, kept = RESIDUAL_PROBLEMS[name][0], DENSE_ROWS_KEPT[name]
    seen = {}
    real = tau.qr_factor

    def spy(a):
        seen["factors"] = real(a)
        return seen["factors"]

    monkeypatch.setattr(tau, "qr_factor", spy)
    solve_tau(problem)
    factors = seen["factors"]
    assert factors.dense.shape[0] == kept
    t = _tau_matrix(problem)
    lower, upper = _bandwidths(t, kept) if kept else (t.shape[0], t.shape[0])
    assert max(blk.r.shape[1] for blk in factors.blocks) <= min(t.shape[0], linalg._BLOCK + lower + upper)


def _discrete_forward_error(problem, monkeypatch):
    """Normwise relative forward error of coeffs_extended against the exact
    solution of the row-scaled system solve_tau_system builds: T with its
    extended condition rows, and b.  Pi and f are float64, the condition rows
    long double, so every entry is a binary rational and enters mpmath
    exactly; lu_solve at 50 digits stands in for the exact solution."""
    mpmath = pytest.importorskip("mpmath")
    seen = _refine_arguments(problem, monkeypatch)
    t_ext = _extended_system(seen["t"], seen["cond"])

    def exact(values):
        return [mpmath.mpf(p) / q for p, q in map(np.longdouble.as_integer_ratio, values)]

    with mpmath.workdps(50):
        a = mpmath.matrix([exact(row) for row in t_ext])
        x = mpmath.lu_solve(a, mpmath.matrix(exact(seen["b"].astype(np.longdouble))))
        err = max(abs(c - xi) for c, xi in zip(exact(seen["refined"]), x))
        return float(err / max(abs(xi) for xi in x))


# Legendre through the custom-callback door: x P_j = (j+1)/(2j+1) P_{j+1}
# + j/(2j+1) P_{j-1}, so its sections take the custom-basis routes.
CUSTOM_LEG = custom(lambda j: ((j + 1) / (2 * j + 1), 0.0, j / (2 * j + 1)))


# Forward errors measured when these bounds were set: 1.2e-13, 5.5e-17,
# 8.8e-20 and 1.6e-19; with the refinement taking no step, 5.8e-9, 5.0e-12,
# 4.8e-16 and 1.05e-15. bessel-120, added later, read 1.29e-13.
@pytest.mark.parametrize(
    "problem, bound",
    [
        (bessel_problem(10, 60), 1e-11),
        (bessel_problem(10, 120), 1e-11),
        (_volterra_problem(jacobi(1.0, -0.9), 100), 1e-14),
        (airy_problem(LEG, 80, 1e-2), 1e-17),
        (airy_problem(CUSTOM_LEG, 60, 1e-2), 1e-17),
    ],
    ids=["bessel-60", "bessel-120", "volterra-100", "airy-80", "custom-airy-60"],
)
def test_refined_solution_solves_its_discrete_system(problem, bound, monkeypatch):
    assert _discrete_forward_error(problem, monkeypatch) <= bound


# D^70 with 70 conditions at degree 140: keep = 71, and rows 71..140 of
# H^70 are zero, so every row of the residual tail is a zero row.
HIGH_ORDER_PROBLEM = TauProblem(
    basis=laguerre(),
    operator=[derivative_term([1.0], 70)],
    conditions=[point_condition(0.0, 1.0, d) for d in range(70)],
    rhs=[1.0],
    degree=140,
)
ROUTE_PROBLEMS = {
    "bessel-xd-300": bessel_problem(10, 300),
    "bessel-xd-keep-on-block-edge": bessel_problem(10, 65),
    "airy-hk-200": airy_problem(LEG, 200, 1e-3),
    "volterra-120": _volterra_problem(jacobi(1.0, -0.9), 120),
    "custom-airy-60": airy_problem(CUSTOM_LEG, 60, 1e-2),
    "zero-block-d70": HIGH_ORDER_PROBLEM,
    # 70 dense condition rows: rows 64..69 of the Tau matrix are condition
    # rows, nonzero from column 0, in a second strip of dense rows
    "zero-block-d70-point-values": dataclasses.replace(
        HIGH_ORDER_PROBLEM, conditions=[point_condition(0.01 * i, 1.0) for i in range(70)]
    ),
}


@pytest.mark.parametrize("problem", ROUTE_PROBLEMS.values(), ids=ROUTE_PROBLEMS.keys())
def test_solve_from_assembled_blocks_equals_solve_from_dense_section(problem):
    section = assemble_pi(problem)
    from_dense = Section.from_dense(section.to_dense())
    expected = solve_tau_system(problem, from_dense)
    solution = solve_tau(problem)
    # equal values and signs: bit for bit, without the long double padding
    assert np.array_equal(solution.coeffs_extended, expected.coeffs_extended)
    assert np.array_equal(np.signbit(solution.coeffs_extended), np.signbit(expected.coeffs_extended))
    assert solution.diagnostics.cond_estimate == expected.diagnostics.cond_estimate


def test_reversed_conditions_meet_the_same_zero_pivot_on_both_routes():
    # the derivative conditions of HIGH_ORDER_PROBLEM in reverse order: in
    # float64 the system is singular, at the same column on both routes
    problem = dataclasses.replace(HIGH_ORDER_PROBLEM, conditions=HIGH_ORDER_PROBLEM.conditions[::-1])
    section = assemble_pi(problem)
    pivots = []
    for route in (section, Section.from_dense(section.to_dense())):
        with pytest.raises(SingularMatrixError) as raised:
            solve_tau_system(problem, route)
        pivots.append(raised.value.pivot_index)
    assert pivots[0] == pivots[1]


def test_solve_refuses_a_section_with_a_dense_row_left_of_its_band():
    problem = ROUTE_PROBLEMS["airy-hk-200"]
    section = assemble_pi(problem)
    lead = section.lead.copy()
    lead[100, 100 + section.low - 1] = 1.0
    with pytest.raises(ValueError, match="nonzero left of column i \\+ low"):
        solve_tau_system(problem, Section(section.diags, section.low, lead))


def test_zero_block_problem_splits_a_block_and_holds_a_zero_one():
    section = assemble_pi(HIGH_ORDER_PROBLEM)
    keep = HIGH_ORDER_PROBLEM.degree + 1 - len(HIGH_ORDER_PROBLEM.conditions)
    assert not np.any(section.to_dense()[keep:])
    assert np.all(np.isfinite(solve_tau(HIGH_ORDER_PROBLEM).residual_tail))


# Rows 0..148 of the 152-row section of this problem enter the square system
# below its two condition rows; rows 149..151 are the residual tail.
NON_FINITE_PROBLEM = airy_problem(LEG, 150, 1e-3)
SYSTEM_POSITIONS = ((0, 0), (40, 100), (148, 140))
TAIL_POSITION = (150, 149)


def _section_with(position, value):
    pi = assemble_pi(NON_FINITE_PROBLEM).to_dense()
    pi[position] = value
    return Section.from_dense(pi)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_section_is_a_numerical_failure(value):
    for position in (*SYSTEM_POSITIONS, TAIL_POSITION):
        pi = _section_with(position, value)
        match = "residual tail" if position == TAIL_POSITION else None
        with np.errstate(all="ignore"), pytest.raises(NonFiniteSolutionError, match=match):
            solve_tau_system(NON_FINITE_PROBLEM, pi)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_system_fails_before_factoring(value, monkeypatch):
    def no_factoring(a):
        raise AssertionError("qr_factor ran on a non-finite Tau system")

    monkeypatch.setattr(tau, "qr_factor", no_factoring)
    for position in SYSTEM_POSITIONS:
        pi = _section_with(position, value)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteSolutionError, match="Tau system"):
            solve_tau_system(NON_FINITE_PROBLEM, pi)
