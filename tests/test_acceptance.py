"""Headline guarantees of the package, each test with its runtime budget.

These are the contract the rest of the suite supports: structural identities
of the operational matrices, oracle agreement, the two benchmark tables, the
Bessel and boundary-layer problems, the conditioning comparison between the
recurrence and change-of-basis construction paths, and polynomial exactness
of the solver on randomized problems.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from tau_spectra import (
    airy_bvp_reference,
    assemble_pi,
    bessel_j,
    change_of_basis,
    cond_estimate_1,
    derivative_matrix,
    derivative_term,
    eval_basis_derivs,
    identity_term,
    integral_matrix,
    jacobi,
    laguerre,
    monomial,
    operator_height,
    point_condition,
    power_oracle_column,
    shift_matrix,
    similarity_pi,
    solve_tau,
    solve_tau_system,
    sup_error,
    volterra_exact,
    volterra_matrix,
    volterra_term,
    TauProblem,
)
from tau_spectra.cli import (
    GRID_BESSEL,
    GRID_JACOBI,
    TABLE1_EPSILON,
    TABLE1_PAIRS,
    TABLE2_LOWER,
    airy_problem,
    bessel_problem,
    condition_comparison,
    volterra_problem,
)
from tau_spectra.oracles import _exact_monomial_rows

BASES = [jacobi(0.0, 0.0), jacobi(-0.5, -0.5), jacobi(1.0, -0.9), jacobi(10.0, 0.0), laguerre()]


def _grid(spec):
    start, stop, count = spec
    return np.linspace(start, stop, count)


def test_structural_identities():
    start = time.perf_counter()
    for basis in BASES:
        for s in (10, 50, 200):
            m = shift_matrix(basis, s)
            h = derivative_matrix(basis, s)
            t = integral_matrix(basis, s)
            # structure is exact, not merely small
            assert np.array_equal(np.triu(m, 2), np.zeros((s, s)))
            assert np.array_equal(np.tril(m, -2), np.zeros((s, s)))
            assert np.array_equal(np.tril(h, 0), np.zeros((s, s)))
            assert np.array_equal(t[0], np.zeros(s))
            assert np.array_equal(np.tril(t, -2), np.zeros((s, s)))
            if s >= 2:
                prod = h @ t
                assert np.max(np.abs(prod[:, : s - 1] - np.eye(s)[:, : s - 1])) <= 1e-12
                comm = h @ m - m @ h
                assert np.max(np.abs(comm[: s - 1, : s - 1] - np.eye(s - 1))) <= 1e-11
    assert time.perf_counter() - start < 5.0


def test_oracle_equivalence():
    start = time.perf_counter()
    s = 27
    for basis in BASES:
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
                assert np.max(np.abs(col - oracle)) <= 1e-9 * scale
    assert time.perf_counter() - start < 5.0


def test_volterra_error_table():
    start = time.perf_counter()
    grid = _grid(GRID_JACOBI)
    reference = lambda x: volterra_exact(TABLE2_LOWER, x)

    def cell(alpha, beta, n):
        problem = volterra_problem(jacobi(alpha, beta), n, TABLE2_LOWER)
        return sup_error(solve_tau(problem), reference, grid)

    assert cell(0.0, 0.0, 50) > 1.0
    assert 1e-8 <= cell(0.0, 0.0, 100) <= 1e-5
    assert 1e-3 <= cell(10.0, 0.0, 100) <= 10.0
    assert cell(10.0, 0.0, 150) <= 1e-7
    # error stagnates once the approximation bottoms out at the reference's
    # own float64 noise floor instead of improving with degree
    e150 = cell(0.0, 0.0, 150)
    e1000 = cell(0.0, 0.0, 1000)
    assert e1000 <= 100.0 * e150
    assert e1000 >= e150 / 100.0
    assert time.perf_counter() - start < 120.0


def test_boundary_layer_problem():
    start = time.perf_counter()
    grid = _grid(GRID_JACOBI)
    legendre = jacobi(0.0, 0.0)

    # moderate layer width: an independent reference exists in float64
    sol = solve_tau(airy_problem(legendre, 80, 1e-2))
    err = sup_error(sol, lambda x: airy_bvp_reference(1e-2, x), grid)
    assert err <= 1e-9

    # sharp layer: no independent float64 reference, so pin the solution by
    # agreement across bases and across degrees
    y_leg = solve_tau(airy_problem(legendre, 400, 1e-5))(grid)
    y_cheb = solve_tau(airy_problem(jacobi(-0.5, -0.5), 400, 1e-5))(grid)
    assert np.max(np.abs(y_leg - y_cheb)) <= 1e-8

    y_350 = solve_tau(airy_problem(legendre, 350, 1e-5))(grid)
    y_500 = solve_tau(airy_problem(legendre, 500, 1e-5))(grid)
    assert np.max(np.abs(y_350 - y_500)) <= 1e-8
    assert time.perf_counter() - start < 120.0


def test_airy_table1_against_exact_solution():
    """table1's problem at degree 1000 against its exact solution
    c1*Ai(k x) + c2*Bi(k x), k = eps^(-1/3), evaluated at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    start = time.perf_counter()
    grid = _grid(GRID_JACOBI)[::10]
    with mpmath.workdps(50):
        k = mpmath.mpf(TABLE1_EPSILON) ** (-mpmath.mpf(1) / 3)
        ai_lo, bi_lo = mpmath.airyai(-k), mpmath.airybi(-k)
        ai_hi, bi_hi = mpmath.airyai(k), mpmath.airybi(k)
        # Cramer's rule for y(-1) = y(1) = 1: with Ai(k) ~ 1e-92 and
        # Bi(k) ~ 1e91, mpmath.lu_solve calls this 2x2 system singular.
        det = ai_lo * bi_hi - bi_lo * ai_hi
        c1 = (bi_hi - bi_lo) / det
        c2 = (ai_lo - ai_hi) / det
        exact = np.array(
            [float(c1 * mpmath.airyai(k * x) + c2 * mpmath.airybi(k * x)) for x in grid]
        )
    for alpha, beta in TABLE1_PAIRS:
        y = solve_tau(airy_problem(jacobi(alpha, beta), 1000, TABLE1_EPSILON))(grid)
        assert np.max(np.abs(y - exact)) <= 2e-11, (alpha, beta)
    assert time.perf_counter() - start < 30.0


def test_bessel_convergence():
    start = time.perf_counter()
    grid = _grid(GRID_BESSEL)
    norm = bessel_j(10, 60.0)
    reference = np.array([bessel_j(10, float(x)) / norm for x in grid])

    sup_errors = []
    for n in (500, 1000, 1500, 2000):
        sol = solve_tau(bessel_problem(10, n))
        ys = sol(grid)
        left = sol(np.array([0.0]))[0]
        right = sol(np.array([60.0]))[0]
        assert abs(left) <= 1e-8
        assert abs(right - 1.0) <= 1e-8
        sup_errors.append(float(np.max(np.abs(ys - reference))))

    for worse, better in zip(sup_errors, sup_errors[1:]):
        assert better <= worse
    assert sup_errors[-1] <= 5e-2
    assert time.perf_counter() - start < 600.0


def test_conditioning_comparison():
    start = time.perf_counter()
    err_rec, err_sim, cond_v = condition_comparison(100)
    assert cond_v >= 1e15
    assert err_sim >= 1e3 * err_rec

    # low degree: the change-of-basis matrix is still tame and both
    # construction paths give the same polynomial (to the solution's scale,
    # which is ~1e5 on this problem)
    basis = jacobi(0.0, 0.0)
    problem = volterra_problem(basis, 20, TABLE2_LOWER)
    grid = _grid(GRID_JACOBI)
    y_rec = solve_tau(problem)(grid)
    s = 21 + operator_height(problem.operator)
    v = change_of_basis(basis, s - 1)
    pi_power = np.zeros((s, s))
    pi_power[:, :21] = assemble_pi(dataclasses.replace(problem, basis=monomial()))
    pi_sim = similarity_pi(v, pi_power)[:, :21]
    y_sim = solve_tau_system(problem, pi_sim)(grid)
    scale = float(np.max(np.abs(y_rec)))
    assert np.max(np.abs(y_rec - y_sim)) <= 1e-8 * scale
    assert time.perf_counter() - start < 10.0


def _fpoly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _fpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _fpoly_deriv(a, order):
    cur = list(a)
    for _ in range(order):
        cur = [Fraction(i + 1) * cur[i + 1] for i in range(len(cur) - 1)]
        if not cur:
            cur = [Fraction(0)]
    return cur


def _fpoly_integ(a, lower):
    q = [Fraction(0)] + [a[i] / (i + 1) for i in range(len(a))]
    lo = Fraction(float(lower))
    q[0] = -sum(q[i] * lo**i for i in range(1, len(q)))
    return q


def test_polynomial_exactness():
    """Randomized problems with polynomial solutions of degree <= n are
    solved to roundoff: coefficients recover exactly and the committed
    perturbation is negligible.

    Drawn problems whose right-hand side dwarfs the solution are redrawn:
    rounding such an rhs to float64 already perturbs the problem's own exact
    solution by eps times the amplification, so data with amplification
    above 1e4 cannot pin the coefficients to the 1e-10 band no matter what
    the solver does.  The guard is a property of the draw, not of the
    solver's output.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(38)

    def draw_poly(deg):
        pc = rng.uniform(-1.0, 1.0, deg + 1)
        while abs(pc[-1]) < 0.1:
            pc = rng.uniform(-1.0, 1.0, deg + 1)
        return pc

    accepted = 0
    attempts = 0
    while accepted < 20:
        attempts += 1
        assert attempts <= 200, "draw filter rejected too many problems"
        basis = BASES[int(rng.integers(0, 5))]
        lo, hi = (0.0, 6.0) if basis.family == "laguerre" else (-1.0, 1.0)
        n = int(rng.integers(5, 13))
        c = rng.uniform(-1.0, 1.0, n + 1)
        rows = _exact_monomial_rows(basis, n)
        y_pow = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            ck = Fraction(float(c[k]))
            for i, v in enumerate(rows[k]):
                y_pow[i] += ck * v

        nterms = int(rng.integers(1, 4))
        actions = [str(a) for a in rng.choice(["derivative", "identity", "volterra"], size=nterms)]
        if accepted % 3 == 0 and "derivative" not in actions:
            actions[0] = "derivative"

        terms = []
        f_pow = [Fraction(0)]
        for action in actions:
            pc = draw_poly(int(rng.integers(0, 3)))
            pc_frac = [Fraction(float(v)) for v in pc]
            if action == "derivative":
                order = int(rng.integers(1, 3))
                terms.append(derivative_term(pc, order))
                contrib = _fpoly_mul(pc_frac, _fpoly_deriv(y_pow, order))
            elif action == "identity":
                terms.append(identity_term(pc))
                contrib = _fpoly_mul(pc_frac, y_pow)
            else:
                pc = pc[:2]
                terms.append(volterra_term(pc, lower=lo))
                contrib = _fpoly_mul([Fraction(float(v)) for v in pc], _fpoly_integ(y_pow, lo))
            f_pow = _fpoly_add(f_pow, contrib)

        amplification = max(abs(float(v)) for v in f_pow) / np.max(np.abs(c))
        if amplification > 1e4:
            continue

        m_c = max((t.order for t in terms if t.action == "derivative"), default=0)
        conditions = []
        for x in np.linspace(lo, hi, m_c + 2)[:m_c]:
            tab = eval_basis_derivs(basis, n, float(x))
            conditions.append(point_condition(float(x), float(tab[0] @ c)))

        problem = TauProblem(
            basis=basis,
            operator=terms,
            conditions=conditions,
            rhs=[float(v) for v in f_pow],
            degree=n,
        )
        sol = solve_tau(problem)
        rel = np.max(np.abs(sol.coeffs - c)) / np.max(np.abs(c))
        assert rel <= 1e-10, f"trial {accepted}: coefficient error {rel:.3e}"
        tail = sol.residual_tail
        if tail.size:
            assert np.max(np.abs(tail)) <= 1e-10, f"trial {accepted}"
        accepted += 1
    assert time.perf_counter() - start < 5.0
