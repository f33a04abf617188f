"""Headline guarantees of the package, each test with its runtime budget.

These are the contract the rest of the suite supports: structural identities
of the operational matrices, oracle agreement, the two benchmark tables, the
Bessel and boundary-layer problems, the conditioning comparison between the
recurrence and change-of-basis construction paths, and polynomial exactness
of the solver on randomized problems.
"""

import dataclasses
import importlib.util
import pathlib
import time
from fractions import Fraction

import numpy as np
import pytest

from tau_spectra import (
    airy_bvp_reference,
    assemble_pi,
    bessel_j,
    change_of_basis,
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
    Section,
    shift_matrix,
    similarity_pi,
    solve_tau,
    solve_tau_system,
    volterra_exact,
    volterra_matrix,
    volterra_term,
    TauProblem,
)
from tau_spectra.cli import (
    GRID_BESSEL,
    GRID_JACOBI,
    TABLE1_EPSILON,
    TABLE1_EXACT,
    TABLE1_PAIRS,
    TABLE2_LOWER,
    TABLE2_PAIRS,
    airy_problem,
    bessel_problem,
    condition_comparison,
    read_grid_values,
    volterra_problem,
)
from monomial_oracle import exact_monomial_rows, power_oracle_column

BASES = [jacobi(0.0, 0.0), jacobi(-0.5, -0.5), jacobi(1.0, -0.9), jacobi(10.0, 0.0), laguerre()]


def _grid(spec):
    start, stop, count = spec
    return np.linspace(start, stop, count)


def _table1_script():
    """scripts/table1_exact.py as a module; skips the test without mpmath."""
    pytest.importorskip("mpmath")
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "table1_exact.py"
    spec = importlib.util.spec_from_file_location("table1_exact", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    exact = np.array([volterra_exact(TABLE2_LOWER, float(x)) for x in grid])

    def cell(alpha, beta, n):
        problem = volterra_problem(jacobi(alpha, beta), n, TABLE2_LOWER)
        return np.max(np.abs(solve_tau(problem)(grid) - exact))

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


def test_volterra_table2_at_degree_1000():
    """Every table2 pair at n = 1000 against the exact solution, relative to
    its sup norm; the error table test above checks only loose bands."""
    start = time.perf_counter()
    grid = _grid(GRID_JACOBI)
    exact = np.array([volterra_exact(TABLE2_LOWER, float(x)) for x in grid])
    for alpha, beta in TABLE2_PAIRS:
        y = solve_tau(volterra_problem(jacobi(alpha, beta), 1000, TABLE2_LOWER))(grid)
        rel = np.max(np.abs(y - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-11, (alpha, beta, rel)
    assert time.perf_counter() - start < 30.0


def test_boundary_layer_problem():
    start = time.perf_counter()
    grid = _grid(GRID_JACOBI)
    legendre = jacobi(0.0, 0.0)

    # moderate layer width: an independent reference exists in float64
    sol = solve_tau(airy_problem(legendre, 80, 1e-2))
    assert np.max(np.abs(sol(grid) - airy_bvp_reference(1e-2, grid))) <= 1e-9

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
    script = _table1_script()
    start = time.perf_counter()
    grid = _grid(GRID_JACOBI)[::10]
    exact = script.airy_exact(TABLE1_EPSILON, grid.tolist())
    for alpha, beta in TABLE1_PAIRS:
        y = solve_tau(airy_problem(jacobi(alpha, beta), 1000, TABLE1_EPSILON))(grid)
        assert np.max(np.abs(y - exact)) <= 2e-11, (alpha, beta)
    assert time.perf_counter() - start < 30.0


def test_committed_table1_values_are_the_exact_solution():
    """The package data table1 measures against, on every 10th grid point,
    equals the 50-digit Ai/Bi solution rounded to float64."""
    script = _table1_script()
    grid = _grid(GRID_JACOBI)
    committed = read_grid_values(TABLE1_EXACT, grid.shape[0])
    exact = script.airy_exact(TABLE1_EPSILON, grid[::10].tolist())
    assert np.max(np.abs(committed[::10] - exact)) <= 1e-15


def test_bessel_convergence():
    start = time.perf_counter()
    grid = _grid(GRID_BESSEL)
    norm = bessel_j(10, 60.0)
    reference = np.array([bessel_j(10, float(x)) / norm for x in grid])

    # Converged solves sit at 7e-11 .. 4e-10 at every degree, not monotone in
    # n; a refinement that stalls reads 1e-6 .. 33 here.
    for n in (150, 200, 300, 500, 1000, 1500, 2000):
        sol = solve_tau(bessel_problem(10, n))
        ys = sol(grid)
        left = sol(np.array([0.0]))[0]
        right = sol(np.array([60.0]))[0]
        assert abs(left) <= 1e-8
        assert abs(right - 1.0) <= 1e-8
        assert float(np.max(np.abs(ys - reference))) <= 1e-9, n
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
    pi_power[:, :21] = assemble_pi(dataclasses.replace(problem, basis=monomial())).to_dense()
    pi_sim = similarity_pi(v, pi_power)[:, :21]
    y_sim = solve_tau_system(problem, Section.from_dense(pi_sim))(grid)
    scale = float(np.max(np.abs(y_rec)))
    assert np.max(np.abs(y_rec - y_sim)) <= 1e-8 * scale
    assert time.perf_counter() - start < 10.0


def _legendre_cond_1_exact(s: int) -> Fraction:
    """cond_1 of the s x s Legendre change-of-basis matrix V in rationals:
    row j of V holds P_j in powers of x, row j of V^{-1} holds x^j in
    Legendre polynomials."""
    zero = [Fraction(0)] * s
    v = [[Fraction(1)] + zero[1:], [Fraction(0), Fraction(1)] + zero[2:]]
    for j in range(1, s - 1):
        # P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1)
        v.append([((2 * j + 1) * (v[j][k - 1] if k else 0) - j * v[j - 1][k]) / (j + 1) for k in range(s)])
    inv = [[Fraction(1)] + zero[1:]]
    for _ in range(1, s):
        # x P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1)
        row = list(zero)
        for k, c in enumerate(inv[-1]):
            if c:
                row[k + 1] += c * (k + 1) / (2 * k + 1)
                if k:
                    row[k - 1] += c * k / (2 * k + 1)
        inv.append(row)
    return max(sum(abs(r[i]) for r in v) for i in range(s)) * max(sum(abs(r[i]) for r in inv) for i in range(s))


@pytest.mark.parametrize("n", [20, 50, 100, 200])
def test_condition_demo_cond_is_exact(n):
    # Far above 1/eps a factorization-based estimate runs on factors that are
    # mostly rounding (LU with Hager reads 4.93e37 at n = 100, and one read
    # 26x low at n = 200), so the value is held to the exact rational one.
    start = time.perf_counter()
    s = n + 1 + operator_height(volterra_problem(jacobi(0.0, 0.0), n, TABLE2_LOWER).operator)
    exact = _legendre_cond_1_exact(s)
    cond_v = condition_comparison(n)[2]
    assert abs(Fraction(cond_v) - exact) <= Fraction(1, 10**12) * exact
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
        rows = exact_monomial_rows(basis, n)
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

        m_c = max((t.order for t in terms if t.order > 0), default=0)
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
