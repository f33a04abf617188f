"""Property test: a Laguerre section built partly by the xD route equals the
one built from the H^k table for every term."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tau_spectra import tau  # noqa: E402
from tau_spectra.basis import laguerre, recurrence_arrays  # noqa: E402
from tau_spectra.linalg import Section, _shift_apply  # noqa: E402
from tau_spectra.opmatrix import _derivative_table  # noqa: E402
from tau_spectra.tau import OperatorTerm, TauProblem, assemble_pi, operator_height  # noqa: E402


@st.composite
def laguerre_problems(draw):
    """x^k q(x) D^k terms (k = 0..3, deg q <= 2), which the xD route builds
    for k >= 1, plus up to two p(x) D^k terms with a nonzero coefficient
    below x^k, which keep the H^k table.  Either every coefficient is an
    integer or none need be."""
    integer = draw(st.booleans())
    number = st.integers(-4, 4).map(float) if integer else st.floats(-4.0, 4.0)
    nonzero = number.filter(lambda c: c != 0.0)
    operator = []
    for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)):
        operator.append(OperatorTerm([0.0] * k + draw(st.lists(number, min_size=1, max_size=3)), k))
    for k in draw(st.lists(st.integers(1, 3), max_size=2)):
        lead = draw(st.integers(0, k - 1))
        tail = draw(st.lists(number, max_size=2))
        operator.append(OperatorTerm([0.0] * lead + [draw(nonzero)] + tail, k))
    problem = TauProblem(
        basis=laguerre(), operator=operator, conditions=[], rhs=[0.0], degree=draw(st.integers(2, 80))
    )
    return problem, integer


def _sizes(problem):
    n = problem.degree
    return n, n + 1 + operator_height(problem.operator)


def _dense_route(problem):
    """Pi by the Horner chain over the H^k table for every derivative term,
    uncut above the diagonal: the route every non-Laguerre term takes."""
    n, s = _sizes(problem)
    recurrence = recurrence_arrays(laguerre(), s + 1)
    orders = {t.order for t in problem.operator if t.order > 0}
    powers = _derivative_table(*recurrence, s, orders) if orders else {}
    powers[0] = Section(np.ones((1, s)), 0, np.zeros((0, s)))  # the identity
    terms = [(t.coeff, powers[t.order]) for t in problem.operator]
    return tau._poly_in_shift(recurrence, terms, (s, n + 1)).to_dense()


def _exact_section(problem):
    """Sum of p_j M^j H^k over every term and monomial, summed in extended
    precision.  Each M^j H^k is an integer matrix below 1e12 at these sizes,
    exact in float64, so only the final sum rounds."""
    n, s = _sizes(problem)
    recurrence = recurrence_arrays(laguerre(), s + 1)
    total = np.zeros((s, s), dtype=np.longdouble)
    for term in problem.operator:
        k = term.order
        power = _derivative_table(*recurrence, s, (k,))[k].lead if k else np.eye(s)
        for c in term.coeff:
            total += np.longdouble(c) * power.astype(np.longdouble)
            power = _shift_apply(*recurrence, power)
    return total[:, : n + 1]


@settings(max_examples=100, deadline=None)
@given(laguerre_problems())
def test_laguerre_section_equals_dense_route(drawn):
    problem, integer = drawn
    pi = assemble_pi(problem).to_dense()
    if integer:
        # Every entry is an integer well inside 2^53: both routes are exact.
        assert pi.tobytes() == _dense_route(problem).tobytes()
    else:
        # The dense route's Horner partial sums x^i D^k (i < k) are far larger
        # than the section, so it rounds at up to 2.4e-13 of the section's
        # largest entry here, and so does any term left on it.  assemble_pi
        # is held to be no further from the exact section than the dense
        # route, to within 1e-13 of that entry; over 2000 draws it was never
        # more than 6.1e-16 further.
        exact = _exact_section(problem)
        scale = float(np.max(np.abs(exact)))
        dense_error = float(np.max(np.abs(_dense_route(problem) - exact)))
        assert float(np.max(np.abs(pi - exact))) <= dense_error + 1e-13 * scale
