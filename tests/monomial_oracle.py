"""The exact-rational oracle for the recurrence-built machinery.

exact_monomial_rows expands each basis polynomial into monomial
coefficients, and power_oracle_column recomputes a column of an operational
matrix through the monomials; both run in exact rational arithmetic, a route
disjoint from the recurrence code they check.  Small degrees only.
"""

from fractions import Fraction

import numpy as np

from tau_spectra.basis import recurrence_arrays

_ORACLE_MAX_DEGREE = 25  # rational arithmetic cost grows fast beyond this


def exact_monomial_rows(basis, count: int) -> list[list[Fraction]]:
    """Monomial coefficients of nu_0 .. nu_count in exact rational arithmetic.

    The stored recurrence coefficients are binary floats, hence exact
    rationals; running the three-term recurrence over Fraction values
    therefore reproduces, with no rounding at all, the polynomial family
    those coefficients define.
    """
    alpha, beta, gamma = recurrence_arrays(basis, max(count, 1))
    al = [Fraction(a) for a in alpha]
    be = [Fraction(b) for b in beta]
    ga = [Fraction(g) for g in gamma]
    rows = [[Fraction(1)]]
    for k in range(count):
        cur = rows[k]
        prev = rows[k - 1] if k >= 1 else []
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += c  # the x * nu_k shift
            nxt[i] -= be[k] * c
        for i, c in enumerate(prev):
            nxt[i] -= ga[k] * c
        rows.append([c / al[k] for c in nxt])
    return rows


def power_oracle_column(basis, kind: str, j: int, lower: float | None = None) -> np.ndarray:
    """Column j of an operational matrix computed through monomials.

    Expands nu_j into monomial coefficients, applies the monomial-basis
    operation for the requested kind (shift, derivative, integral, volterra),
    and converts back by triangular back-substitution.  Every step runs in
    exact rational arithmetic, so the result equals the recurrence-built
    column up to the float rounding of the recurrence path alone.  Returns a
    vector of length j+2 (every such column lives in indices 0..j+1).  Small
    degrees only: exact arithmetic gets expensive quickly.
    """
    if not 0 <= j <= _ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle supports 0 <= j <= {_ORACLE_MAX_DEGREE}, got {j}")
    if kind not in ("shift", "derivative", "integral", "volterra"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if kind == "volterra" and lower is None:
        raise ValueError("volterra oracle needs the lower integration limit")
    s = j + 2
    rows = exact_monomial_rows(basis, s - 1)
    p = list(rows[j]) + [Fraction(0)] * (s - j - 1)
    if kind == "shift":
        q = [Fraction(0)] + p[: s - 1]
    elif kind == "derivative":
        q = [Fraction(i + 1) * p[i + 1] for i in range(s - 1)] + [Fraction(0)]
    else:
        q = [Fraction(0)] + [p[i] / (i + 1) for i in range(s - 1)]
        if kind == "volterra":
            # subtract the value at the lower limit so the primitive vanishes there
            a = Fraction(float(lower))
            q[0] = -sum(q[i] * a**i for i in range(1, s))
    out = [Fraction(0)] * s
    for k in range(s - 1, -1, -1):
        acc = q[k]
        for m in range(k + 1, s):
            acc -= out[m] * rows[m][k]
        out[k] = acc / rows[k][k]
    if kind == "integral":
        out[0] = Fraction(0)  # free constant fixed by zero nu_0-component
    return np.array([float(c) for c in out])
