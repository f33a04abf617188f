"""Operational matrices built directly from three-term recurrences.

All matrices use the column convention: a function u = sum_k a_k nu_k is the
column vector a, and an operation L maps a to L_nu a, where column j of L_nu
holds the nu-coefficients of L[nu_j].  The shift (multiplication by x) matrix
is tridiagonal straight from the recurrence; the derivative and integral
matrices follow from column recurrences in the same coefficients, so no
ill-conditioned change of basis is involved.  The similarity transform
V Pi V^{-1} is provided for comparison; that classic route degrades quickly
with size, which is the point being made.

The derivative matrix H = eta and its powers are filled column by column:
differentiating the recurrence d times gives, with H^0 = I and column 0 zero,

    H^d[i, j+1] = (alpha[i-1]*H^d[i-1, j] + (beta[i]-beta[j])*H^d[i, j]
                   + gamma[i+1]*H^d[i+1, j] - gamma[j]*H^d[i, j-1]
                   + d*H^(d-1)[i, j]) / alpha[j],

so one pass over the columns builds every power up to the highest order
asked for, without a matrix product.  Offset d = j+1-i reads only offsets
<= d of column j, so the first few superdiagonals close on themselves and
cost O(s).

The integral matrix theta solves eta @ theta = I below row 0; column j has
theta[j+1, j] = a_j = alpha[j]/(j+1).
Jacobi and Laguerre obey the structure relation nu_j = a_j nu_{j+1}' +
b_j nu_j' + c_j nu_{j-1}' (Hahn 1935, Math. Z. 39; Al-Salam & Chihara 1972,
SIAM J. Math. Anal. 3), so theta is tridiagonal below row 0 and rows j-1 and
j-2 of eta @ theta = I give b_j and c_j from three superdiagonals of eta,
which are built alone, in O(s).  The Volterra matrix from a is theta with
row 0 set to -nu(a)[1:] @ theta[1:], which for these bases is a three-term
sum per column, so one O(s) builder gives theta's diagonals and that row,
and the assembly of tau holds them as a band under one dense row;
integral_matrix and volterra_matrix scatter them into an array.
Custom bases, the monomials among them, need not obey it: their theta[1:]
solves eta[:s, 1:] @ theta[1:] = I by the back substitution similarity_pi
uses (linalg.solve_upper_triangular), in O(s^3), and their Volterra row 0
is that product.

Truncation never corrupts stored entries: integral and Volterra builds run
the underlying recurrences one index larger internally, so every returned
entry equals the corresponding entry of the infinite matrix.
"""

from __future__ import annotations

import numpy as np

from .basis import RecurrenceBasis, eval_basis_derivs, recurrence_arrays
from .linalg import solve_upper_triangular

__all__ = [
    "shift_matrix",
    "derivative_matrix",
    "integral_matrix",
    "volterra_matrix",
    "similarity_pi",
]

# Largest section size s any builder or solve takes: 128 MiB for an s x s
# float64 array, such as a dense H^k or the Volterra matrix of a custom
# basis; the Volterra matrix of a classical one is O(s).  Admits the Bessel
# figure (degree 2000, section 2003) and both error tables (degree 1000)
# with room to spare.
MAX_SECTION_SIZE = 4096


def _check_size(s: int, smallest: int = 1) -> None:
    if not smallest <= s <= MAX_SECTION_SIZE:
        raise ValueError(f"matrix size must be in {smallest}..{MAX_SECTION_SIZE}, got {s}")


def _shift_apply(alpha, beta, gamma, t: np.ndarray) -> np.ndarray:
    """Product M @ t using only the tridiagonal coefficients of M."""
    s = t.shape[0]
    out = beta[:s, None] * t
    out[1:] += alpha[: s - 1, None] * t[:-1]
    out[:-1] += gamma[1:s, None] * t[1:]
    return out


def shift_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Tridiagonal matrix of multiplication by x: column j holds
    (gamma_j, beta_j, alpha_j) at rows j-1, j, j+1."""
    _check_size(s)
    return _shift_apply(*recurrence_arrays(basis, s), np.eye(s))


def _derivative_table(alpha, beta, gamma, s: int, orders) -> dict[int, np.ndarray]:
    """{d: H^d} on an s-section for each requested order d >= 1.  Column d-1
    of t (w) holds column j (j-1) of H^d: O(r s) memory beyond the sections.
    The sections are stored column-major, so writing a column is one
    contiguous copy."""
    r = max(orders)
    powers = {d: np.zeros((s, s), order="F") for d in orders}
    t, w = np.zeros((2, s, r))
    scale = np.arange(2.0, r + 1.0)
    for j in range(s - 1):
        col = (beta[: j + 1, None] - beta[j]) * t[: j + 1] + gamma[1 : j + 2, None] * t[1 : j + 2]
        col -= gamma[j] * w[: j + 1]
        col[1:] += alpha[:j, None] * t[:j]
        col[j, 0] += 1.0  # d-term of H^1: column j of H^0 = I is e_j
        if r > 1:
            col[:, 1:] += scale * t[: j + 1, :-1]
        w, t = t, w
        np.divide(col, alpha[j], out=t[: j + 1])
        for d in orders:
            powers[d][: j + 1, j + 1] = t[: j + 1, d - 1]
    return powers


def derivative_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Strictly upper triangular matrix of d/dx: column j holds the
    nu-coefficients of nu_j'."""
    _check_size(s)
    return _derivative_table(*recurrence_arrays(basis, s + 1), s, (1,))[1]


def _derivative_superdiagonals(alpha, beta, gamma, s: int) -> tuple[np.ndarray, ...]:
    """Superdiagonals 1, 2 and 3 of H on an s-section, in O(s).

    Entry H[i, j+1] at offset d = j+1-i reads offsets <= d of column j, so
    the order-1 column recurrence closes on the first three offsets.  Each
    entry takes the operations _derivative_table applies to it, exact zeros
    included, so all three equal np.diagonal(H, d) bit for bit.
    """
    al, be, ga = alpha.tolist(), beta.tolist(), gamma.tolist()
    h = [[], [], [], []]  # h[d][i] = H[i, i+d]; the diagonal (d = 0) is zero

    def entry(d: int, i: int) -> float:
        return h[d][i] if d >= 1 else 0.0

    for j in range(s - 1):
        for d in range(1, min(j + 1, 3) + 1):
            i = j + 1 - d
            v = (be[i] - be[j]) * entry(d - 1, i) + ga[i + 1] * entry(d - 2, i + 1)
            v -= ga[j] * entry(d - 2, i)
            if i >= 1:
                v += al[i - 1] * h[d][i - 1]
            if d == 1:
                v += 1.0
            h[d].append(v / al[j])
    return tuple(np.array(h[d]) for d in (1, 2, 3))


def _xd_powers(s: int, orders) -> dict[int, list]:
    """{k: diagonals of x^k D^k} on an s-section for each k in orders,
    Laguerre basis only: entry o of the list holds A[i, i+o], o = 0..k.

    There S = xD is upper bidiagonal in closed form, x L_j' = j L_j - j
    L_{j-1}: S[i, i] = i and S[i, i+1] = -(i+1).  Each factor of
    x^k D^k = (S - (k-1) I) x^(k-1) D^(k-1) combines two neighbouring rows,
    so x^k D^k has upper bandwidth k and costs O(s k), with no matrix
    product, and stays as its diagonals.  The entries are integers: any
    order of operations is exact.
    """
    s0, s1 = np.arange(float(s)), -np.arange(1.0, s)
    band = [s0, s1]
    powers = {}
    for k in range(1, max(orders) + 1):
        if k > 1:
            prev = band
            band = [(s0[: s - o] - (k - 1)) * d for o, d in enumerate(prev)]
            band += [np.zeros(s - k)] if k < s else []
            for o in range(1, len(band)):
                band[o] += s1[: s - o] * prev[o - 1][1:]
        if k in orders:
            powers[k] = band
    return powers


def _integral_band(basis: RecurrenceBasis, s: int, lower: float | None = None) -> tuple:
    """Theta of a classical basis on an s-section, row 0 zero, as its
    diagonals at offsets -1, 0, 1 in np.diagonal's order, in O(s); and given
    a lower limit a, row 0 of the Volterra matrix (None without one).  With
    sub[j] = theta[j+1, j] (sub[s-1] in the row past the section), diag[j] =
    theta[j, j] and sup[j] = theta[j, j+1], that row sums the three terms of
    -(nu(a)[1:] @ theta[1:]) in column j in float64 as
    -((nu_{j-1}(a) sup[j-1] + nu_j(a) diag[j]) + nu_{j+1}(a) sub[j]).
    """
    alpha, beta, gamma = recurrence_arrays(basis, s + 2)
    sub = alpha[:s] / np.arange(1, s + 1)
    diag, sup = np.zeros(s), np.zeros(s - 1)
    h1, h2, h3 = _derivative_superdiagonals(alpha, beta, gamma, s + 1)
    diag[1:] = -sub[1:] * h2[: s - 1] / h1[: s - 1]
    sup[1:] = -(sub[2:] * h3 + diag[2:] * h2[: s - 2]) / h1[: s - 2]
    if lower is None:
        return [sub[:-1], diag, sup], None
    nu = eval_basis_derivs(basis, s, lower)[0].astype(np.float64)
    return [sub[:-1], diag, sup], -((np.append(0.0, nu[:-2]) * np.append(0.0, sup) + nu[:-1] * diag) + nu[1:] * sub)


def _integral_section(basis: RecurrenceBasis, s: int, lower: float | None = None) -> np.ndarray:
    """The integral matrix, with row 0 the Volterra row given a lower limit.
    A custom basis takes the back substitution on the derivative section at
    size s+1, so the entries the last column reads exist."""
    if basis.family != "custom":
        diagonals, row0 = _integral_band(basis, s, lower)
        mat, j = np.zeros((s, s)), np.arange(s)
        mat[j[1:], j[:-1]], mat[j, j], mat[j[:-1], j[1:]] = diagonals
    else:
        alpha, beta, gamma = recurrence_arrays(basis, s + 2)
        eta = _derivative_table(alpha, beta, gamma, s + 1, (1,))[1]
        theta = solve_upper_triangular(eta[:s, 1:], np.eye(s))  # rows 1..s
        mat = np.zeros((s, s))
        mat[1:] = theta[:-1]
        row0 = None if lower is None else -(eval_basis_derivs(basis, s, lower)[0, 1:].astype(np.float64) @ theta)
    if row0 is not None:
        mat[0] = row0
    return mat


def integral_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Matrix of antidifferentiation, with the free constant fixed by a zero
    nu_0-component: row 0 is identically zero."""
    _check_size(s, 2)
    return _integral_section(basis, s)


def volterra_matrix(basis: RecurrenceBasis, s: int, a: float) -> np.ndarray:
    """Matrix of u -> integral from a to x of u: the antiderivative matrix
    with row 0 replaced so every column vanishes at x = a."""
    _check_size(s, 2)
    if not np.isfinite(a):
        raise ValueError(f"volterra lower limit must be finite, got {a}")
    return _integral_section(basis, s, a)


def similarity_pi(v: np.ndarray, pi_power: np.ndarray) -> np.ndarray:
    """Classic change-of-basis route: map a monomial-basis operator section
    into the nu basis as V^{-T} Pi_power V^T via one triangular solve.

    Kept as the comparison path; cond(V) grows so fast with size that this
    route loses all accuracy where the recurrence-built matrices do not.
    """
    v = np.asarray(v, dtype=np.float64)
    pi_power = np.asarray(pi_power, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"V must be square, got shape {v.shape}")
    if pi_power.shape != v.shape:
        raise ValueError(
            f"operator section {pi_power.shape} does not match V {v.shape}"
        )
    return solve_upper_triangular(v.T, pi_power @ v.T)
