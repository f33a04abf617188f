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
which are built alone, in O(s).
Custom bases, the monomials among them, need not obey it: their theta[1:]
solves eta[:s, 1:] @ theta[1:] = I by the back substitution similarity_pi
uses (linalg.solve_upper_triangular), in O(s^3).

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
# float64 array, such as a dense H^k or Volterra matrix.  Admits the Bessel
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


def _integral_table_ext(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Antiderivative coefficients with one extra row, shape (s+1, s).

    The derivative section is taken at size s+1 so the k = j+1 = s entries
    the last column reads exist: its three superdiagonals for the classical
    families, all of it for the back substitution of custom bases.
    """
    alpha, beta, gamma = recurrence_arrays(basis, s + 2)
    theta = np.zeros((s + 1, s))
    j = np.arange(s)
    theta[j + 1, j] = a = alpha[:s] / (j + 1)
    if basis.family != "custom":  # structure relation: tridiagonal below row 0
        h1, h2, h3 = _derivative_superdiagonals(alpha, beta, gamma, s + 1)
        theta[j[1:], j[1:]] = b = -a[1:] * h2[: s - 1] / h1[: s - 1]
        theta[j[1:-1], j[2:]] = -(a[2:] * h3 + b[1:] * h2[: s - 2]) / h1[: s - 2]
        return theta
    eta = _derivative_table(alpha, beta, gamma, s + 1, (1,))[1]
    theta[1:] = solve_upper_triangular(eta[:s, 1:], np.eye(s))
    return theta


def integral_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Matrix of antidifferentiation, with the free constant fixed by a zero
    nu_0-component: row 0 is identically zero."""
    _check_size(s, 2)
    return np.ascontiguousarray(_integral_table_ext(basis, s)[:s])


def volterra_matrix(basis: RecurrenceBasis, s: int, a: float) -> np.ndarray:
    """Matrix of u -> integral from a to x of u: the antiderivative matrix
    with row 0 replaced so every column vanishes at x = a."""
    _check_size(s, 2)
    if not np.isfinite(a):
        raise ValueError(f"volterra lower limit must be finite, got {a}")
    theta = _integral_table_ext(basis, s)
    nu_at_a = eval_basis_derivs(basis, s, float(a))[0].astype(np.float64)
    mat = np.ascontiguousarray(theta[:s])
    mat[0, :] = -(nu_at_a[1:] @ theta[1:])
    return mat


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
