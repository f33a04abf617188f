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
asked for, without a matrix product.

The integral matrix theta solves eta @ theta = I below row 0; column j has
theta[j+1, j] = alpha[j]/(j+1).  Jacobi and Laguerre obey the structure
relation nu_j = a_j nu_{j+1}' + b_j nu_j' + c_j nu_{j-1}' (Hahn 1935, Math.
Z. 39; Al-Salam & Chihara 1972, SIAM J. Math. Anal. 3), so theta is
tridiagonal below row 0.  Integration by parts, int x u = x int u -
int int u, reads theta @ M - M @ theta + theta @ theta = 0 on rows >= 1, and
its entries (j+1, j) and (j, j) telescope into two cumulative sums over
alpha, beta and gamma that give theta's other two diagonals, in O(s).  The
Volterra matrix from a is theta with row 0 set to -nu(a)[1:] @ theta[1:],
which for these bases is a three-term sum per column, so one O(s) builder
(_integral_band) gives theta's diagonals under that row.
Custom bases, the monomials among them, need not obey the structure
relation: their theta[1:] solves eta[:s, 1:] @ theta[1:] = I by the back
substitution similarity_pi uses (solve_upper_triangular), in O(s^3), and
their Volterra row 0 is that product.

The builders of the term matrices tau assembles from return the package's
one matrix type, linalg.Section: a row-indexed array of diagonals under
optional dense rows, every row dense for H^k and a custom theta.  The same
type carries tau's Horner chain, whose result is the operator section: its
product with the shift adds a diagonal on either side, and its sum with
another band spans both, each entry summed as over the full arrays.
integral_matrix and volterra_matrix return theta's band as an array.

Truncation never corrupts stored entries: every returned entry equals the
corresponding entry of the infinite matrix (the custom back substitution
runs the derivative recurrence one index larger internally).
"""

from __future__ import annotations

import numpy as np

from .basis import RecurrenceBasis, eval_basis_derivs, recurrence_arrays
from .linalg import Section, SingularMatrixError, _shift_apply

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


def shift_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Tridiagonal matrix of multiplication by x: column j holds
    (gamma_j, beta_j, alpha_j) at rows j-1, j, j+1."""
    _check_size(s)
    return _shift_apply(*recurrence_arrays(basis, s), np.eye(s))


def _derivative_table(alpha, beta, gamma, s: int, orders) -> dict[int, Section]:
    """{d: H^d} on an s-section for each requested order d >= 1, each a band
    whose every row is dense.  Column d-1 of t (w) holds column j (j-1) of
    H^d: O(r s) memory beyond the sections.  The sections are stored
    column-major, so writing a column is one contiguous copy."""
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
    return {d: Section(np.zeros((0, s)), d, h) for d, h in powers.items()}


def derivative_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Strictly upper triangular matrix of d/dx: column j holds the
    nu-coefficients of nu_j'."""
    _check_size(s)
    return _derivative_table(*recurrence_arrays(basis, s + 1), s, (1,))[1].lead


def _xd_powers(s: int, top: int) -> list[Section]:
    """[x^k D^k for k = 0..top] on an s-section, each a band of its
    diagonals at offsets 0..k: the identity on any basis, and for k >= 1 on
    the Laguerre basis only.

    There S = xD is upper bidiagonal in closed form, x L_j' = j L_j - j
    L_{j-1}: S[i, i] = i and S[i, i+1] = -(i+1).  So x^k D^k =
    (S - (k-1) I) x^(k-1) D^(k-1) is the shifted step by the tridiagonal
    S - (k-1) I (alpha 0, beta_i = i - (k-1), gamma_i = -i), whose new
    subdiagonal is zero: O(s k), with no matrix product.  The entries are
    integers: any order of operations is exact.
    """
    i, bands = np.arange(float(s)), [Section(np.ones((1, s)), 0, np.zeros((0, s)))]
    for k in range(1, top + 1):
        bands.append(Section(bands[-1].shifted(np.zeros(s), i - (k - 1), -i).diags[1:], 0, bands[-1].lead))
    return bands


def _integral_band(basis: RecurrenceBasis, s: int, lower: float | None = None) -> Section:
    """Theta of a classical basis on an s-section, row 0 zero, as a band of
    its diagonals at offsets -1, 0, 1, in O(s); given a lower limit a, under
    the dense row 0 of the Volterra matrix.

    With sub[j] = theta[j+1, j] = alpha_j/(j+1) (sub[s-1] in the row past
    the section), diag[j] = theta[j, j] and sup[j] = theta[j, j+1], both 0 at
    j = 0, entries (j+1, j) and (j, j) of theta M - M theta + theta^2 = 0
    telescope, for j >= 1, into
        diag[j] = (j beta_j - sum_{k<j} beta_k) / (j (j+1)),
        sup[j] = sum_{i=1..j} i (i+1) (gamma_{i+1} sub[i] - gamma_i sub[i-1]
                 - diag[i]^2) / (j (j+2) alpha_j).
    The Volterra row sums the three terms of -(nu(a)[1:] @ theta[1:]) in
    column j in float64 as
    -((nu_{j-1}(a) sup[j-1] + nu_j(a) diag[j]) + nu_{j+1}(a) sub[j]).
    """
    alpha, beta, gamma = recurrence_arrays(basis, s)
    j = np.arange(1.0, s)
    sub = alpha / np.arange(1.0, s + 1)
    diag = np.append(0.0, (j * beta[1:] - np.cumsum(beta[:-1])) / (j * (j + 1)))
    terms = j[:-1] * j[1:] * (gamma[2:] * sub[1:-1] - gamma[1:-1] * sub[:-2] - diag[1:-1] ** 2)
    sup = np.append(0.0, np.cumsum(terms) / (j[:-1] * (j[:-1] + 2) * alpha[1:-1]))
    diags = np.array([np.append(0.0, sub[:-1]), diag, np.append(sup, 0.0)])
    if lower is None:
        return Section(diags, -1, np.zeros((0, s)))
    nu = eval_basis_derivs(basis, s, lower)[0].astype(np.float64)
    row0 = -((np.append(0.0, nu[:-2]) * np.append(0.0, sup) + nu[:-1] * diag) + nu[1:] * sub)
    return Section(diags, -1, row0[None])


def solve_upper_triangular(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution, row by row, for the columns of b.  Raises
    SingularMatrixError at the last zero diagonal entry of u.

    It serves the integral matrices of custom bases and the change-of-basis
    comparison route, whose low-degree agreement test sits within roundoff
    of its bound, so it keeps that exact rounding.
    """
    x = np.array(b, dtype=np.float64)
    for i in range(u.shape[0] - 1, -1, -1):
        if i < u.shape[0] - 1:
            x[i] -= u[i, i + 1 :] @ x[i + 1 :]
        d = u[i, i]
        if d == 0.0:
            raise SingularMatrixError(i)
        x[i] /= d
    return x


def _volterra_band(basis: RecurrenceBasis, s: int, lower: float | None = None) -> Section:
    """The integral matrix, with row 0 the Volterra row given a lower limit.
    A custom basis takes the back substitution on the derivative section at
    size s+1, so the entries the last column reads exist, and every row of
    its band is dense."""
    if basis.family != "custom":
        return _integral_band(basis, s, lower)
    alpha, beta, gamma = recurrence_arrays(basis, s + 2)
    eta = _derivative_table(alpha, beta, gamma, s + 1, (1,))[1].lead
    theta = solve_upper_triangular(eta[:s, 1:], np.eye(s))  # rows 1..s
    mat = np.vstack([np.zeros(s), theta[:-1]])
    if lower is not None:
        mat[0] = -(eval_basis_derivs(basis, s, lower)[0, 1:].astype(np.float64) @ theta)
    return Section(np.zeros((0, s)), -1, mat)


def integral_matrix(basis: RecurrenceBasis, s: int) -> np.ndarray:
    """Matrix of antidifferentiation, with the free constant fixed by a zero
    nu_0-component: row 0 is identically zero."""
    _check_size(s, 2)
    return _volterra_band(basis, s).block(0, s, 0, s)


def volterra_matrix(basis: RecurrenceBasis, s: int, a: float) -> np.ndarray:
    """Matrix of u -> integral from a to x of u: the antiderivative matrix
    with row 0 replaced so every column vanishes at x = a."""
    _check_size(s, 2)
    if not np.isfinite(a):
        raise ValueError(f"volterra lower limit must be finite, got {a}")
    return _volterra_band(basis, s, a).block(0, s, 0, s)


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
