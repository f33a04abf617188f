"""Operational Tau solver for linear differential, integral, and
integro-differential equations with polynomial coefficients.

Operational matrices for shift, derivative, and integration are built
directly from the three-term recurrence of the chosen orthogonal
polynomial basis, sidestepping the ill-conditioned change of basis
through the monomials.
"""

from .basis import (
    BasisValidityError,
    RecurrenceBasis,
    change_of_basis,
    clenshaw,
    custom,
    eval_basis_derivs,
    jacobi,
    laguerre,
    monomial,
    norms_sq,
    recurrence_arrays,
)
from .linalg import (
    LUFactors,
    SingularMatrixError,
    cond_estimate_1,
    cond_estimate_factored,
    lu_factor,
    lu_solve_factored,
    lu_solve_transposed,
    solve_upper_triangular,
)
from .opmatrix import (
    derivative_matrix,
    integral_matrix,
    shift_matrix,
    similarity_pi,
    volterra_matrix,
)
from .oracles import (
    airy_bvp_reference,
    bessel_j,
    bessel_j_series,
    power_oracle_column,
    volterra_exact,
    volterra_forcing,
)
from .tau import (
    ConditionSpec,
    ConditionTerm,
    Diagnostics,
    NonFiniteSolutionError,
    OperatorTerm,
    TauProblem,
    TauSolution,
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

__version__ = "0.1.0"

__all__ = [
    "BasisValidityError",
    "RecurrenceBasis",
    "jacobi",
    "laguerre",
    "custom",
    "monomial",
    "recurrence_arrays",
    "eval_basis_derivs",
    "clenshaw",
    "norms_sq",
    "change_of_basis",
    "SingularMatrixError",
    "LUFactors",
    "lu_factor",
    "lu_solve_factored",
    "lu_solve_transposed",
    "solve_upper_triangular",
    "cond_estimate_1",
    "cond_estimate_factored",
    "shift_matrix",
    "derivative_matrix",
    "integral_matrix",
    "volterra_matrix",
    "similarity_pi",
    "OperatorTerm",
    "derivative_term",
    "identity_term",
    "volterra_term",
    "ConditionTerm",
    "ConditionSpec",
    "point_condition",
    "TauProblem",
    "TauSolution",
    "Diagnostics",
    "NonFiniteSolutionError",
    "operator_height",
    "assemble_pi",
    "project_rhs",
    "condition_row",
    "solve_tau",
    "solve_tau_system",
    "power_oracle_column",
    "bessel_j",
    "bessel_j_series",
    "volterra_exact",
    "volterra_forcing",
    "airy_bvp_reference",
    "__version__",
]
