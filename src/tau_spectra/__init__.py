"""Operational Tau solver for linear differential, integral, and
integro-differential equations with polynomial coefficients.

Operational matrices for shift, derivative, and integration are built
directly from the three-term recurrence of the chosen orthogonal
polynomial basis, sidestepping the ill-conditioned change of basis
through the monomials.

Each public name is declared once, in its submodule's ``__all__``; the
package re-exports the union of those lists.
"""

from . import basis, linalg, opmatrix, oracles, tau
from .basis import *
from .linalg import *
from .opmatrix import *
from .oracles import *
from .tau import *

__version__ = "0.1.0"

__all__ = [
    *basis.__all__,
    *linalg.__all__,
    *opmatrix.__all__,
    *tau.__all__,
    *oracles.__all__,
    "__version__",
]
