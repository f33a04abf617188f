"""Write the exact solution of the table1 problem on its grid as package data.

table1 measures Jacobi Tau solutions of eps*y'' - x*y = 0, y(-1) = y(1) = 1,
eps = 1e-5, whose exact solution is c1*Ai(k x) + c2*Bi(k x) with
k = eps^(-1/3).  This script evaluates it with mpmath at 50 digits on the
table1 grid and writes one %.17g value per line to
src/tau_spectra/table1_exact.txt, which the `table1` command reads.  mpmath is
a test dependency only, so the values are committed, not computed at run time.

    python scripts/table1_exact.py
"""

from __future__ import annotations

import pathlib
import sys

import mpmath
import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]


def airy_exact(epsilon: float, xs) -> np.ndarray:
    """The solution of eps*y'' - x*y = 0 with y(-1) = y(1) = 1 at each x,
    evaluated at 50 digits and rounded to float64."""
    with mpmath.workdps(50):
        k = mpmath.mpf(epsilon) ** (-mpmath.mpf(1) / 3)
        ai_lo, bi_lo = mpmath.airyai(-k), mpmath.airybi(-k)
        ai_hi, bi_hi = mpmath.airyai(k), mpmath.airybi(k)
        # Cramer's rule: with Ai(k) ~ 1e-92 and Bi(k) ~ 1e91,
        # mpmath.lu_solve calls this 2x2 system singular.
        det = ai_lo * bi_hi - bi_lo * ai_hi
        c1 = (bi_hi - bi_lo) / det
        c2 = (ai_lo - ai_hi) / det
        return np.array(
            [float(c1 * mpmath.airyai(k * x) + c2 * mpmath.airybi(k * x)) for x in xs]
        )


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tau_spectra import cli

    grid = np.linspace(*cli.GRID_JACOBI)
    values = airy_exact(cli.TABLE1_EPSILON, grid.tolist())
    path = ROOT / "src" / "tau_spectra" / cli.TABLE1_EXACT.name
    path.write_text("".join("%.17g\n" % v for v in values.tolist()), encoding="ascii")
    print(f"wrote {values.shape[0]} values to {path}")


if __name__ == "__main__":
    main()
