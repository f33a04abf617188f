"""The three benchmark workloads: their fixed task lists, generated inputs and
output checks.

Each workload is a list of CLI argument vectors for ``tau_spectra.cli.main``
(one *pass*), plus a check that reads only the CLI's documented outputs (exit
code and CSV files) and compares them with the mpmath references in
``mpref``.  Why each workload exists, and which layer it should move, is
written down in README.md next to this file.

Tolerances are on the relative sup error ``max|y - ref| / max|ref|``:

* bessel, n = 2000: 1e-8; the seed commit measures 3.4e-11.
* table2, n = 1000 column: 1e-10; the seed commit's worst pair measures 8.4e-13.
* solve-mix: 1e-9 for every family, the band ``tests/test_acceptance.py``
  holds the README boundary-layer config to; the seed commit's worst call
  measures 8.4e-13.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mpref


@dataclass
class Outcome:
    """Verdict on one task's outputs; rel_err is None when nothing could be
    compared with a reference."""

    ok: bool
    rel_err: float | None = None
    message: str = ""


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path.name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numeric_columns(path: Path, expected_header: list[str]) -> np.ndarray:
    header, rows = _read_csv(path)
    if header[: len(expected_header)] != expected_header:
        raise ValueError(f"{path.name}: header {header} lacks {expected_header}")
    data = np.array([[float(v) for v in row[: len(expected_header)]] for row in rows])
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"{path.name}: no data rows")
    return data


def _relative_sup_error(y: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))


def _judge(rel: float, tol: float, what: str) -> Outcome:
    if not math.isfinite(rel) or rel > tol:
        return Outcome(False, rel, f"{what}: relative error {rel:.3e} above {tol:g}")
    return Outcome(True, rel)


class Bessel:
    """``bessel -m 10 --degrees 500 1000 1500 2000``: the CLI default."""

    name = "bessel"
    m = 10
    right = 60.0

    def __init__(self, seed: int, smoke: bool = False):
        # The task list is fixed; the seed only labels the run.
        self.degrees = (20, 40) if smoke else (500, 1000, 1500, 2000)
        # Degree 40 cannot resolve J_10 on [0, 60]: the smoke size only
        # exercises the plumbing, so its bound only catches garbage.
        self.tol = 10.0 if smoke else 1e-8

    def sizes(self) -> dict:
        return {"m": self.m, "degrees": list(self.degrees), "checked_degree": self.degrees[-1]}

    def prepare(self, workdir: Path) -> None:
        pass

    def tasks(self, pass_dir: Path) -> list[list[str]]:
        out = pass_dir / "bessel"
        return [
            ["bessel", "-m", str(self.m), "--degrees", *map(str, self.degrees), "-o", str(out)]
        ]

    def check(self, workdir: Path, pass_dir: Path, codes: list[int]) -> list[Outcome]:
        if codes[0] != 0:
            return [Outcome(False, None, f"bessel exited {codes[0]}")]
        try:
            for n in self.degrees:
                data = _numeric_columns(
                    pass_dir / "bessel" / f"bessel_m{self.m}_n{n}.csv", ["x", "y_n"]
                )
                if not np.all(np.isfinite(data)):
                    return [Outcome(False, None, f"non-finite value at degree {n}")]
        except (OSError, ValueError) as exc:
            return [Outcome(False, None, f"unreadable output: {exc}")]
        xs, ys = data[:, 0], data[:, 1]
        if xs[0] < 0.0 or xs[-1] > self.right:
            return [Outcome(False, None, "grid leaves [0, 60]")]
        ref = mpref.bessel_ratio(self.m, self.right, xs)
        return [_judge(_relative_sup_error(ys, ref), self.tol, f"degree {self.degrees[-1]}")]


class Table2:
    """``table2``: Volterra error grid, 4 Jacobi pairs x n in {50, 100, 150, 1000}.

    The CSV holds errors only, so the n = 1000 column is verified by solving
    the same four problems through ``solve`` outside the timed region and
    measuring those solutions against the mpmath closed form; each table
    cell must then agree with that measured error.
    """

    name = "table2"
    pairs = ((0.0, 0.0), (-0.5, -0.5), (1.0, -0.9), (10.0, 0.0))
    degrees = (50, 100, 150, 1000)
    lower = 1.25
    tol = 1e-10
    grid = (-1.0, 1.0, 2001)

    def __init__(self, seed: int, smoke: bool = False):
        if smoke:
            raise ValueError("table2 has no smoke size: its degrees are fixed by the CLI")
        self._verified: list[tuple[float, float, float]] | None = None

    def sizes(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "degrees": list(self.degrees),
            "checked_degree": self.degrees[-1],
        }

    def prepare(self, workdir: Path) -> None:
        for i, (al, be) in enumerate(self.pairs):
            cfg = volterra_config(al, be, self.degrees[-1], self.lower, self.grid)
            _write_config(workdir / f"table2_verify{i}.json", cfg)

    def tasks(self, pass_dir: Path) -> list[list[str]]:
        return [["table2", "-o", str(pass_dir / "table2.csv")]]

    def _verify(self, workdir: Path) -> list[tuple[float, float, float]]:
        """(absolute error, relative error, solution scale) per pair at n = 1000."""
        import tau_spectra.cli as cli

        xs = np.linspace(*self.grid)
        ref = mpref.volterra(self.lower, xs)
        scale = float(np.max(np.abs(ref)))
        out = []
        for i in range(len(self.pairs)):
            csv = workdir / f"table2_verify{i}.csv"
            rc = call_cli(cli, ["solve", str(workdir / f"table2_verify{i}.json"), "-o", str(csv)])[0]
            try:
                ys = _numeric_columns(csv, ["x", "y_n"])[:, 1] if rc == 0 else None
            except (OSError, ValueError):
                ys = None
            if ys is None or ys.shape != ref.shape:
                out.append((math.inf, math.inf, scale))
                continue
            err = float(np.max(np.abs(ys - ref)))
            out.append((err, err / scale, scale))
        return out

    def check(self, workdir: Path, pass_dir: Path, codes: list[int]) -> list[Outcome]:
        if codes[0] != 0:
            return [Outcome(False, None, f"table2 exited {codes[0]}")]
        if self._verified is None:
            self._verified = self._verify(workdir)
        try:
            header, rows = _read_csv(pass_dir / "table2.csv")
        except OSError as exc:
            return [Outcome(False, None, f"unreadable output: {exc}")]
        expected = ["alpha", "beta"] + [f"n={n}" for n in self.degrees]
        if header != expected or len(rows) != len(self.pairs):
            return [Outcome(False, None, f"table shape {header} x {len(rows)} rows")]
        worst = 0.0
        for row, (abs_err, rel_err, scale) in zip(rows, self._verified):
            if "FAIL" in row:
                return [Outcome(False, None, f"FAIL cell in row {row[:2]}")]
            try:
                cells = [float(v) for v in row]
            except ValueError:
                return [Outcome(False, None, f"unparsable row {row}")]
            if not all(math.isfinite(v) for v in cells):
                return [Outcome(False, None, f"non-finite cell in row {row[:2]}")]
            # The CLI measures against its own float64 closed form; that
            # differs from the mpmath value by far less than 1e-12 * scale.
            if abs(cells[-1] - abs_err) > 1e-12 * scale:
                return [
                    Outcome(False, rel_err, f"row {row[:2]}: cell {cells[-1]:.3e} but solution error {abs_err:.3e}")
                ]
            worst = max(worst, rel_err)
        return [_judge(worst, self.tol, "n=1000 column")]


def _jacobi(al: float, be: float) -> dict:
    return {"family": "jacobi", "alpha": al, "beta": be}


def _point(x: float, value: float) -> dict:
    return {"terms": [{"coeff": 1.0, "deriv": 0, "point": x}], "value": value}


def _grid(start: float, stop: float, count: int) -> dict:
    return {"start": start, "stop": stop, "count": count}


def airy_config(al: float, be: float, degree: int, epsilon: float, count: int = 2001) -> dict:
    """The README config: eps*y'' - x*y = 0, y(-1) = y(1) = 1."""
    return {
        "basis": _jacobi(al, be),
        "degree": degree,
        "operator": [
            {"action": "derivative", "coeff": [epsilon], "order": 2},
            {"action": "identity", "coeff": [0.0, -1.0]},
        ],
        "conditions": [_point(-1.0, 1.0), _point(1.0, 1.0)],
        "rhs": {"coeff": [0.0]},
        "grid": _grid(-1.0, 1.0, count),
        "reference": {"kind": "airy_bvp", "params": {"epsilon": epsilon}},
    }


def volterra_config(al: float, be: float, degree: int, a: float, grid=(-1.0, 1.0, 2001)) -> dict:
    """(x-a)^3 y + integral_{-1}^x y = -exp(1/(2(1+a)^2)), the table2 problem."""
    return {
        "basis": _jacobi(al, be),
        "degree": degree,
        "operator": [
            {"action": "identity", "coeff": [-(a**3), 3.0 * a * a, -3.0 * a, 1.0]},
            {"action": "volterra", "coeff": [1.0], "lower": -1.0},
        ],
        "conditions": [],
        "rhs": {"coeff": [-math.exp(1.0 / (2.0 * (-1.0 - a) ** 2))]},
        "grid": _grid(*grid),
        "reference": {"kind": "volterra_exact", "params": {"a": a}},
    }


def bessel_config(m: int, right: float, degree: int, count: int = 2001) -> dict:
    """x^2 y'' + x y' + (x^2 - m^2) y = 0 on [0, right], y(0) = 0, y(right) = 1,
    in the Laguerre basis."""
    return {
        "basis": {"family": "laguerre"},
        "degree": degree,
        "operator": [
            {"action": "derivative", "coeff": [0.0, 0.0, 1.0], "order": 2},
            {"action": "derivative", "coeff": [0.0, 1.0], "order": 1},
            {"action": "identity", "coeff": [-float(m * m), 0.0, 1.0]},
        ],
        "conditions": [_point(0.0, 0.0), _point(right, 1.0)],
        "rhs": {"coeff": [0.0]},
        "grid": _grid(0.0, right, count),
        "reference": {"kind": "bessel", "params": {"m": m, "scale_point": right}},
    }


def _write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# Parameter menus of the solve-mix families.  Every combination appears
# REPEATS times per pass, so each pass holds the same mix of problem kinds
# and the worst-conditioned combination is always present.  Each family's
# degrees are a fixed, evenly spaced set over its range, so every seed asks
# for the same amount of work; the seed deals those degrees to the family's
# calls and draws the call order.  Degree ranges start where the worst
# combination of the family already meets 1e-9 at the seed commit.
AIRY_PAIRS = ((0.0, 0.0), (-0.5, -0.5), (1.0, -0.9), (-0.9, -0.9), (0.5, -0.5))
AIRY_EPSILONS = (1e-2, 5e-3, 2e-3, 1e-3)
AIRY_DEGREES = (64, 160)
VOLTERRA_PAIRS = Table2.pairs
VOLTERRA_POLES = (1.25, 1.5, 2.0)
VOLTERRA_DEGREES = (140, 200)
BESSEL_CASES = ((1, 10.0), (3, 10.0), (6, 10.0), (1, 20.0), (3, 20.0), (6, 20.0), (1, 30.0), (3, 30.0))
BESSEL_DEGREES = (120, 240)
REPEATS = 3
GRID_COUNT = 2001
SAMPLE_STRIDE = 20  # every 20th grid point, both end points included


def _dealt_degrees(rng: random.Random, span: tuple[int, int], count: int) -> list[int]:
    """``count`` degrees evenly spaced over ``span``, end points included, in
    an order drawn from ``rng``."""
    lo, hi = span
    degrees = [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]
    rng.shuffle(degrees)
    return degrees


def solve_mix_specs(seed: int) -> list[dict]:
    """The pass's configs, in call order, as (family, params, config) specs."""
    rng = random.Random(seed)
    airy = [(al, be, eps) for _ in range(REPEATS) for al, be in AIRY_PAIRS for eps in AIRY_EPSILONS]
    volterra = [(al, be, a) for _ in range(REPEATS) for al, be in VOLTERRA_PAIRS for a in VOLTERRA_POLES]
    bessel = [case for _ in range(REPEATS) for case in BESSEL_CASES]
    specs = []
    for (al, be, eps), n in zip(airy, _dealt_degrees(rng, AIRY_DEGREES, len(airy))):
        specs.append({"family": "airy_bvp", "params": [eps], "config": airy_config(al, be, n, eps)})
    for (al, be, a), n in zip(volterra, _dealt_degrees(rng, VOLTERRA_DEGREES, len(volterra))):
        specs.append({"family": "volterra_exact", "params": [a], "config": volterra_config(al, be, n, a)})
    for (m, right), n in zip(bessel, _dealt_degrees(rng, BESSEL_DEGREES, len(bessel))):
        specs.append({"family": "bessel", "params": [m, right], "config": bessel_config(m, right, n)})
    rng.shuffle(specs)
    return specs


class SolveMix:
    """At least 100 ``solve`` calls on configs generated from the seed."""

    name = "solve-mix"
    tol = 1e-9

    def __init__(self, seed: int, smoke: bool = False):
        self.specs = solve_mix_specs(seed)
        if smoke:
            self.specs = self.specs[:5]

    def sizes(self) -> dict:
        degrees = [s["config"]["degree"] for s in self.specs]
        families = sorted({s["family"] for s in self.specs})
        return {
            "calls_per_pass": len(self.specs),
            "families": {f: sum(s["family"] == f for s in self.specs) for f in families},
            "degree_min": min(degrees),
            "degree_max": max(degrees),
            "degree_sum": sum(degrees),
            "grid_count": GRID_COUNT,
            "checked_points": len(range(0, GRID_COUNT, SAMPLE_STRIDE)),
        }

    def prepare(self, workdir: Path) -> None:
        self.config_dir = workdir / "configs"
        self.config_dir.mkdir(parents=True, exist_ok=True)
        for i, spec in enumerate(self.specs):
            _write_config(self.config_dir / f"solve{i:03d}.json", spec["config"])

    def tasks(self, pass_dir: Path) -> list[list[str]]:
        return [
            ["solve", str(self.config_dir / f"solve{i:03d}.json"), "-o", str(pass_dir / f"solve{i:03d}.csv")]
            for i in range(len(self.specs))
        ]

    @staticmethod
    def reference(family: str, params: list, xs: np.ndarray) -> np.ndarray:
        if family == "airy_bvp":
            return mpref.airy_bvp(params[0], xs)
        if family == "volterra_exact":
            return mpref.volterra(params[0], xs)
        return mpref.bessel_ratio(params[0], params[1], xs)

    def check(self, workdir: Path, pass_dir: Path, codes: list[int]) -> list[Outcome]:
        outcomes = []
        for i, (spec, rc) in enumerate(zip(self.specs, codes)):
            if rc != 0:
                outcomes.append(Outcome(False, None, f"call {i} exited {rc}"))
                continue
            g = spec["config"]["grid"]
            xs = np.linspace(g["start"], g["stop"], g["count"])
            try:
                data = _numeric_columns(pass_dir / f"solve{i:03d}.csv", ["x", "y_n"])
            except (OSError, ValueError) as exc:
                outcomes.append(Outcome(False, None, f"call {i}: unreadable output: {exc}"))
                continue
            if data.shape[0] != xs.shape[0] or np.max(np.abs(data[:, 0] - xs)) > 1e-12:
                outcomes.append(Outcome(False, None, f"call {i}: grid does not match the config"))
                continue
            if not np.all(np.isfinite(data[:, 1])):
                outcomes.append(Outcome(False, None, f"call {i}: non-finite value"))
                continue
            idx = np.unique(np.r_[np.arange(0, xs.shape[0], SAMPLE_STRIDE), xs.shape[0] - 1])
            ref = self.reference(spec["family"], spec["params"], xs[idx])
            rel = _relative_sup_error(data[idx, 1], ref)
            outcomes.append(_judge(rel, self.tol, f"call {i} ({spec['family']})"))
        return outcomes


WORKLOADS = {w.name: w for w in (Bessel, Table2, SolveMix)}


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)``; return its exit code and anything it wrote."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed task, not a crashed benchmark
            traceback.print_exc()
            rc = -1
    return int(rc), buf.getvalue()
