"""Command-line front end.

Solves problems described by JSON config files, reproduces the benchmark
error tables (each cell measured against the exact solution on the table
grid) and the Bessel figure data as CSV, dumps operational matrices, and runs
the conditioning comparison between the recurrence-built operator section
and the classic route through the monomial basis.

Commands raise; ``main`` alone maps an exception to an exit code and one
``tau-spectra: ...`` status line on standard error: 0 success; 2 ``config
error`` for invalid input anywhere (schema violations, a config nested
too deeply to read, unusable values, NaN/Infinity literals or numbers
overflowing to infinity in a config, sizes past their bounds, bad
command-line values); 3 ``numerical failure`` for a singular or non-finite
Tau system, non-finite coefficients, residual tail or output values, or
overflow; 4 ``I/O error``.  A status line over STATUS_MAX characters keeps
its head and tail and elides the middle.  Commands run with numpy
floating-point warnings off, so the finiteness checks decide and no warning
precedes the status line.  No input ends in a traceback, and no NaN or
infinity is written with exit 0.

The ladder commands (``table1``, ``table2``, ``bessel``) solve their
independent degrees in worker processes forked from this one, one per usable
CPU (CPU affinity is respected), with output byte-identical to a run in one
process; ``taskset -c 0`` gives that in-process path.  A forked worker
inherits ``main``'s np.errstate.  Every degree is solved before the first
line is printed or written, and a failing degree does not cancel the
degrees still queued; outputs, their order and exit codes are those of a
run that solves, prints and fails degree by degree in ascending order.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.resources
import json
import math
import os
import sys

import numpy as np

from .basis import RecurrenceBasis, change_of_basis, jacobi, laguerre, monomial, recurrence_arrays
from .linalg import Section, _shift_apply
from .opmatrix import (
    derivative_matrix,
    integral_matrix,
    shift_matrix,
    similarity_pi,
    volterra_matrix,
)
from .oracles import airy_bvp_reference, bessel_j, volterra_exact, volterra_forcing
from .tau import (
    ConditionSpec,
    ConditionTerm,
    NonFiniteSolutionError,
    OperatorTerm,
    TauProblem,
    assemble_pi,
    derivative_term,
    identity_term,
    operator_height,
    point_condition,
    solve_tau,
    solve_tau_system,
    volterra_term,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

GRID_JACOBI = (-1.0, 1.0, 2001)
GRID_BESSEL = (0.0, 60.0, 1201)

TABLE1_PAIRS = ((0.0, 0.0), (-0.5, -0.5), (1.0, -0.9), (-0.9, -0.9), (0.5, -0.5))
TABLE1_DEGREES = (150, 250, 350, 1000)
TABLE1_EPSILON = 1e-5
TABLE2_PAIRS = ((0.0, 0.0), (-0.5, -0.5), (1.0, -0.9), (10.0, 0.0))
TABLE2_DEGREES = (50, 100, 150, 1000)
TABLE2_LOWER = 1.25
# The exact table1 solution on GRID_JACOBI, one %.17g value per line, written
# by scripts/table1_exact.py with mpmath, which is not a runtime dependency.
TABLE1_EXACT = importlib.resources.files(__package__) / "table1_exact.txt"

# Most points a config grid may ask for; each costs a Clenshaw sum and,
# with a volterra_exact reference, a Python-level reference evaluation.
MAX_GRID_COUNT = 100_000


class ConfigError(ValueError):
    """A config or command-line value the CLI cannot use."""


ACTION_ORDERS = {"derivative": 1, "identity": 0, "volterra": -1}  # the k of p(x) * D^k


_POLY = {"type": "array", "minItems": 1, "items": {"type": "number"}}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["basis", "degree", "operator", "conditions", "rhs", "grid"],
    "properties": {
        "basis": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["jacobi", "laguerre"]},
                "alpha": {"type": "number"},
                "beta": {"type": "number"},
            },
        },
        "degree": {"type": "integer", "minimum": 0},
        "operator": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["action", "coeff"],
                "properties": {
                    "action": {"enum": list(ACTION_ORDERS)},
                    "order": {"type": "integer", "minimum": 1},
                    "lower": {"type": "number"},
                    "coeff": _POLY,
                },
            },
        },
        "conditions": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["terms", "value"],
                "properties": {
                    "terms": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["coeff", "deriv", "point"],
                            "properties": {
                                "coeff": {"type": "number"},
                                "deriv": {"type": "integer", "minimum": 0},
                                "point": {"type": "number"},
                            },
                        },
                    },
                    "value": {"type": "number"},
                },
            },
        },
        "rhs": {
            "type": "object",
            "additionalProperties": False,
            "required": ["coeff"],
            "properties": {"coeff": _POLY},
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start", "stop", "count"],
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "count": {"type": "integer", "minimum": 2, "maximum": MAX_GRID_COUNT},
            },
        },
        "reference": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["volterra_exact", "bessel", "airy_bvp", "none"]},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "a": {"type": "number"},
                        "m": {"type": "integer", "minimum": 0},
                        "epsilon": {"type": "number"},
                        "scale_point": {"type": "number"},
                    },
                },
            },
        },
    },
}


_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for each way value breaks schema under JSON
    Schema Draft 2020-12, in the order and with the wording of the reference
    validator that tests/test_cli_properties.py compares against.

    Knows exactly the keywords CONFIG_SCHEMA uses: type, enum, required,
    properties, additionalProperties (false only), items, minItems, minimum
    and maximum.  Each subschema's keywords run in dict order."""
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _JSON_TYPES["number"](value)
    for key, rule in schema.items():
        if key == "type" and not _JSON_TYPES[rule](value):
            yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum" and value not in rule:
            yield path, f"{value!r} is not one of {rule!r}"
        elif key == "required" and is_object:
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and is_object:
            extras = sorted(name for name in value if name not in schema.get("properties", {}))
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(map(repr, extras))
                yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif key == "properties" and is_object:
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(sub, value[name], (*path, name))
        elif key == "items" and is_array:
            for index, item in enumerate(value):
                yield from _schema_errors(rule, item, (*path, index))
        elif key == "minItems" and is_array and len(value) < rule:
            yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "minimum" and is_number and value < rule:
            yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif key == "maximum" and is_number and value > rule:
            yield path, f"{value!r} is greater than the maximum of {rule!r}"


def _validate_config(cfg) -> None:
    """Raise ConfigError with the message of the error the reference
    validator would report: the shallowest path, then the greatest path,
    then the first one yielded."""
    errors = _schema_errors(CONFIG_SCHEMA, cfg)
    best = max(errors, key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is not None:
        raise ConfigError(best[1])


# Longest status line, in characters.  A schema message quotes the offending
# value whole, so a long list in a config would make a line of megabytes.
STATUS_MAX = 1000


def _status(msg: str) -> None:
    line = f"tau-spectra: {msg}"
    if len(line) > STATUS_MAX:
        keep = (STATUS_MAX - 5) // 2  # characters on either side of " ... "
        line = f"{line[:keep]} ... {line[-keep:]}"
    print(line, file=sys.stderr)


def _fmt(value: float) -> str:
    return "%.17g" % value


def _finite_float(text: str) -> float:
    """JSON number hook: NaN/Infinity literals and overflowing numbers are
    config errors, not values to solve with."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write numeric columns with 17 significant digits; raises
    NonFiniteSolutionError, writing nothing, if any value is NaN or infinite."""
    if not all(np.all(np.isfinite(col)) for col in columns):
        raise NonFiniteSolutionError(f"output for {path} has non-finite values")
    row = ",".join(["%.17g"] * len(columns))
    rows = (row % vals for vals in zip(*(col.tolist() for col in columns)))
    _write_lines(path, [",".join(header), *rows])


def _basis_from_config(spec: dict) -> RecurrenceBasis:
    if spec["family"] == "jacobi":
        if "alpha" not in spec or "beta" not in spec:
            raise ConfigError("jacobi basis requires alpha and beta")
        return jacobi(spec["alpha"], spec["beta"])
    if "alpha" in spec or "beta" in spec:
        raise ConfigError("laguerre basis takes no shape parameters")
    return laguerre()


def _terms_from_config(items: list[dict]) -> list[OperatorTerm]:
    terms = []
    for it in items:
        action, k = it["action"], ACTION_ORDERS[it["action"]]
        if "order" in it and k != 1:
            raise ConfigError(f"{action} term does not take 'order'")
        if ("lower" in it) != (k == -1):
            raise ConfigError(f"{action} term {'requires' if k == -1 else 'does not take'} 'lower'")
        terms.append(OperatorTerm(it["coeff"], int(it.get("order", k)), float(it.get("lower", 0))))
    return terms


def _conditions_from_config(items: list[dict]) -> list[ConditionSpec]:
    conds = []
    for c in items:
        parts = tuple(
            ConditionTerm(float(t["coeff"]), int(t["deriv"]), float(t["point"]))
            for t in c["terms"]
        )
        conds.append(ConditionSpec(terms=parts, target=float(c["value"])))
    return conds


def _reference_from_config(spec: dict | None):
    """Resolve the optional reference block to a callable, or None; the
    callable maps the grid array to the reference values on it."""
    if spec is None or spec["kind"] == "none":
        return None
    kind = spec["kind"]
    params = spec.get("params", {})
    if kind == "volterra_exact":
        if "a" not in params:
            raise ConfigError("volterra_exact reference requires params.a")
        return functools.partial(_volterra_on_grid, float(params["a"]))
    if kind == "bessel":
        if "m" not in params:
            raise ConfigError("bessel reference requires params.m")
        m = int(params["m"])
        if "scale_point" in params:
            scale = bessel_j(m, float(params["scale_point"]))
            if scale == 0.0:
                raise ConfigError("bessel reference scale point is a zero of J_m")
            return lambda x: bessel_j(m, x) / scale
        return lambda x: bessel_j(m, x)
    if "epsilon" not in params:
        raise ConfigError("airy_bvp reference requires params.epsilon")
    eps = float(params["epsilon"])
    return lambda x: airy_bvp_reference(eps, x)


def _problem_from_config(cfg: dict):
    basis = _basis_from_config(cfg["basis"])
    problem = TauProblem(
        basis=basis,
        operator=_terms_from_config(cfg["operator"]),
        conditions=_conditions_from_config(cfg["conditions"]),
        rhs=np.asarray(cfg["rhs"]["coeff"], dtype=np.float64),
        degree=int(cfg["degree"]),
    )
    g = cfg["grid"]
    grid = np.linspace(float(g["start"]), float(g["stop"]), int(g["count"]))
    if not np.all(np.isfinite(grid)):
        raise ConfigError("grid points are not finite: stop - start overflows")
    return problem, grid, _reference_from_config(cfg.get("reference"))


def cmd_solve(args: argparse.Namespace) -> None:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        _validate_config(cfg)
    except RecursionError:
        raise ConfigError("config is nested too deeply") from None
    problem, grid, ref = _problem_from_config(cfg)
    solution = solve_tau(problem)

    ys = solution(grid)
    header = ["x", "y_n"]
    columns = [grid, ys]
    if ref is not None:
        refs = ref(grid)
        header += ["reference", "error"]
        columns += [refs, np.abs(ys - refs)]

    tail = solution.residual_tail
    tail_max = float(np.max(np.abs(tail))) if tail.size else 0.0
    print(f"degree: {solution.degree}")
    print(f"cond estimate: {_fmt(solution.diagnostics.cond_estimate)}")
    print(f"max residual tail coefficient: {_fmt(tail_max)}")
    _write_csv(args.output, header, columns)


def airy_problem(basis: RecurrenceBasis, degree: int, epsilon: float) -> TauProblem:
    """eps*y'' - x*y = 0 on [-1,1] with y(-1) = y(1) = 1."""
    return TauProblem(
        basis=basis,
        operator=[derivative_term([epsilon], 2), identity_term([0.0, -1.0])],
        conditions=[point_condition(-1.0, 1.0), point_condition(1.0, 1.0)],
        rhs=np.array([0.0]),
        degree=degree,
    )


def volterra_problem(basis: RecurrenceBasis, degree: int, a: float) -> TauProblem:
    """(x-a)^3 y + integral from -1 to x of y = -f(-1), f = exp(1/(2(x-a)^2))."""
    poly = [-(a**3), 3.0 * a * a, -3.0 * a, 1.0]
    return TauProblem(
        basis=basis,
        operator=[identity_term(poly), volterra_term([1.0], lower=-1.0)],
        conditions=[],
        rhs=np.array([-volterra_forcing(a, -1.0)]),
        degree=degree,
    )


def bessel_problem(m: int, degree: int) -> TauProblem:
    """x^2 y'' + x y' + (x^2 - m^2) y = 0 on [0,60], y(0) = 0, y(60) = 1."""
    return TauProblem(
        basis=laguerre(),
        operator=[
            derivative_term([0.0, 0.0, 1.0], 2),
            derivative_term([0.0, 1.0], 1),
            identity_term([-float(m * m), 0.0, 1.0]),
        ],
        conditions=[point_condition(0.0, 0.0), point_condition(60.0, 1.0)],
        rhs=np.array([0.0]),
        degree=degree,
    )


def _grid(spec: tuple[float, float, int]) -> np.ndarray:
    return np.linspace(spec[0], spec[1], spec[2])


def _volterra_on_grid(a: float, grid: np.ndarray) -> np.ndarray:
    """volterra_exact at each grid point.  Point by point: a closed form
    through np.exp would differ from math.exp in the last bits."""
    return np.array([volterra_exact(a, x) for x in grid.tolist()])


def read_grid_values(path, count: int) -> np.ndarray:
    """The values stored one per line in the text file at path (a Path or a
    package resource); raises ValueError unless there are count of them."""
    values = np.array([float(v) for v in path.read_text(encoding="ascii").split()])
    if values.shape != (count,):
        raise ValueError(f"{path} holds {values.shape[0]} values, expected {count}")
    return values


# Per table: Jacobi (alpha, beta) pairs, degrees, the problem in a basis at a
# degree, and the exact solution on the grid.
TABLES = {
    "table1": (
        TABLE1_PAIRS,
        TABLE1_DEGREES,
        lambda basis, n: airy_problem(basis, n, TABLE1_EPSILON),
        lambda grid: read_grid_values(TABLE1_EXACT, grid.shape[0]),
    ),
    "table2": (
        TABLE2_PAIRS,
        TABLE2_DEGREES,
        lambda basis, n: volterra_problem(basis, n, TABLE2_LOWER),
        functools.partial(_volterra_on_grid, TABLE2_LOWER),
    ),
}


def _solve_on_grid(task: tuple[int, TauProblem, np.ndarray]):
    """The solution of a (degree, problem, grid) task on its grid, or the
    ArithmeticError or ValueError its solve raised, without its traceback,
    which would keep the solve's matrices alive."""
    _, problem, grid = task
    try:
        return solve_tau(problem)(grid)
    except (ArithmeticError, ValueError) as exc:
        return exc.with_traceback(None)


def _ladder(tasks: list[tuple]) -> list:
    """_solve_on_grid(task) for each (degree, problem, grid) task, as a list
    in task order: every task is solved before it returns, and a failing
    task does not cancel the others.

    With two or more usable CPUs (the process's CPU affinity) and two or
    more tasks, the tasks run in worker processes forked from this one, one
    per usable CPU, submitted highest degree first; a forked worker inherits
    ``main``'s np.errstate.  Otherwise, or where fork is unavailable, they
    run here one after another.  A task computes the same floats either way."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(tasks), cpus)
    if workers > 1:
        # Imported here: at module level they would slow every import of the CLI.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                heaviest_first = sorted(range(len(tasks)), key=lambda i: tasks[i][0], reverse=True)
                futures = {i: pool.submit(_solve_on_grid, tasks[i]) for i in heaviest_first}
                return [futures[i].result() for i in range(len(tasks))]
            finally:
                pool.shutdown(cancel_futures=True)
    return [_solve_on_grid(task) for task in tasks]


def cmd_table(args: argparse.Namespace) -> None:
    """Write the table's error grid: one row per (alpha, beta) pair, each
    cell max|y_n - exact| over GRID_JACOBI, FAIL where the solve fails."""
    pairs, degrees, problem, reference = TABLES[args.which]
    grid = _grid(GRID_JACOBI)
    refs = reference(grid)
    tasks = [(n, problem(jacobi(al, be), n), grid) for al, be in pairs for n in degrees]
    cells = ["FAIL" if isinstance(ys, Exception) else _fmt(float(np.max(np.abs(ys - refs)))) for ys in _ladder(tasks)]
    k = len(degrees)
    rows = [",".join(["alpha", "beta"] + [f"n={n}" for n in degrees])]
    for i, (al, be) in enumerate(pairs):
        rows.append(",".join([_fmt(al), _fmt(be), *cells[i * k : (i + 1) * k]]))
    _write_lines(args.output, rows)


def cmd_bessel(args: argparse.Namespace) -> None:
    degrees = list(args.degrees)
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ConfigError("degrees must be strictly ascending")
    grid = _grid(GRID_BESSEL)
    tasks = [(n, bessel_problem(args.m, n), grid) for n in degrees]
    scale = bessel_j(args.m, 60.0)
    if scale == 0.0:
        raise ConfigError("J_m(60) vanishes, normalization impossible")
    refs = bessel_j(args.m, grid) / scale
    os.makedirs(args.output, exist_ok=True)

    for n, ys in zip(degrees, _ladder(tasks)):
        if isinstance(ys, Exception):
            raise ys
        errs = np.abs(ys - refs)
        print(f"n={n}: sup error {_fmt(float(np.max(errs)))}, boundary value {_fmt(float(ys[-1]))}")
        path = os.path.join(args.output, f"bessel_m{args.m}_n{n}.csv")
        _write_csv(path, ["x", "y_n", "reference", "error"], [grid, ys, refs, errs])


def _parse_basis_spec(spec: str) -> RecurrenceBasis:
    if spec == "laguerre":
        return laguerre()
    if spec == "monomial":
        return monomial()
    if spec.startswith("jacobi:"):
        parts = spec[len("jacobi:") :].split(",")
        if len(parts) != 2:
            raise ConfigError("jacobi basis spec must be jacobi:<alpha>,<beta>")
        return jacobi(float(parts[0]), float(parts[1]))
    raise ConfigError(
        f"unknown basis spec {spec!r}, expected jacobi:<a>,<b>, laguerre or monomial"
    )


OPMATRIX_KINDS = {
    "shift": shift_matrix,
    "derivative": derivative_matrix,
    "integral": integral_matrix,
    "volterra": volterra_matrix,
}


def cmd_opmatrix(args: argparse.Namespace) -> None:
    basis = _parse_basis_spec(args.basis)
    if (args.lower is None) == (args.kind == "volterra"):
        raise ConfigError(f"{args.kind} matrix {'requires' if args.lower is None else 'does not take'} --lower")
    extra = () if args.lower is None else (args.lower,)
    mat = OPMATRIX_KINDS[args.kind](basis, args.size, *extra)
    rows, cols = np.nonzero(mat)
    _write_csv(args.output, ["row", "col", "value"], [rows, cols, mat[rows, cols]])


def _cond_change_of_basis(basis: RecurrenceBasis, v: np.ndarray) -> float:
    """cond_1(V) = ||V||_1 ||V^{-1}||_1 with no factorization: row j of V^{-1}
    holds the basis coefficients of x^j, the shift M (diagonals alpha, beta,
    gamma) applied to row j - 1.  For Legendre no term of either side cancels."""
    s = v.shape[0]
    recurrence = recurrence_arrays(basis, s)
    inv = np.zeros((s, s))
    inv[0, 0] = 1.0
    for j in range(1, s):
        inv[j] = _shift_apply(*recurrence, inv[j - 1, :, None])[:, 0]
    return float(np.abs(v).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())


def condition_comparison(n: int) -> tuple[float, float, float]:
    """Solve the Volterra benchmark at degree n along both construction
    paths and return (recurrence sup error, similarity sup error, cond(V))."""
    basis = jacobi(0.0, 0.0)
    problem = volterra_problem(basis, n, TABLE2_LOWER)
    grid = _grid(GRID_JACOBI)
    refs = _volterra_on_grid(TABLE2_LOWER, grid)

    err_rec = float(np.max(np.abs(solve_tau(problem)(grid) - refs)))

    s = n + 1 + operator_height(problem.operator)
    v = change_of_basis(basis, s - 1)
    pi_power = np.zeros((s, s))
    pi_power[:, : n + 1] = assemble_pi(dataclasses.replace(problem, basis=monomial())).to_dense()
    pi_sim = similarity_pi(v, pi_power)[:, : n + 1]
    err_sim = float(np.max(np.abs(solve_tau_system(problem, Section.from_dense(pi_sim))(grid) - refs)))
    return err_rec, err_sim, _cond_change_of_basis(basis, v)


def cmd_condition_demo(args: argparse.Namespace) -> None:
    if args.n < 10:
        raise ConfigError("condition-demo needs n >= 10")
    err_rec, err_sim, cond_v = condition_comparison(args.n)
    lines = [
        f"degree: {args.n}",
        f"recurrence path sup error: {_fmt(err_rec)}",
        f"similarity path sup error: {_fmt(err_sim)}",
        f"cond_1 of change-of-basis matrix: {_fmt(cond_v)}",
    ]
    if args.output is None:
        for line in lines:
            print(line)
    else:
        _write_lines(args.output, lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; no command may mutate its args."""
    parser = argparse.ArgumentParser(
        prog="tau-spectra",
        description="Tau-method solver driven by recurrence-built operational matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem described by a JSON config")
    p.add_argument("config", help="path to the JSON problem config")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_solve)

    for which in TABLES:
        p = sub.add_parser(which, help=f"emit the {which} error grid as CSV")
        p.add_argument("-o", "--output", required=True, help="output CSV path")
        p.set_defaults(func=cmd_table, which=which)

    p = sub.add_parser("bessel", help="emit Bessel benchmark data per degree")
    p.add_argument("-m", type=int, default=10, help="Bessel order (default 10)")
    p.add_argument(
        "--degrees",
        type=int,
        nargs="+",
        default=[500, 1000, 1500, 2000],
        help="ascending approximation degrees",
    )
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_bessel)

    p = sub.add_parser("opmatrix", help="dump an operational matrix as CSV triplets")
    p.add_argument(
        "--basis", default="jacobi:0,0", help="jacobi:<alpha>,<beta>, laguerre or monomial"
    )
    p.add_argument("--kind", required=True, choices=list(OPMATRIX_KINDS))
    p.add_argument("--size", type=int, required=True, help="stored section size")
    p.add_argument("--lower", type=float, default=None, help="volterra lower limit")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_opmatrix)

    p = sub.add_parser("condition-demo", help="compare both construction paths")
    p.add_argument("-n", type=int, required=True, help="approximation degree (>= 10)")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_condition_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            args.func(args)
    except ValueError as exc:
        _status(f"config error: {exc}")
        return EXIT_CONFIG
    except ArithmeticError as exc:
        _status(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        _status(f"I/O error: {exc}")
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
