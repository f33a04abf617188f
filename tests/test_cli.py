"""End-to-end CLI behavior: config validation, CSV output, exit codes."""

import copy
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from tau_spectra import cli, tau
from tau_spectra.cli import main
from tau_spectra.tau import NonFiniteSolutionError, solve_tau

BASE_CONFIG = {
    "basis": {"family": "jacobi", "alpha": 0.0, "beta": 0.0},
    "degree": 1,
    "operator": [
        {"action": "derivative", "coeff": [1.0], "order": 1},
        {"action": "identity", "coeff": [-1.0]},
    ],
    "conditions": [{"terms": [{"coeff": 1.0, "deriv": 0, "point": 0.0}], "value": 1.0}],
    "rhs": {"coeff": [0.0]},
    "grid": {"start": -1.0, "stop": 1.0, "count": 3},
}


def _write_config(tmp_path, cfg, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    return header, body


def test_solve_first_order(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    out_path = str(tmp_path / "out.csv")
    assert main(["solve", cfg_path, "-o", out_path]) == 0
    captured = capsys.readouterr()
    assert "degree: 1" in captured.out
    assert "cond estimate:" in captured.out
    assert "max residual tail coefficient:" in captured.out
    header, body = _read_csv(out_path)
    assert header == ["x", "y_n"]
    values = [float(row[1]) for row in body]
    assert values == pytest.approx([0.0, 1.0, 2.0], abs=1e-13)


def test_solve_output_is_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["solve", cfg_path, "-o", out1]) == 0
    assert main(["solve", cfg_path, "-o", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["foo"] = 1
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["solve", cfg_path, "-o", str(tmp_path / "out.csv")]) == 2
    assert "foo" in capsys.readouterr().err


def test_nested_unknown_key_rejected(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["operator"][0]["extra"] = True
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["solve", cfg_path, "-o", str(tmp_path / "out.csv")]) == 2


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), "-o", str(tmp_path / "out.csv")]) == 4
    assert capsys.readouterr().err != ""


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", str(path), "-o", str(tmp_path / "out.csv")]) == 2


def test_unwritable_output_is_io_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    assert main(["solve", cfg_path, "-o", str(tmp_path / "no" / "dir" / "out.csv")]) == 4
    assert capsys.readouterr().err != ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_solution_is_numerical_failure(tmp_path, capsys):
    # coefficients of 1e308 overflow the operator section to inf
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["degree"] = 20
    cfg["operator"] = [
        {"action": "derivative", "coeff": [1e308], "order": 2},
        {"action": "identity", "coeff": [0.0, -1e308]},
    ]
    cfg["conditions"] = [
        {"terms": [{"coeff": 1.0, "deriv": 0, "point": -1.0}], "value": 1.0},
        {"terms": [{"coeff": 1.0, "deriv": 0, "point": 1.0}], "value": 1.0},
    ]
    cfg_path = _write_config(tmp_path, cfg)
    out_path = tmp_path / "out.csv"
    assert main(["solve", cfg_path, "-o", str(out_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out_path.exists()


def test_non_finite_condition_estimate_is_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tau, "cond_estimate_factored", lambda factors, norm1: float("inf"))
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    out_path = tmp_path / "out.csv"
    assert main(["solve", cfg_path, "-o", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert "numerical failure: condition estimate is not finite" in captured.err
    assert "cond estimate" not in captured.out
    assert not out_path.exists()


def test_non_finite_solution_fails_table_cell_and_bessel(tmp_path, monkeypatch, capsys):
    def non_finite(problem):
        raise NonFiniteSolutionError("solution coefficients are not finite")

    monkeypatch.setattr(cli, "solve_tau", non_finite)
    monkeypatch.setitem(cli.TABLES, "table2", (((0.0, 0.0),), (50,), *cli.TABLES["table2"][2:]))
    out_path = str(tmp_path / "table2.csv")
    assert main(["table2", "-o", out_path]) == 0
    assert _read_csv(out_path)[1] == [["0", "0", "FAIL"]]
    assert main(["bessel", "--degrees", "100", "-o", str(tmp_path / "fig")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_oversized_rhs_exits_before_assembly(tmp_path, monkeypatch, capsys):
    def no_assembly(problem):
        raise AssertionError("assemble_pi ran on a problem it cannot solve")

    monkeypatch.setattr(tau, "assemble_pi", no_assembly)
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["rhs"] = {"coeff": [0.0] * 5 + [1.0]}
    out_path = tmp_path / "out.csv"
    assert main(["solve", _write_config(tmp_path, cfg), "-o", str(out_path)]) == 2
    assert "config error: rhs degree 5 exceeds degree + height 1" in capsys.readouterr().err
    assert not out_path.exists()


def test_schema_is_checked_once_per_process(tmp_path, monkeypatch):
    validator_class = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    check_schema = validator_class.check_schema
    checked = []

    def counting_check_schema(schema, **kwargs):
        checked.append(schema)
        return check_schema(schema, **kwargs)

    monkeypatch.setattr(validator_class, "check_schema", counting_check_schema)
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    for name in ("a.csv", "b.csv"):
        assert main(["solve", cfg_path, "-o", str(tmp_path / name)]) == 0
    assert len(checked) <= 1


def test_parser_is_built_once_and_each_call_is_fresh(tmp_path, capsys):
    cli._build_parser.cache_clear()
    fig = tmp_path / "fig"
    assert main(["bessel", "--degrees", "20", "30", "-o", str(fig)]) == 0
    assert sorted(os.listdir(fig)) == ["bessel_m10_n20.csv", "bessel_m10_n30.csv"]
    assert capsys.readouterr().out.startswith("n=20: sup error ")
    with pytest.raises(SystemExit) as exc:
        main(["bessel", "--degrees", "many", "-o", str(fig)])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["condition-demo", "-n", "10"]) == 0
    assert capsys.readouterr().out.startswith("degree: 10\n")
    assert cli._build_parser.cache_info().misses == 1
    args = cli._build_parser().parse_args(["bessel", "-o", str(fig)])
    assert (args.m, args.degrees) == (10, [500, 1000, 1500, 2000])


def _violating(edit):
    cfg = copy.deepcopy(BASE_CONFIG)
    edit(cfg)
    return cfg


SCHEMA_VIOLATIONS = {
    "unknown-key": _violating(lambda c: c.update(foo=1)),
    "nested-unknown-key": _violating(lambda c: c["operator"][0].update(extra=True)),
    "missing-grid": _violating(lambda c: c.pop("grid")),
    "count-below-minimum": _violating(lambda c: c["grid"].update(count=1)),
    "count-above-maximum": _violating(lambda c: c["grid"].update(count=cli.MAX_GRID_COUNT + 1)),
    "unknown-family": _violating(lambda c: c["basis"].update(family="hermite")),
    "degree-not-integer": _violating(lambda c: c.update(degree="x")),
    "empty-operator": _violating(lambda c: c.update(operator=[])),
    "negative-deriv": _violating(lambda c: c["conditions"][0]["terms"][0].update(deriv=-1)),
    "unknown-reference": _violating(lambda c: c.update(reference={"kind": "hankel"})),
    "several-errors": _violating(
        lambda c: (c.update(degree=-1), c["grid"].update(count=1), c.pop("rhs"))
    ),
    "not-an-object": [1, 2],
}


@pytest.mark.parametrize("cfg", SCHEMA_VIOLATIONS.values(), ids=SCHEMA_VIOLATIONS.keys())
def test_schema_violation_reports_what_validate_raises(tmp_path, capsys, cfg):
    with pytest.raises(jsonschema.ValidationError) as raised:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["solve", cfg_path, "-o", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"tau-spectra: config error: {raised.value.message}\n"


def test_write_csv_matches_per_value_format(tmp_path):
    columns = [
        np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1.0 / 3]),
        np.array([3.0, -2.0, 2.0**53, 1e16, 0.0]),
        np.array([0, 1, 7, 4095, -3]),
    ]
    path = tmp_path / "values.csv"
    cli._write_csv(str(path), ["a", "b", "c"], columns)
    rows = ["a,b,c"] + [",".join("%.17g" % float(v) for v in vals) for vals in zip(*columns)]
    assert path.read_bytes() == "".join(row + "\n" for row in rows).encode()


def test_jacobi_requires_exponents(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["basis"]["alpha"]
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["solve", cfg_path, "-o", str(tmp_path / "out.csv")]) == 2


def test_volterra_requires_lower(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["operator"].append({"action": "volterra", "coeff": [1.0]})
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["solve", cfg_path, "-o", str(tmp_path / "out.csv")]) == 2


def test_identity_rejects_order(tmp_path, capsys):
    # "order" is allowed only on derivative terms; "lower" only on volterra ones.
    violations = [
        {"action": "identity", "coeff": [-1.0], "order": 2},
        {"action": "volterra", "coeff": [1.0], "lower": -1.0, "order": 1},
        {"action": "derivative", "coeff": [1.0], "lower": 0.0},
        {"action": "identity", "coeff": [-1.0], "lower": 0.0},
    ]
    for term in violations:
        cfg = copy.deepcopy(BASE_CONFIG)
        cfg["operator"][1] = term
        out_path = tmp_path / "out.csv"
        assert main(["solve", _write_config(tmp_path, cfg), "-o", str(out_path)]) == 2, term
        assert f"config error: {term['action']} term does not take" in capsys.readouterr().err
        assert not out_path.exists()


def test_solve_with_reference_column(tmp_path):
    from tau_spectra.oracles import volterra_forcing

    a = 1.25
    cfg = {
        "basis": {"family": "jacobi", "alpha": 0.0, "beta": 0.0},
        "degree": 100,
        "operator": [
            {"action": "identity", "coeff": [-(a**3), 3 * a * a, -3 * a, 1.0]},
            {"action": "volterra", "coeff": [1.0], "lower": -1.0},
        ],
        "conditions": [],
        "rhs": {"coeff": [-volterra_forcing(a, -1.0)]},
        "grid": {"start": -1.0, "stop": 1.0, "count": 2001},
        "reference": {"kind": "volterra_exact", "params": {"a": a}},
    }
    cfg_path = _write_config(tmp_path, cfg)
    out_path = str(tmp_path / "out.csv")
    assert main(["solve", cfg_path, "-o", out_path]) == 0
    header, body = _read_csv(out_path)
    assert header == ["x", "y_n", "reference", "error"]
    assert len(body) == 2001
    sup = max(float(row[3]) for row in body)
    assert 1e-8 <= sup <= 1e-5


def test_csv_values_are_the_solution_evaluated(tmp_path):
    # Laguerre series at large x lose ~1e-7 absolute when summed in float64,
    # so the CSV matches only if solution(x) is the extended-precision sum.
    m, degree = 5, 200
    cfg = {
        "basis": {"family": "laguerre"},
        "degree": degree,
        "operator": [
            {"action": "derivative", "coeff": [0.0, 0.0, 1.0], "order": 2},
            {"action": "derivative", "coeff": [0.0, 1.0], "order": 1},
            {"action": "identity", "coeff": [-float(m * m), 0.0, 1.0]},
        ],
        "conditions": [
            {"terms": [{"coeff": 1.0, "deriv": 0, "point": 0.0}], "value": 0.0},
            {"terms": [{"coeff": 1.0, "deriv": 0, "point": 60.0}], "value": 1.0},
        ],
        "rhs": {"coeff": [0.0]},
        "grid": {"start": 0.0, "stop": 60.0, "count": 121},
        "reference": {"kind": "bessel", "params": {"m": m, "scale_point": 60.0}},
    }
    cfg_path = _write_config(tmp_path, cfg)
    out_path = str(tmp_path / "out.csv")
    assert main(["solve", cfg_path, "-o", out_path]) == 0
    _, body = _read_csv(out_path)
    grid = np.linspace(0.0, 60.0, 121)
    expected = solve_tau(cli.bessel_problem(m, degree))(grid)
    assert [row[1] for row in body] == ["%.17g" % y for y in expected]


def test_bessel_reference_on_a_grid_through_1e_minus_60(tmp_path):
    # J_13(1e-60) overflows the Miller recurrence; the series replaces it.
    cfg = {
        "basis": {"family": "laguerre"},
        "degree": 40,
        "operator": [
            {"action": "derivative", "coeff": [0.0, 0.0, 1.0], "order": 2},
            {"action": "derivative", "coeff": [0.0, 1.0], "order": 1},
            {"action": "identity", "coeff": [-169.0, 0.0, 1.0]},
        ],
        "conditions": [
            {"terms": [{"coeff": 1.0, "deriv": 0, "point": 0.0}], "value": 0.0},
            {"terms": [{"coeff": 1.0, "deriv": 0, "point": 20.0}], "value": 1.0},
        ],
        "rhs": {"coeff": [0.0]},
        "grid": {"start": 1e-60, "stop": 20.0, "count": 5},
        "reference": {"kind": "bessel", "params": {"m": 13, "scale_point": 20.0}},
    }
    out_path = str(tmp_path / "out.csv")
    assert main(["solve", _write_config(tmp_path, cfg), "-o", out_path]) == 0
    _, body = _read_csv(out_path)
    assert float(body[0][0]) == 1e-60
    assert all(np.isfinite(float(row[2])) for row in body)


def test_solve_runs_without_scipy(tmp_path):
    # scipy may be installed but is not a dependency: no module may import it.
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    out_path = tmp_path / "out.csv"
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from tau_spectra.cli import main; "
        f"sys.exit(main(['solve', {cfg_path!r}, '-o', {str(out_path)!r}]))"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out_path.exists()


def test_opmatrix_triplets(tmp_path):
    out_path = str(tmp_path / "eta.csv")
    assert main(
        ["opmatrix", "--basis", "jacobi:0,0", "--kind", "derivative", "--size", "4", "-o", out_path]
    ) == 0
    header, body = _read_csv(out_path)
    assert header == ["row", "col", "value"]
    triplets = {(int(r), int(c)): float(v) for r, c, v in body}
    assert triplets == {(0, 1): 1.0, (0, 3): 1.0, (1, 2): 3.0, (2, 3): 5.0}


def test_opmatrix_power_kind(tmp_path):
    out_path = str(tmp_path / "hpow.csv")
    assert main(
        ["opmatrix", "--basis", "monomial", "--kind", "derivative", "--size", "3", "-o", out_path]
    ) == 0
    _, body = _read_csv(out_path)
    triplets = {(int(r), int(c)): float(v) for r, c, v in body}
    assert triplets == {(0, 1): 1.0, (1, 2): 2.0}


def test_opmatrix_volterra_needs_lower(tmp_path, capsys):
    code = main(
        ["opmatrix", "--basis", "jacobi:0,0", "--kind", "volterra", "--size", "4", "-o", str(tmp_path / "v.csv")]
    )
    assert code == 2
    assert "lower" in capsys.readouterr().err


def test_opmatrix_bad_basis_spec(tmp_path):
    assert main(
        ["opmatrix", "--basis", "hermite", "--kind", "shift", "--size", "4", "-o", str(tmp_path / "m.csv")]
    ) == 2


def test_condition_demo_small_degree(capsys):
    assert main(["condition-demo", "-n", "20"]) == 0
    out = capsys.readouterr().out
    assert "recurrence path sup error:" in out
    assert "similarity path sup error:" in out
    assert "cond estimate of change-of-basis matrix:" in out


def test_condition_demo_rejects_tiny_n(capsys):
    assert main(["condition-demo", "-n", "5"]) == 2
    assert capsys.readouterr().err != ""


def test_bessel_requires_ascending_degrees(tmp_path, capsys):
    assert main(["bessel", "-m", "10", "--degrees", "100", "100", "-o", str(tmp_path)]) == 2
    assert "ascending" in capsys.readouterr().err


def test_bessel_emits_per_degree_csv(tmp_path):
    assert main(["bessel", "-m", "10", "--degrees", "100", "200", "-o", str(tmp_path / "fig")]) == 0
    for n in (100, 200):
        header, body = _read_csv(str(tmp_path / "fig" / f"bessel_m10_n{n}.csv"))
        assert header == ["x", "y_n", "reference", "error"]
        assert len(body) == 1201
        # normalized reference hits exactly 1 at x=60
        assert float(body[-1][2]) == 1.0
        assert abs(float(body[-1][1]) - 1.0) <= 1e-8


def test_csv_uses_seventeen_significant_digits(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["grid"] = {"start": -1.0, "stop": 1.0, "count": 7}
    cfg_path = _write_config(tmp_path, cfg)
    out_path = str(tmp_path / "out.csv")
    assert main(["solve", cfg_path, "-o", out_path]) == 0
    _, body = _read_csv(out_path)
    # -1/3 round-trips only with %.17g
    assert body[2][0] == "-0.33333333333333337"
    raw = open(out_path, "rb").read()
    assert b"\r" not in raw


def test_table2_layout_and_bands(tmp_path):
    out_path = str(tmp_path / "table2.csv")
    assert main(["table2", "-o", out_path]) == 0
    header, body = _read_csv(out_path)
    assert header == ["alpha", "beta", "n=50", "n=100", "n=150", "n=1000"]
    assert len(body) == 4
    legendre = body[0]
    assert float(legendre[2]) > 1.0
    assert 1e-8 <= float(legendre[3]) <= 1e-5


def test_table1_against_exact_solution(tmp_path):
    out_path = str(tmp_path / "table1.csv")
    assert main(["table1", "-o", out_path]) == 0
    header, body = _read_csv(out_path)
    assert header == ["alpha", "beta", "n=150", "n=250", "n=350", "n=1000"]
    assert len(body) == 5
    assert all(cell != "FAIL" for row in body for cell in row)
    # max|y - exact| over the grid; the five pairs read 6e-13 .. 7e-12
    assert all(float(row[5]) <= 2e-11 for row in body)


def test_grid_values_file_must_hold_the_grid_count(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("1\n0.5\n", encoding="ascii")
    assert cli.read_grid_values(path, 2).tolist() == [1.0, 0.5]
    for count in (1, 3):
        with pytest.raises(ValueError, match=f"holds 2 values, expected {count}"):
            cli.read_grid_values(path, count)


def _solve(**changes):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.update(changes)
    return ["solve", "{cfg}", "-o", "{out}"], json.dumps(cfg).encode()


def _solve_edited(old, new):
    argv, config = _solve()
    return argv, config.replace(old, new)


_CONDITION = BASE_CONFIG["conditions"][0]
VOLTERRA_LOWER_OVERFLOW = {
    "degree": 100,
    "operator": [
        {"action": "identity", "coeff": [1.0]},
        {"action": "volterra", "coeff": [1.0], "lower": 1e300},
    ],
    "conditions": [],
    "rhs": {"coeff": [1.0]},
}

# Each input once ended in a traceback, an exit 1, a NaN/inf file with exit 0,
# an exit code that depended on what first touched a non-finite value, or
# numpy warnings ahead of the status line.
BAD_INPUTS = {
    "three-conditions-at-degree-1": (*_solve(conditions=[_CONDITION] * 3), 2),
    "undecodable-config": (_solve()[0], b"\xff\xfe{", 2),
    "rhs-degree-5": (*_solve(rhs={"coeff": [0.0] * 5 + [1.0]}), 2),
    "bessel-negative-order": (["bessel", "-m", "-1", "--degrees", "20", "-o", "{out}"], None, 2),
    "reference-overflow": (
        *_solve(reference={"kind": "volterra_exact", "params": {"a": 1.001}}),
        3,
    ),
    "nan-grid-start": (*_solve_edited(b'"start": -1.0', b'"start": NaN'), 2),
    "nan-condition-value": (*_solve_edited(b'"value": 1.0', b'"value": NaN'), 2),
    "number-overflows-to-inf": (*_solve_edited(b'"start": -1.0', b'"start": 1e400'), 2),
    "grid-1e308-at-degree-3": (
        *_solve(degree=3, grid={"start": -1e308, "stop": 1e308, "count": 3}),
        2,
    ),
    "grid-1e308-bessel-reference": (
        *_solve(
            grid={"start": -1e308, "stop": 1e308, "count": 3},
            reference={"kind": "bessel", "params": {"m": 1}},
        ),
        2,
    ),
    "opmatrix-overflow": (
        ["opmatrix", "--kind", "volterra", "--lower", "1e300", "--size", "8", "-o", "{out}"],
        None,
        3,
    ),
    # nu_j(1e300) overflows, so row 0 of the banded Volterra term is not finite.
    "volterra-lower-overflow": (*_solve(**VOLTERRA_LOWER_OVERFLOW), 3),
    "opmatrix-lower-nan": (
        ["opmatrix", "--kind", "volterra", "--lower=nan", "--size", "8", "-o", "{out}"],
        None,
        2,
    ),
    "opmatrix-lower-inf": (
        ["opmatrix", "--kind", "volterra", "--lower=inf", "--size", "8", "-o", "{out}"],
        None,
        2,
    ),
    # Only the tail rows of the section overflow: the square system is finite.
    "residual-tail-overflow": (
        *_solve(
            basis={"family": "laguerre"},
            degree=100,
            operator=[{"action": "identity", "coeff": [0, 0, 0, 9e300]}],
            rhs={"coeff": [1]},
            grid={"start": 0, "stop": 1, "count": 3},
        ),
        3,
    ),
    "condition-deriv-300-at-degree-400": (
        *_solve(
            degree=400,
            conditions=[{"terms": [{"coeff": 1.0, "deriv": 300, "point": 0.5}], "value": 1.0}],
        ),
        3,
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_volterra_lower_overflow_is_a_non_finite_tau_system(tmp_path, capsys):
    argv, config = _solve(**VOLTERRA_LOWER_OVERFLOW)
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_bytes(config)
    assert main([a.format(cfg=cfg_path, out=tmp_path / "out") for a in argv]) == 3
    assert "numerical failure: Tau system is not finite" in capsys.readouterr().err


# Each sets a size far past its bound.  Unchecked, each would allocate
# gigabytes, or loop for hours, before anything failed.
OVERSIZED_INPUTS = {
    "degree-1e6": (*_solve(degree=10**6), 2),
    "condition-deriv-1e9": (
        *_solve(conditions=[{"terms": [{"coeff": 1.0, "deriv": 10**9, "point": 0.0}], "value": 1.0}]),
        2,
    ),
    "derivative-order-1e9": (
        *_solve(operator=[{"action": "derivative", "coeff": [1.0], "order": 10**9}]),
        2,
    ),
    "grid-count-1e9": (*_solve(grid={"start": -1.0, "stop": 1.0, "count": 10**9}), 2),
    "opmatrix-size-1e6": (
        ["opmatrix", "--kind", "integral", "--size", "1000000", "-o", "{out}"],
        None,
        2,
    ),
    "condition-demo-n-1e6": (["condition-demo", "-n", "1000000", "-o", "{out}"], None, 2),
    "bessel-degree-1e6": (["bessel", "--degrees", "20", "1000000", "-o", "{out}"], None, 2),
}
ALL_BAD_INPUTS = {**BAD_INPUTS, **OVERSIZED_INPUTS}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, config, code", ALL_BAD_INPUTS.values(), ids=ALL_BAD_INPUTS.keys())
def test_bad_input_exits_with_documented_code(tmp_path, capsys, argv, config, code):
    cfg_path = tmp_path / "problem.json"
    out_path = tmp_path / "out"
    if config is not None:
        cfg_path.write_bytes(config)
    assert main([a.format(cfg=cfg_path, out=out_path) for a in argv]) == code
    err = capsys.readouterr().err
    status = {2: "config error", 3: "numerical failure"}[code]
    assert f"tau-spectra: {status}: " in err
    assert "Traceback" not in err
    assert not out_path.exists()
