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


def _schema_keywords(schema):
    """Every keyword used anywhere in a schema, with its values."""
    for key, rule in schema.items():
        yield key, rule
        if key == "properties":
            for sub in rule.values():
                yield from _schema_keywords(sub)
        elif key == "items":
            yield from _schema_keywords(rule)


def test_config_schema_is_valid_and_uses_only_checked_keywords():
    # The schema is Draft 2020-12 (the default for a schema without
    # $schema), and cli._schema_errors implements each keyword it uses.
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
    assert jsonschema.validators.validator_for(cli.CONFIG_SCHEMA) is jsonschema.Draft202012Validator
    used = list(_schema_keywords(cli.CONFIG_SCHEMA))
    checked = {
        "type", "enum", "required", "properties", "additionalProperties", "items",
        "minItems", "minimum", "maximum",
    }
    assert {key for key, _ in used} <= checked
    assert {rule for key, rule in used if key == "type"} <= cli._JSON_TYPES.keys()
    assert all(rule is False for key, rule in used if key == "additionalProperties")


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


def _airy_config(basis, degree, epsilon):
    return {
        "basis": basis,
        "degree": degree,
        "operator": [
            {"action": "derivative", "coeff": [epsilon], "order": 2},
            {"action": "identity", "coeff": [0.0, -1.0]},
        ],
        "conditions": [
            {"terms": [{"coeff": 1.0, "deriv": 0, "point": -1.0}], "value": 1.0},
            {"terms": [{"coeff": 1.0, "deriv": 0, "point": 1.0}], "value": 1.0},
        ],
        "rhs": {"coeff": [0.0]},
        "grid": {"start": -1.0, "stop": 1.0, "count": 2001},
        "reference": {"kind": "airy_bvp", "params": {"epsilon": epsilon}},
    }


# Each config's sup error against its reference, absolute or relative to
# max|reference|.
SOLVE_CONFIGS = {
    # The README's config; it reads about 1.1e-13.
    "readme-airy": (_airy_config({"family": "jacobi", "alpha": 0.0, "beta": 0.0}, 80, 1e-2), 1e-10, False),
    # The solve-mix Laguerre-Bessel config m = 3 on [0, 20], whose Pi the
    # Laguerre xD route builds; it reads about 2.7e-15.
    "laguerre-bessel-m3": (
        {
            "basis": {"family": "laguerre"},
            "degree": 200,
            "operator": [
                {"action": "derivative", "coeff": [0.0, 0.0, 1.0], "order": 2},
                {"action": "derivative", "coeff": [0.0, 1.0], "order": 1},
                {"action": "identity", "coeff": [-9.0, 0.0, 1.0]},
            ],
            "conditions": [
                {"terms": [{"coeff": 1.0, "deriv": 0, "point": 0.0}], "value": 0.0},
                {"terms": [{"coeff": 1.0, "deriv": 0, "point": 20.0}], "value": 1.0},
            ],
            "rhs": {"coeff": [0.0]},
            "grid": {"start": 0.0, "stop": 20.0, "count": 2001},
            "reference": {"kind": "bessel", "params": {"m": 3, "scale_point": 20.0}},
        },
        1e-10,
        False,
    ),
    # jacobi(-0.9, -0.9) has no closed-form bound on |nu_k| (max(alpha, beta)
    # < -1/2), so its Clenshaw sum runs wholly in long double; it reads about
    # 2.2e-13. eps = 5e-3, because at 1e-3 the series reference itself is off
    # by 1.8e-6.
    "airy-jacobi-fallback": (
        _airy_config({"family": "jacobi", "alpha": -0.9, "beta": -0.9}, 160, 5e-3),
        1e-9,
        True,
    ),
}


@pytest.mark.parametrize("cfg, bound, relative", SOLVE_CONFIGS.values(), ids=SOLVE_CONFIGS.keys())
def test_solve_config_against_its_reference(tmp_path, cfg, bound, relative):
    out_path = str(tmp_path / "out.csv")
    assert main(["solve", _write_config(tmp_path, cfg), "-o", out_path]) == 0
    header, body = _read_csv(out_path)
    assert header == ["x", "y_n", "reference", "error"]
    scale = max(abs(float(row[2])) for row in body) if relative else 1.0
    assert max(float(row[3]) for row in body) <= bound * scale


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


def _run_python(code):
    """Run code in a fresh interpreter that imports tau_spectra from this tree."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_solve_runs_without_scipy(tmp_path):
    # scipy may be installed but is not a dependency: no module may import it.
    # jsonschema is a test dependency only: the CLI checks configs itself, and
    # a schema violation still reads in jsonschema's words with exit 2.
    cfg_path = _write_config(tmp_path, BASE_CONFIG)
    foo_path = _write_config(tmp_path, {**BASE_CONFIG, "foo": 1}, "foo.json")
    out_path = tmp_path / "out.csv"
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import tau_spectra.cli; "
        "assert 'jsonschema' not in sys.modules, 'tau_spectra.cli imported jsonschema'; "
        "sys.modules['jsonschema'] = None; "
        f"assert tau_spectra.cli.main(['solve', {cfg_path!r}, '-o', {str(out_path)!r}]) == 0; "
        f"sys.exit(tau_spectra.cli.main(['solve', {foo_path!r}, '-o', {str(tmp_path / 'foo.csv')!r}]))"
    )
    proc = _run_python(code)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "tau-spectra: config error: Additional properties are not allowed ('foo' was unexpected)\n"
    assert out_path.exists()


def test_bessel_ladder_to_4000_within_100_mb(tmp_path):
    # The ladder runs in a fresh process so that its peak resident memory is
    # its own: the section is held as 64-row blocks and the Tau matrix is
    # never built, so the ladder to n = 4000 reads about 45 MB (170 MB with a
    # dense section). tracemalloc cannot see resident huge pages; the kernel's
    # count can. The child reads VmHWM, the peak of its own address space:
    # its ru_maxrss would carry the test runner's peak across exec.
    fig = tmp_path / "fig"
    code = (
        "import sys; from tau_spectra.cli import main; "
        f"rc = main(['bessel', '-m', '10', '--degrees', '100', '200', '2000', '4000', '-o', {str(fig)!r}]); "
        "print(*[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]); "
        "sys.exit(rc)"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) <= 100 * 1024  # kB
    assert not any(b"FAIL" in path.read_bytes() for path in fig.iterdir())
    # A converged refinement reads about 9.4e-11 at n = 200; one that takes no
    # step 8.6e-6.
    # n = 2000, the benchmark's top degree, reads about 5.9e-11 and n = 4000,
    # near the largest degree the 4096-row section bound allows, about
    # 1.4e-10: both run the almost-banded QR and the banded xD assembly.
    for n in (200, 2000, 4000):
        _, body = _read_csv(str(fig / f"bessel_m10_n{n}.csv"))
        assert max(float(row[3]) for row in body) <= 1e-8, n


# Each matrix against its closed form, entry for entry, within the bound.
OPMATRIX_CLOSED_FORMS = {
    "legendre-derivative-4": (
        ["--basis", "jacobi:0,0", "--kind", "derivative", "--size", "4"],
        {(0, 1): 1.0, (0, 3): 1.0, (1, 2): 3.0, (2, 3): 5.0},
        0.0,
    ),
    # Custom bases take the back substitution, not the structure relation:
    # the monomial integral matrix maps x^j to x^(j+1)/(j+1).
    "monomial-integral-8": (
        ["--basis", "monomial", "--kind", "integral", "--size", "8"],
        {(j + 1, j): 1 / (j + 1) for j in range(7)},
        0.0,
    ),
    # From 0.5 it is that integral matrix with row 0 -0.5^(j+1)/(j+1): the
    # custom basis's band, every row of it dense, end to end.
    "monomial-volterra-8": (
        ["--basis", "monomial", "--kind", "volterra", "--lower", "0.5", "--size", "8"],
        {
            **{(0, j): -(0.5 ** (j + 1)) / (j + 1) for j in range(8)},
            **{(j + 1, j): 1 / (j + 1) for j in range(7)},
        },
        0.0,
    ),
    # Classical bases take theta's three diagonals in closed form. The
    # Laguerre recurrence coefficients are integers, so its theta is exact:
    # int L_j = L_j - L_{j+1}.
    "laguerre-integral-40": (
        ["--basis", "laguerre", "--kind", "integral", "--size", "40"],
        {**{(j, j - 1): -1.0 for j in range(1, 40)}, **{(j, j): 1.0 for j in range(1, 40)}},
        0.0,
    ),
    # From -1 the Legendre one is (P_{j+1} - P_{j-1}) / (2j + 1), and P_0 + P_1
    # in column 0. Row 0's mathematically zero entries read up to about 5.6e-17.
    "legendre-volterra-12": (
        ["--basis", "jacobi:0,0", "--kind", "volterra", "--lower", "-1", "--size", "12"],
        {
            (0, 0): 1.0,
            (1, 0): 1.0,
            **{(j - 1, j): -1 / (2 * j + 1) for j in range(1, 12)},
            **{(j + 1, j): 1 / (2 * j + 1) for j in range(1, 11)},
        },
        1e-15,
    ),
}


@pytest.mark.parametrize(
    "argv, expected, bound", OPMATRIX_CLOSED_FORMS.values(), ids=OPMATRIX_CLOSED_FORMS.keys()
)
def test_opmatrix_triplets(tmp_path, argv, expected, bound):
    out_path = str(tmp_path / "matrix.csv")
    assert main(["opmatrix", *argv, "-o", out_path]) == 0
    header, body = _read_csv(out_path)
    assert header == ["row", "col", "value"]
    triplets = {(int(r), int(c)): float(v) for r, c, v in body}
    assert list(triplets) == sorted(triplets)
    worst = max(abs(triplets.get(k, 0.0) - expected.get(k, 0.0)) for k in triplets.keys() | expected.keys())
    assert worst <= bound


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


def test_condition_demo_small_degree(tmp_path, capsys):
    assert main(["condition-demo", "-n", "20"]) == 0
    out = capsys.readouterr().out
    assert "recurrence path sup error:" in out
    assert "similarity path sup error:" in out
    assert "cond_1 of change-of-basis matrix:" in out
    # -o writes what it prints, byte for byte, and prints nothing.
    out_path = tmp_path / "demo.txt"
    assert main(["condition-demo", "-n", "20", "-o", str(out_path)]) == 0
    assert out_path.read_bytes() == out.encode()
    assert capsys.readouterr().out == ""


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
    assert all(cell != "FAIL" for row in body for cell in row)
    # The n = 1000 cells read up to 4.0e-7: the bound is
    # test_volterra_table2_at_degree_1000's relative 1e-11 times sup|y| = 1.9e5.
    assert all(float(row[5]) <= 2e-6 for row in body)


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
    "opmatrix-integral-with-lower": (
        ["opmatrix", "--kind", "integral", "--lower", "0.5", "--size", "8", "-o", "{out}"],
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
    # Nesting past the interpreter's recursion limit: json.load gives up on
    # both (test_value_too_deep_to_quote_is_a_config_error covers a value
    # that parses but is too deep for its message).
    "config-nested-100000-deep": (_solve()[0], b"[" * 100000 + b"]" * 100000, 2),
    "degree-nested-995-deep": (*_solve_edited(b'"degree": 1', b'"degree": ' + b"[" * 995 + b"]" * 995), 2),
    "condition-deriv-300-at-degree-400": (
        *_solve(
            degree=400,
            conditions=[{"terms": [{"coeff": 1.0, "deriv": 300, "point": 0.5}], "value": 1.0}],
        ),
        3,
    ),
}


def test_value_too_deep_to_quote_is_a_config_error(tmp_path, monkeypatch, capsys):
    # json.load gives up on both nested BAD_INPUTS first; a value it did
    # parse can still be too deep for the message that quotes it.
    deep = 0
    for _ in range(100_000):
        deep = [deep]
    cfg = {**BASE_CONFIG, "degree": deep}
    monkeypatch.setattr(cli.json, "load", lambda fh, **kwargs: cfg)
    assert main(["solve", _write_config(tmp_path, BASE_CONFIG), "-o", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "tau-spectra: config error: config is nested too deeply\n"


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
