"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest taubench -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mpref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "taubench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", ["bessel", "solve-mix"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert _units(result) == _expected("end_to_end")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["metrics"]["pass_ratio"]["value"] == 1.0


def test_smoke_traced_run_prints_every_per_layer_metric():
    result = _result(_bench("--workload", "solve-mix", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    assert _units(result) == _expected("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["linalg.lu_factor.calls"] == 5
    assert metrics["tau.assemble_pi.per_solve"] == 2.0
    assert metrics["cli.main.self_s"] > 0.0


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.END_TO_END_UNITS) == set(_expected("end_to_end"))
    assert run.per_layer_units(tracer.TRACED) == _expected("per_layer")


def test_solve_mix_configs_follow_the_seed(tmp_path):
    def files(seed, sub):
        workloads.SolveMix(seed).prepare(tmp_path / sub)
        return [p.read_bytes() for p in sorted((tmp_path / sub / "configs").iterdir())]

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert len(first) >= 100
    assert first == again
    assert first != other

    def degrees(seed):
        return sorted((s["family"], s["config"]["degree"]) for s in workloads.solve_mix_specs(seed))

    assert degrees(7) == degrees(8)


def test_wrong_reference_counts_as_failure(monkeypatch, capsys):
    for fn in ("airy_bvp", "volterra", "bessel_ratio"):
        real = getattr(mpref, fn)
        monkeypatch.setattr(mpref, fn, lambda *a, _real=real: _real(*a) * (1.0 + 1e-6))
    code = run.main(["--workload", "solve-mix", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "taubench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bessel", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_reports_absent_names_and_restores_originals():
    import tau_spectra.linalg as linalg
    import tau_spectra.tau as tau

    original = linalg.lu_factor
    trace = tracer.Tracer(names=("linalg.lu_factor", "linalg.no_such_function", "nomodule.fn"))
    with trace:
        assert trace.absent == ["linalg.no_such_function", "nomodule.fn"]
        assert tau.lu_factor is linalg.lu_factor is not original
        with pytest.raises(RuntimeError):
            tracer.assert_untraced()
        tau.lu_factor([[2.0, 1.0], [1.0, 3.0]])
    assert tau.lu_factor is linalg.lu_factor is original
    tracer.assert_untraced()
    metrics = trace.layer_metrics()
    assert metrics["linalg.lu_factor.calls"] == 1.0
    assert metrics["linalg.no_such_function.calls"] == 0.0
