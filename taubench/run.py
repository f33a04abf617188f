"""Benchmark of the tau-spectra solver, end to end and per layer.

    python3 taubench/run.py --workload {bessel,table2,solve-mix} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  The program is driven only through
``tau_spectra.cli.main([...])`` in this process, from one closed-loop client:
each task starts when the previous one returned.  A run makes at least two
passes over the workload's fixed task list, and starts another only while it
would, at the mean pass time so far, end less than half a pass after
``--seconds``; so the passes take ``--seconds`` give or take half a pass.
Outputs are checked against mpmath references after the timed passes.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` times one untraced pass and then one traced pass, and reports
per-layer self times, call counts and health gauges (see ``tracer.py``).
``--smoke`` shrinks the task lists for the self-tests.  The last line of
standard output is the JSON result; the line before it records the
environment.  README.md next to this file explains the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy loads anywhere in this process or its
# children: with two threads volterra_matrix on table2 swung 0.58-1.56 s
# across three runs, with one it stayed within 0.83-0.89 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".taubench_work"
SETUP_REPEATS = 6  # fresh processes timed before the passes, and again after
SETUP_CODE = "import sys, tau_spectra.cli as cli; sys.exit(cli.main(sys.argv[1:]))"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "call_p50_s": "s",
    "call_p90_s": "s",
    "peak_rss_mb": "MB",
    "err_digits": "digits",
    "pass_ratio": "1",
}


def per_layer_units(names) -> dict[str, str]:
    units = {}
    for name in names:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "tau.refine.steps": "count",
            "tau.assemble_pi.per_solve": "1",
            "basis.recurrence_arrays.per_solve": "1",
            "tau.cond_log10.max": "log10",
            "linalg.growth.max": "1",
            "trace.run_s": "s",
            "trace.overhead": "1",
        }
    )
    return units


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, queried from the library."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernels = sys.modules.get("tau_spectra._kernels")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": getattr(kernels, "USE_NUMBA", None),
        "git_commit": _git_commit(),
    }


def measure_setup(workdir: Path, config: Path, repeats: int) -> list[float]:
    """Wall times of fresh processes that each import tau_spectra.cli and
    solve a degree-10 problem."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for i in range(repeats):
        cmd = [sys.executable, "-c", SETUP_CODE, "solve", str(config), "-o", str(workdir / f"setup{i}.csv")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited {proc.returncode}: {proc.stderr.strip()}")
    return times


def run_pass(workload, workdir: Path, label: str, cli) -> dict:
    pass_dir = workdir / label
    pass_dir.mkdir()
    tasks = workload.tasks(pass_dir)
    times, codes, messages = [], [], []
    start = time.perf_counter()
    for argv in tasks:
        t0 = time.perf_counter()
        rc, text = workloads.call_cli(cli, argv)
        times.append(time.perf_counter() - t0)
        codes.append(rc)
        if rc != 0:
            messages.append(text.strip()[-500:])
    return {"dir": pass_dir, "wall": time.perf_counter() - start, "times": times, "codes": codes, "messages": messages}


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["bessel", "table2", "solve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny task lists, for the self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tau_spectra" / "cli.py").is_file():
        print(f"taubench: no tau_spectra sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tau_spectra.cli as cli

    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(args, workload, workdir, cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, workload, workdir: Path, cli) -> int:
    workload.prepare(workdir)
    setup_cfg = workdir / "setup.json"
    setup_cfg.write_text(json.dumps(workloads.airy_config(0.0, 0.0, 10, 1e-2, count=101)), encoding="utf-8")
    info = {"workload": args.workload, "seed": args.seed, "sizes": workload.sizes()}

    metrics: dict[str, float] = {}
    setup_repeats = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    setup_times = measure_setup(workdir, setup_cfg, setup_repeats)

    # Warm-up: lazy imports and schema compilation finish before timing.
    workloads.call_cli(cli, ["solve", str(setup_cfg), "-o", str(workdir / "warmup.csv")])

    tracer.assert_untraced()
    passes = []
    if args.trace:
        passes.append(run_pass(workload, workdir, "pass0", cli))
        trace = tracer.Tracer()
        with trace:
            passes.append(run_pass(workload, workdir, "pass1", cli))
        tracer.assert_untraced()
        metrics.update(trace.layer_metrics())
        metrics["trace.run_s"] = passes[1]["wall"]
        metrics["trace.overhead"] = passes[1]["wall"] / passes[0]["wall"] - 1.0
        info["absent"] = trace.absent
    else:
        start = time.perf_counter()
        while len(passes) < 2 or (
            time.perf_counter() - start + 0.5 * statistics.mean(p["wall"] for p in passes) < args.seconds
        ):
            passes.append(run_pass(workload, workdir, f"pass{len(passes)}", cli))
            if len(passes) == 1:
                # Later passes reuse freed memory unevenly (the allocator's
                # thresholds move), so the peak is read after the first.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-up samples on both sides of the passes, so one slow stretch of
        # the machine does not decide the median.
        setup_times += measure_setup(workdir, setup_cfg, setup_repeats)
        metrics["setup_s"] = statistics.median(setup_times)
        calls = [t for p in passes for t in p["times"]]
        metrics["run_s"] = statistics.median(p["wall"] for p in passes)
        metrics["call_p50_s"] = _percentile(calls, 0.5)
        metrics["call_p90_s"] = _percentile(calls, 0.9)
        metrics["peak_rss_mb"] = peak_rss_mb
        info["calls"] = len(calls)

    outcomes = []
    for p in passes:
        outcomes.extend(workload.check(workdir, p["dir"], p["codes"]))
        shutil.rmtree(p["dir"], ignore_errors=True)
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    errors = [o.rel_err for o in outcomes if o.rel_err is not None and math.isfinite(o.rel_err)]
    if not args.trace:
        worst = max(errors) if errors else 1.0
        metrics["err_digits"] = -math.log10(max(worst, 1e-17))
        metrics["pass_ratio"] = (attempted - failed) / attempted

    info["passes"] = [round(p["wall"], 6) for p in passes]
    info["max_rel_err"] = max(errors) if errors else None
    info["failures"] = [o.message for o in outcomes if not o.ok][:5] + [
        m for p in passes for m in p["messages"]
    ][:5]
    info["environment"] = environment()
    units = END_TO_END_UNITS if not args.trace else per_layer_units(tracer.TRACED)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
