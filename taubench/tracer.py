"""Span tracing of tau-spectra layers from outside the package.

``Tracer.install`` replaces each traced function with a recording wrapper at
every module attribute that holds it, which is the attribute each caller
resolves at call time (``tau_spectra.tau.lu_factor`` for calls from
``solve_tau_system``, ``tau_spectra.linalg.lu_solve_factored`` for calls
inside the condition estimate).  Nothing under ``src/`` is edited, and
``uninstall`` puts every original back.

A span is ``[name, start, end, parent index]``; spans stay in memory until the
run ends.  Self time of a span is its duration minus the durations of its
direct children.  A traced name the package no longer defines is reported
as absent instead of failing the run, so later refactors that delete or
merge functions only shrink the report.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "tau_spectra"

# Traced public functions per module, named <module>.<function> in reports.
LAYERS = {
    "cli": ("main",),
    "oracles": ("airy_bvp_reference", "bessel_j", "volterra_exact"),
    "tau": (
        "solve_tau_system",
        "assemble_pi",
        "condition_row",
        "project_rhs",
        "residual_tail",
    ),
    "opmatrix": ("derivative_matrix", "volterra_matrix"),
    "basis": (
        "recurrence_arrays",
        "eval_basis_derivs",
        "eval_basis_derivs_extended",
        "clenshaw_extended",
    ),
    "linalg": ("lu_factor", "lu_solve_factored", "cond_estimate_factored"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
SOLVE = "tau.solve_tau_system"
SUBSTITUTE = "linalg.lu_solve_factored"
MARK = "__taubench_span__"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def installed_wrappers() -> list[str]:
    """Attributes of loaded package modules that hold a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{mod.__name__}.{attr}")
    return found


def assert_untraced() -> None:
    """Raise if any tracing wrapper is reachable from the package."""
    found = installed_wrappers()
    tau = sys.modules.get(f"{PACKAGE}.tau")
    linalg = sys.modules.get(f"{PACKAGE}.linalg")
    if tau is not None and linalg is not None and hasattr(tau, "lu_factor"):
        if tau.lu_factor is not getattr(linalg, "lu_factor", None):
            found.append(f"{PACKAGE}.tau.lu_factor differs from {PACKAGE}.linalg.lu_factor")
    if found:
        raise RuntimeError(f"untraced run found tracing wrappers: {found}")


class Tracer:
    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans: list[list] = []
        self.solve_health: list[tuple[float, float]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        health = self.solve_health if name == SOLVE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if health is not None:
                diags = getattr(result, "diagnostics", None)
                if diags is not None:
                    health.append((float(diags.cond_estimate), float(diags.growth)))
            return result

        setattr(traced, MARK, name)
        return traced

    def install(self) -> None:
        for name in self.names:
            mod_name, fn_name = name.split(".", 1)
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per traced name, plus derived gauges."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        substitutions_under_solve: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if name == SUBSTITUTE and parent >= 0 and self.spans[parent][0] == SOLVE:
                substitutions_under_solve[parent] += 1
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = float(calls.get(name, 0))
        solves = calls.get(SOLVE, 0)
        # The first substitution of each solve is the plain solve; every
        # further one directly under solve_tau_system is a refinement step.
        out["tau.refine.steps"] = float(sum(c - 1 for c in substitutions_under_solve.values()))
        out["tau.assemble_pi.per_solve"] = calls.get("tau.assemble_pi", 0) / max(solves, 1)
        out["basis.recurrence_arrays.per_solve"] = (
            calls.get("basis.recurrence_arrays", 0) / max(solves, 1)
        )
        cond = max((c for c, _ in self.solve_health), default=1.0)
        # An infinite estimate (singular factors) reads as 10^999.
        out["tau.cond_log10.max"] = math.log10(cond) if math.isfinite(cond) and cond > 0 else 999.0
        out["linalg.growth.max"] = max((g for _, g in self.solve_health), default=0.0)
        return out
