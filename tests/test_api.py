"""The package's public names: every export resolves, the top-level list
is exactly what the submodules export and what README lists, and the
solver's internals stay out of it."""

import importlib
import pathlib
import re

import tau_spectra

SUBMODULES = ("basis", "linalg", "opmatrix", "oracles", "tau")


def test_all_is_the_union_of_submodule_exports():
    for name in tau_spectra.__all__:
        assert hasattr(tau_spectra, name), name
    union = {"__version__"}
    for mod in SUBMODULES:
        module = importlib.import_module(f"tau_spectra.{mod}")
        for name in module.__all__:
            assert hasattr(module, name), f"{mod}.{name}"
        union.update(module.__all__)
    assert len(tau_spectra.__all__) == len(set(tau_spectra.__all__))
    assert set(tau_spectra.__all__) == union


def test_submodule_exports_are_the_package_objects():
    """The package binds each exported name to its submodule's object, so a
    patch of a module attribute reaches every holder of that object."""
    for mod in SUBMODULES:
        module = importlib.import_module(f"tau_spectra.{mod}")
        for name in module.__all__:
            assert getattr(tau_spectra, name) is getattr(module, name), f"{mod}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tau_spectra import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(tau_spectra.__all__)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# The solver's own machinery: each stays an attribute of its module, where
# the tests and the benchmark tracer reach it, and none is exported.
INTERNAL = {
    "linalg": ("QRFactors", "qr_factor", "qr_solve", "qr_solve_transposed", "cond_estimate_factored"),
    "opmatrix": ("solve_upper_triangular",),
    "tau": ("project_rhs", "condition_row", "operator_height"),
    "oracles": ("bessel_j_series",),
}


def _readme_public_names():
    """The backquoted names of README's "Public names" list."""
    section = README.read_text(encoding="utf-8").split("### Public names\n", 1)[1]
    section = section.split("\n#", 1)[0]
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_readme_lists_exactly_the_public_names():
    listed = _readme_public_names()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(tau_spectra.__all__)


def test_solver_internals_are_module_attributes_but_not_exported():
    assert tau_spectra.linalg.__all__ == ["SingularMatrixError", "Section"]
    for mod, names in INTERNAL.items():
        module = importlib.import_module(f"tau_spectra.{mod}")
        for name in names:
            assert callable(getattr(module, name)), f"{mod}.{name}"
            assert name not in module.__all__ and name not in tau_spectra.__all__, name
