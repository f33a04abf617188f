"""The package's public names: every export resolves, and the top-level
list is exactly what the submodules export."""

import importlib

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
