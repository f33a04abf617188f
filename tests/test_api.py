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
