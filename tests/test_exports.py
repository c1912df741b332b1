import dataclasses
import importlib
import inspect
import sys

import pytest

import volterra_lab
from volterra_lab import geometry, lattice

SUBMODULES = ("cli", "core", "geometry", "integrate", "lattice", "rng", "verify")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_exist(name):
    module = importlib.import_module(f"volterra_lab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_names_resolve():
    missing = [n for n in volterra_lab.__all__ if not hasattr(volterra_lab, n)]
    assert not missing
    assert len(set(volterra_lab.__all__)) == len(volterra_lab.__all__)


def test_package_reexports_are_the_submodule_objects():
    # every re-exported name is the object its submodule exports
    for name in SUBMODULES:
        module = importlib.import_module(f"volterra_lab.{name}")
        for n in set(module.__all__) & set(volterra_lab.__all__):
            assert getattr(volterra_lab, n) is getattr(module, n), n


@pytest.mark.parametrize(
    "name",
    ["rk4_step", "adaptive45_step", "StepAttempt", "dense_matrix", "state_from_lax",
     "FieldDomainError"],
)
def test_the_second_stepping_api_is_gone(name):
    # integrate(IntegratorConfig, LatticeState) is the one stepping entry point
    assert name not in volterra_lab.__all__
    assert not hasattr(volterra_lab, name)
    for sub in SUBMODULES:
        module = importlib.import_module(f"volterra_lab.{sub}")
        assert name not in module.__all__
        assert not hasattr(module, name)


def test_package_all_is_the_four_submodules_lists():
    # the package root restates no public name: its __all__ is the union of
    # the re-exported submodules' own lists, plus the version
    reexported = ("core", "geometry", "integrate", "lattice")
    expected = ["__version__"]
    for name in reexported:
        expected += importlib.import_module(f"volterra_lab.{name}").__all__
    assert volterra_lab.__all__ == expected
    for name in set(SUBMODULES) - set(reexported):
        module = importlib.import_module(f"volterra_lab.{name}")
        assert not set(module.__all__) & set(volterra_lab.__all__), name
    # the function wins over the submodule of the same name
    assert volterra_lab.integrate is sys.modules["volterra_lab.integrate"].integrate


@pytest.mark.parametrize("module, name", [("rng", "symmetric_matrix"), ("core", "_frobenius_norm")])
def test_hand_copies_of_shared_helpers_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"volterra_lab.{module}"), name)
    assert not hasattr(volterra_lab, name)


def test_no_function_takes_a_sign():
    # the orientation is lattice.CALIBRATED_SIGN alone, and no other module
    # binds it, so one patch of the constant reaches every caller
    for name in SUBMODULES:
        module = importlib.import_module(f"volterra_lab.{name}")
        for fn_name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                assert not {"sigma", "sign"} & set(inspect.signature(fn).parameters), fn_name
        if name != "lattice":
            assert not hasattr(module, "CALIBRATED_SIGN"), name
    # nor does the package root, whose star import would copy it
    assert "CALIBRATED_SIGN" not in lattice.__all__
    assert not hasattr(volterra_lab, "CALIBRATED_SIGN")
    assert not hasattr(lattice, "_check_sign") and not hasattr(lattice, "_bracket_field")
    assert "sigma" not in {f.name for f in dataclasses.fields(geometry.GradientFlowReport)}
