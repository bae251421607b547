"""The public surface: every name a module exports exists."""
import importlib
import pkgutil

import pytest

import hessianforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(hessianforge.__path__))


def test_the_documented_modules_export_names():
    exporting = [m for m in MODULES if hasattr(importlib.import_module(f"hessianforge.{m}"), "__all__")]
    assert {"cones", "grid", "hermitian"} <= set(exporting)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hessianforge.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"hessianforge.{name}.__all__ names missing attributes: {missing}"
