"""Every name a ``lula_lab`` module exports must exist on that module."""

import importlib
import pkgutil

import pytest

import lula_lab

MODULES = ["lula_lab"] + [
    f"lula_lab.{info.name}" for info in pkgutil.iter_modules(lula_lab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
