"""Every name a ``lula_lab`` module exports must exist on that module, and
the package's exports, loaded on first use, behave as plain attributes."""

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


def test_package_exports_load_on_first_use():
    namespace = {}
    exec("from lula_lab import *", namespace)
    assert set(lula_lab.__all__) <= set(namespace)
    listed = dir(lula_lab)
    for name in lula_lab.__all__:
        assert name in listed, name
        assert getattr(lula_lab, name) is namespace[name], name


def test_unknown_package_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        lula_lab.no_such_name
