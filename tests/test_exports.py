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


def test_package_exports_exactly_what_runs():
    # test oracles live in tests/conftest.py, not in the public surface
    assert lula_lab.__all__ == [
        "ConfigError", "DivergenceError", "LulaLabError", "ModelFormatError",
        "Rng",
        "ForwardTrace", "LayerSpec", "Network", "backward", "forward", "load", "save",
        "LossKind", "TrainConfig", "map_loss", "train_map",
        "Curvature", "LaplacePosterior", "PredictConfig", "Predictive",
        "build_posterior", "fit_curvature", "mc_predict", "mc_predict_sets",
        "probit_predict_binary", "tune_prior_precision",
        "LulaTrainConfig", "augment", "train_lula",
        "Dataset", "SplitSpec", "gen_toy_regression", "gen_two_moons", "load_csv",
        "split", "standardize", "synthesize_ood",
        "auroc", "brier", "mmc",
    ]


def test_unknown_package_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        lula_lab.no_such_name
