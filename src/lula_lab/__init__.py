"""Laplace-approximated networks with trainable uncertainty units.

The package turns a point-estimated feedforward network into a Gaussian
posterior over (a subset of) its parameters and then tunes the resulting
predictive uncertainty post hoc by adding inactive hidden units whose only
effect is on the loss curvature.

The names below are loaded on first use (PEP 562): ``import lula_lab``
imports no submodule and no numpy, and ``lula_lab.train_map`` imports
``lula_lab.training`` the first time it is read.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS_BY_MODULE = {
    "errors": ("ConfigError", "DivergenceError", "LulaLabError", "ModelFormatError"),
    "numerics": ("Rng",),
    "network": (
        "ForwardTrace", "LayerSpec", "Network", "backward", "forward", "load", "save",
    ),
    "training": ("LossKind", "TrainConfig", "map_loss", "train_map"),
    "laplace": (
        "Curvature", "LaplacePosterior", "PredictConfig", "Predictive",
        "build_posterior", "fit_curvature", "mc_predict", "mc_predict_sets",
        "probit_predict_binary", "tune_prior_precision",
    ),
    "lula": ("LulaTrainConfig", "augment", "train_lula"),
    "data": (
        "Dataset", "SplitSpec", "gen_toy_regression", "gen_two_moons", "load_csv",
        "split", "standardize", "synthesize_ood",
    ),
    "metrics": ("auroc", "brier", "mmc"),
}
_EXPORTS = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
