"""Experiment configuration: INI-style files, typed and validated at load.

Every key has a documented default and a parser. Loading converts the whole
file at once, so an unknown section or key, or a malformed value, raises
:class:`ConfigError` naming ``[section] key`` before any work starts.
``python -m lula_lab.config [path]`` writes the reference file with every
key, its default, and a one-line comment.
"""

from __future__ import annotations

import configparser
import io
import sys
from dataclasses import dataclass

import numpy as np

from .data import (GENERATOR_FEATURES, OOD_KINDS, OOD_MIN_FEATURES, SplitSpec,
                   ood_width_need)
from .errors import ConfigError
from .laplace import (
    CURVATURE_KINDS,
    PREDICT_METHODS,
    SUBSETS,
    TUNE_OBJECTIVES,
    proper_prior_precision,
)
from .network import ACTIVATIONS
from .numerics import _mix64
from .training import LOSS_KINDS

__all__ = ["ExperimentConfig", "load_config", "default_config", "reference_text"]


# Parsers turn the raw string into the typed value or raise ValueError; the
# loader adds the [section] key to the message.


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _float(raw: str) -> float:
    """A finite float: nan and +-inf are rejected."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a float, got {raw!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"expected a finite float, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int_at_least(low: int):
    def parse(raw: str) -> int:
        value = _int(raw)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {raw!r}")
        return value

    return parse


_count = _int_at_least(0)


def _nonnegative(raw: str) -> float:
    """A nonnegative float: a noise scale or a radius."""
    value = _float(raw)
    if not value >= 0.0:
        raise ValueError(f"expected a nonnegative float, got {raw!r}")
    return value


def _positive(raw: str) -> float:
    """A positive float: a precision or a length."""
    value = _float(raw)
    if not value > 0.0:
        raise ValueError(f"expected a positive float, got {raw!r}")
    return value


def _prior_precision(raw: str) -> float:
    """A positive float whose reciprocal, the prior variance, is finite."""
    value = _float(raw)
    if not proper_prior_precision(value):
        raise ValueError(f"expected a positive float with a finite reciprocal, got {raw!r}")
    return value


def _one_of(choices: tuple[str, ...]):
    def parse(raw: str) -> str:
        value = raw.strip()
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value

    return parse


def _list(item, min_len: int, max_len: int | None = None):
    """Comma list of ``item`` values, as a tuple of bounded length."""

    def parse(raw: str) -> tuple:
        values = tuple(item(p) for p in raw.split(",") if p.strip())
        if len(values) < min_len or (max_len is not None and len(values) > max_len):
            want = f"exactly {min_len}" if max_len == min_len else f"at least {min_len}"
            raise ValueError(f"expected {want} comma-separated values, got {raw!r}")
        return values

    return parse


def _distinct(parse):
    """``parse`` of a list, refusing a value that it holds twice."""

    def parse_distinct(raw: str) -> tuple:
        values = parse(raw)
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"repeats {', '.join(map(repr, repeated))} in {raw!r}")
        return values

    return parse_distinct


def _or_none(word: str, parse):
    """``parse``, or None for the literal ``word``."""

    def parse_or_none(raw: str):
        if raw.strip() == word:
            return None
        try:
            return parse(raw)
        except ValueError as exc:
            raise ValueError(f"{exc}; {word!r} is also accepted") from None

    return parse_or_none


def _batch_size(raw: str) -> int | None:
    value = _count(raw)
    return value if value > 0 else None


def _unit_count(raw: str) -> int:
    if "," in raw:
        raise ValueError(
            "takes one count, not a per-layer list: under the last-layer "
            "posterior only final-hidden-layer units train"
        )
    return _count(raw)


def _lambda_grid(raw: str) -> tuple[float, ...]:
    """Prior precisions of :func:`_prior_precision`: a comma list, or
    logspace:lo:hi:count, whose every entry 10**x must stay finite and
    positive in float64 with a finite reciprocal."""
    raw = raw.strip()
    if not raw.startswith("logspace:"):
        return _list(_prior_precision, 1)(raw)
    parts = raw.split(":")
    if len(parts) != 4:
        raise ValueError("logspace form is logspace:lo:hi:count")
    count = _int(parts[3])
    if count < 1:
        raise ValueError("logspace count must be positive")
    # the checks below reject what the float64 power overflows or underflows
    with np.errstate(over="ignore", under="ignore"):
        grid = np.logspace(_float(parts[1]), _float(parts[2]), count)
    if not proper_prior_precision(grid):
        raise ValueError(
            f"{raw!r} yields entries that are not finite positive floats "
            f"with finite reciprocals (from {grid.min():g} to {grid.max():g})"
        )
    return tuple(grid)


def _split(raw: str) -> tuple[float, float, float]:
    return SplitSpec(_list(_float, 3, 3)(raw)).fractions


def _choice(default: str, choices: tuple[str, ...], comment: str):
    """Schema entry for a key naming one of ``choices``."""
    return (default, _one_of(choices), f"{comment}: {' | '.join(choices)}")


# section -> key -> (default, parse, comment)
SCHEMA: dict[str, dict[str, tuple]] = {
    "data": {
        "generator": _choice(
            "two_moons", ("two_moons", "toy_regression", "csv"), "data source"
        ),
        "size": ("500", _int_at_least(2), "number of generated points, >= 2"),
        "noise_std": ("0.1", _nonnegative, "generator noise standard deviation, >= 0"),
        "x_low": ("-4.0", _float, "toy_regression input range, lower end"),
        "x_high": ("4.0", _float, "toy_regression input range, upper end"),
        "csv_path": ("", str, "input file for generator = csv"),
        "target_column": (
            "",
            str,
            "csv target column name, or 0-based index when header = false",
        ),
        "header": ("true", _bool, "csv has a header row"),
        "split": ("0.6,0.2,0.2", _split, "train/val/test fractions, sum to 1"),
        "standardize": ("false", _bool, "standardize features with train stats"),
        "standardize_targets": (
            "false", _bool, "also standardize regression targets"
        ),
        "seed": ("0", _int, "generation and split seed"),
    },
    "model": {
        "dims": (
            "2,64,64,2",
            _list(_int_at_least(1), 2),
            "layer sizes, input first, output last, each >= 1",
        ),
        "activation": _choice("relu", ACTIVATIONS, "hidden activation"),
    },
    "train": {
        "learning_rate": ("0.001", _positive, "step size, > 0"),
        "epochs": ("200", _count, "passes over the training split, >= 0"),
        "batch_size": ("64", _batch_size, "minibatch size, >= 0; 0 for full batch"),
        "weight_decay": (
            "0.001", _nonnegative, "prior precision used during training, >= 0"
        ),
        "loss": _choice(
            "auto", ("auto",) + LOSS_KINDS, "likelihood, auto picks from the task"
        ),
        "noise_precision": (
            "25.0", _positive, "Gaussian likelihood precision (beta), > 0"
        ),
        "seed": ("1", _int, "shuffling and initialization seed"),
    },
    "laplace": {
        "curvature": _choice("kfac_last_layer", CURVATURE_KINDS, "GGN structure"),
        "subset": _choice("last_layer", SUBSETS, "parameters under the posterior"),
        "prior_precision": (
            "tune",
            _or_none("tune", _prior_precision),
            "a positive float, or 'tune' to search the grid",
        ),
        "tune_objective": _choice(
            "val_log_likelihood", TUNE_OBJECTIVES, "prior-precision tuning score"
        ),
        "lambda_grid": (
            "logspace:-4:4:17",
            _lambda_grid,
            "logspace:lo:hi:count (base 10) or a comma list of positive values",
        ),
        "method": _choice("mc", PREDICT_METHODS, "predictive used for tuning"),
        "sample_count": (
            "100",
            _int_at_least(1),
            "output draws of the mc predictive (classification), >= 1",
        ),
        "seed": ("2", _int, "sampling seed"),
    },
    "lula": {
        "counts": ("32", _unit_count, "units added to the final hidden layer, >= 0"),
        "learning_rate": ("0.05", _positive, "uncertainty-training step size, > 0"),
        "epochs": ("20", _count, "uncertainty-training epochs, >= 0"),
        "init_std": (
            "default",
            _or_none("default", _positive),
            "'default' (0.1 sqrt(2/fan_in)) or a positive float",
        ),
        "ood_low": ("-10.0", _float, "outlier box lower bound"),
        "ood_high": ("10.0", _float, "outlier box upper bound"),
        "ood_size": ("500", _int_at_least(1), "number of outlier training points, >= 1"),
        "seed": ("3", _int, "unit initialization and output-preservation check seed"),
    },
    "eval": {
        "ood_kinds": (
            "uniform,asymptotic",
            _distinct(_list(_one_of(OOD_KINDS), 0)),
            f"comma list of distinct kinds from {', '.join(OOD_KINDS)}; fewest "
            "features: " + ", ".join(f"{k} {n}" for k, n in OOD_MIN_FEATURES.items()),
        ),
        "sample_count": (
            "100",
            _int_at_least(1),
            "output draws per mc prediction run (classification), >= 1",
        ),
        "runs": (
            "10",
            _int_at_least(1),
            "prediction repetitions, >= 1 (mean and std reported; regression is exact)",
        ),
        "method": _choice("mc", PREDICT_METHODS, "predictive"),
        "report_std": _choice(
            "epistemic", ("epistemic", "total"), "regression std to report"
        ),
        "grid_size": ("60", _int_at_least(1), "demo lattice resolution per axis, >= 1"),
        "grid_extent": ("12.0", _positive, "demo lattice half width, > 0"),
        "ring_inner": (
            "8.0",
            _nonnegative,
            "far-field ring inner radius (classification demo), >= 0",
        ),
        "ring_outer": ("12.0", _float, "far-field ring outer radius"),
        "far_field": (
            "6.0",
            _positive,
            "|x| at or above this is far field (regression demo), > 0 and "
            "below grid_extent",
        ),
        "seed": ("4", _int, "evaluation seed"),
    },
    "demo": {
        "moons_size": ("600", _int_at_least(3), "two-moons dataset size, >= 3"),
        "moons_noise": ("0.15", _nonnegative, "two-moons noise std, >= 0"),
        "moons_train_epochs": ("200", _count, "MAP epochs for the two-moons net, >= 0"),
        "moons_lula_units": ("32", _count, "added units for the two-moons stage, >= 0"),
        "moons_lula_epochs": (
            "100", _count, "uncertainty-training epochs, two-moons, >= 0"
        ),
        "reg_size": ("400", _int_at_least(3), "toy regression dataset size, >= 3"),
        "reg_noise": ("0.15", _nonnegative, "toy regression noise std, >= 0"),
        "reg_train_epochs": ("2000", _count, "MAP epochs for the regression net, >= 0"),
        "reg_lula_units": ("50", _count, "added units for the regression stage, >= 0"),
        "reg_lula_epochs": ("40", _count, "uncertainty-training epochs, regression, >= 0"),
        "seed": ("5", _int, "demo seed"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; ``cfg[section][key]`` is the typed value."""

    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def with_master_seed(self, master: int) -> "ExperimentConfig":
        """Replace every section seed with one derived from ``master``."""
        values = {s: dict(kv) for s, kv in self.values.items()}
        for index, section in enumerate(sorted(values)):
            if "seed" in values[section]:
                values[section]["seed"] = _mix64(int(master), index)
        return ExperimentConfig(values)


def _parse(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def likelihood(cfg) -> str:
    """The likelihood of a config (or of its section -> key -> value
    mapping): ``[train] loss`` when it is named, or under auto the one its
    generator implies. two_moons is categorical, and load_csv reads a csv
    target as a regression target, so auto resolves to gaussian_nll there."""
    loss = cfg["train"]["loss"]
    if loss == "auto":
        loss = "categorical_ce" if cfg["data"]["generator"] == "two_moons" else "gaussian_nll"
    return loss


def output_count_need(loss: str, outputs: int) -> str | None:
    """What the likelihood ``loss`` needs of a network's output count, or
    None when ``outputs`` meets it: a softmax over k classes needs k >= 2
    logits, and a sigmoid reads one."""
    if loss == "categorical_ce" and outputs < 2:
        return "at least 2"
    if loss == "binary_ce" and outputs != 1:
        return "exactly 1"
    return None


# (section, low, high): the value of key low must be strictly below that of
# key high in the same section
ORDERED_PAIRS = (
    ("data", "x_low", "x_high"),
    ("lula", "ood_low", "ood_high"),
    ("eval", "ring_inner", "ring_outer"),
    ("eval", "far_field", "grid_extent"),
)


def _convert(raw: dict) -> ExperimentConfig:
    """Typed config from section -> key -> string, with cross-key rules."""
    values = {
        section: {key: _parse(section, key, parse, raw[section][key])
                  for key, (_, parse, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    for section, low, high in ORDERED_PAIRS:
        if not values[section][low] < values[section][high]:
            raise ConfigError(f"[{section}] {low} must be below {high}")
    data = values["data"]
    if data["generator"] == "csv":
        for key in ("csv_path", "target_column"):
            if not data[key]:
                raise ConfigError(f"[data] {key} is required for generator = csv")
    if data["target_column"] and not data["header"]:
        data["target_column"] = _parse(
            "data", "target_column", _int, data["target_column"]
        )
    width = GENERATOR_FEATURES.get(data["generator"])
    need = width and ood_width_need(values["eval"]["ood_kinds"], width)
    if need:
        raise ConfigError(f"[eval] ood_kinds: {need}, and [data] generator = "
                          f"{data['generator']} makes {width}")
    laplace = values["laplace"]
    if laplace["curvature"] == "kfac_last_layer" and laplace["subset"] != "last_layer":
        raise ConfigError("[laplace] curvature = kfac_last_layer needs subset = last_layer")
    loss = likelihood(values)
    outputs = values["model"]["dims"][-1]
    need = output_count_need(loss, outputs)
    if need:
        raise ConfigError(
            f"[model] dims ends in {outputs} outputs, and this config's likelihood "
            f"([train] loss) is {loss}, which needs {need}"
        )
    for section in ("laplace", "eval"):
        if loss == "categorical_ce" and values[section]["method"] == "probit_linearized":
            raise ConfigError(
                f"[{section}] method = probit_linearized supports binary "
                "(single-logit) or regression models only, and this config's "
                "likelihood is categorical_ce; use mc"
            )
    if loss == "gaussian_nll" and laplace["tune_objective"] == "ood_mmc":
        raise ConfigError(
            "[laplace] tune_objective = ood_mmc scores class probabilities, and "
            "this config's likelihood ([train] loss) is gaussian_nll; use "
            "val_log_likelihood"
        )
    return ExperimentConfig(values)


def _default_raw() -> dict:
    return {
        section: {key: entry[0] for key, entry in keys.items()}
        for section, keys in SCHEMA.items()
    }


def default_config() -> ExperimentConfig:
    return _convert(_default_raw())


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI file and convert every key against the schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    raw = _default_raw()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = value
    return _convert(raw)


def reference_text() -> str:
    """The fully-commented defaults file."""
    out = io.StringIO()
    out.write("; lula-lab experiment configuration reference.\n")
    out.write("; Every key is shown with its default value.\n")
    for section, keys in SCHEMA.items():
        out.write(f"\n[{section}]\n")
        for key, (default, _, comment) in keys.items():
            out.write(f"; {comment}\n")
            out.write(f"{key} = {default}\n")
    return out.getvalue()


def main(argv=None) -> int:  # pragma: no cover - exercised via CLI tests
    args = sys.argv[1:] if argv is None else argv
    text = reference_text()
    if args:
        with open(args[0], "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
