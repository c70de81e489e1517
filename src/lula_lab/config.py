"""Experiment configuration: INI-style files with strict key validation.

Every key has a documented default; unknown sections or keys are rejected.
``python -m lula_lab.config [path]`` writes the reference file with every
key, its default, and a one-line comment.
"""

from __future__ import annotations

import configparser
import io
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import _mix64

__all__ = ["ExperimentConfig", "load_config", "default_config", "reference_text"]


# section -> key -> (default, comment)
SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "data": {
        "generator": ("two_moons", "two_moons | toy_regression | csv"),
        "size": ("500", "number of generated points"),
        "noise_std": ("0.1", "generator noise standard deviation"),
        "x_low": ("-4.0", "toy_regression input range, lower end"),
        "x_high": ("4.0", "toy_regression input range, upper end"),
        "csv_path": ("", "input file for generator = csv"),
        "target_column": ("", "csv target column name or 0-based index"),
        "header": ("true", "csv has a header row"),
        "split": ("0.6,0.2,0.2", "train/val/test fractions, sum to 1"),
        "standardize": ("false", "standardize features with train stats"),
        "standardize_targets": ("false", "also standardize regression targets"),
        "seed": ("0", "generation and split seed"),
    },
    "model": {
        "dims": ("2,64,64,2", "layer sizes, input first, output last"),
        "activation": ("relu", "hidden activation: relu | selu | tanh | identity"),
    },
    "train": {
        "optimizer": ("adam", "adam | sgd"),
        "learning_rate": ("0.001", "step size"),
        "momentum": ("0.9", "sgd momentum"),
        "epochs": ("200", "passes over the training split"),
        "batch_size": ("64", "minibatch size; 0 for full batch"),
        "weight_decay": ("0.001", "prior precision used during training"),
        "loss": ("auto", "auto | gaussian_nll | categorical_ce | binary_ce"),
        "noise_precision": ("25.0", "Gaussian likelihood precision (beta)"),
        "seed": ("1", "shuffling and initialization seed"),
    },
    "laplace": {
        "curvature": ("kfac_last_layer", "full_ggn | diag_ggn | kfac_last_layer"),
        "subset": ("last_layer", "last_layer | all_layers"),
        "prior_precision": ("tune", "a float, or 'tune' to search the grid"),
        "tune_objective": (
            "val_log_likelihood",
            "val_log_likelihood | ood_mmc",
        ),
        "lambda_grid": (
            "logspace:-4:4:17",
            "logspace:lo:hi:count (base 10) or a comma list of values",
        ),
        "method": ("mc", "predictive used for tuning: mc | probit_linearized"),
        "sample_count": ("100", "posterior samples for the mc predictive"),
        "seed": ("2", "sampling seed"),
    },
    "lula": {
        "counts": (
            "32",
            "added units: an int (final hidden layer), a per-hidden-layer "
            "comma list, or 'grid' for a search",
        ),
        "grid": ("32,64,128,256,512", "candidate counts for counts = grid"),
        "learning_rate": ("0.05", "uncertainty-training step size"),
        "epochs": ("20", "uncertainty-training epochs"),
        "sample_count": ("30", "samples for the mc variance evaluator"),
        "variance_evaluator": ("linearized", "linearized | mc"),
        "in_batch": ("128", "inlier batch size per epoch"),
        "out_batch": ("128", "outlier batch size per epoch"),
        "init_std": ("default", "'default' (0.1 sqrt(2/fan_in)) or a float"),
        "ood_low": ("-10.0", "outlier box lower bound"),
        "ood_high": ("10.0", "outlier box upper bound"),
        "ood_size": ("500", "number of outlier training points"),
        "seed": ("3", "batching and initialization seed"),
    },
    "eval": {
        "ood_kinds": (
            "uniform,asymptotic",
            "comma list from permute, blur, contrast, uniform, asymptotic",
        ),
        "sample_count": ("100", "posterior samples per prediction run"),
        "runs": ("10", "prediction repetitions (mean and std reported)"),
        "method": ("mc", "mc | probit_linearized"),
        "report_std": ("epistemic", "regression std to report: epistemic | total"),
        "grid_size": ("60", "demo lattice resolution per axis"),
        "grid_extent": ("12.0", "demo lattice half width"),
        "ring_inner": ("8.0", "far-field ring inner radius (classification demo)"),
        "ring_outer": ("12.0", "far-field ring outer radius"),
        "far_field": ("6.0", "|x| above this is far field (regression demo)"),
        "seed": ("4", "evaluation seed"),
    },
    "demo": {
        "moons_size": ("600", "two-moons dataset size"),
        "moons_noise": ("0.15", "two-moons noise std"),
        "moons_train_epochs": ("200", "MAP epochs for the two-moons net"),
        "moons_lula_units": ("32", "added units for the two-moons stage"),
        "moons_lula_epochs": ("100", "uncertainty-training epochs, two-moons"),
        "reg_size": ("400", "toy regression dataset size"),
        "reg_noise": ("0.15", "toy regression noise std"),
        "reg_train_epochs": ("2000", "MAP epochs for the regression net"),
        "reg_lula_units": ("50", "added units for the regression stage"),
        "reg_lula_epochs": ("40", "uncertainty-training epochs, regression"),
        "seed": ("5", "demo seed"),
    },
}


def _parse_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a float, got {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected an integer, got {raw!r}"
        ) from None


def _parse_choice(section: str, key: str, raw: str, choices) -> str:
    value = raw.strip()
    if value not in choices:
        raise ConfigError(
            f"[{section}] {key}: {value!r} is not one of {', '.join(choices)}"
        )
    return value


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected comma-separated floats, got {raw!r}"
        ) from None


def _parse_int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected comma-separated integers, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; raw holds section -> key -> string."""

    raw: dict

    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def get_bool(self, section: str, key: str) -> bool:
        return _parse_bool(section, key, self.get(section, key))

    def get_float(self, section: str, key: str) -> float:
        return _parse_float(section, key, self.get(section, key))

    def get_int(self, section: str, key: str) -> int:
        return _parse_int(section, key, self.get(section, key))

    def get_choice(self, section: str, key: str, choices) -> str:
        return _parse_choice(section, key, self.get(section, key), choices)

    def get_float_list(self, section: str, key: str) -> tuple[float, ...]:
        return _parse_float_list(section, key, self.get(section, key))

    def get_int_list(self, section: str, key: str) -> tuple[int, ...]:
        return _parse_int_list(section, key, self.get(section, key))

    def lambda_grid(self) -> tuple[float, ...]:
        raw = self.get("laplace", "lambda_grid").strip()
        if raw.startswith("logspace:"):
            parts = raw.split(":")
            if len(parts) != 4:
                raise ConfigError(
                    "[laplace] lambda_grid: logspace form is logspace:lo:hi:count"
                )
            lo = _parse_float("laplace", "lambda_grid", parts[1])
            hi = _parse_float("laplace", "lambda_grid", parts[2])
            count = _parse_int("laplace", "lambda_grid", parts[3])
            if count < 1:
                raise ConfigError("[laplace] lambda_grid: count must be positive")
            return tuple(np.logspace(lo, hi, count))
        return _parse_float_list("laplace", "lambda_grid", raw)

    def with_master_seed(self, master: int) -> "ExperimentConfig":
        """Replace every section seed with one derived from ``master``."""
        raw = {s: dict(kv) for s, kv in self.raw.items()}
        for index, section in enumerate(sorted(raw)):
            if "seed" in raw[section]:
                raw[section]["seed"] = str(_mix64(int(master), index))
        return ExperimentConfig(raw)


def default_config() -> ExperimentConfig:
    raw = {
        section: {key: default for key, (default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    return ExperimentConfig(raw)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an INI file against the schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    raw = {
        section: {key: default for key, (default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = value
    return ExperimentConfig(raw)


def reference_text() -> str:
    """The fully-commented defaults file."""
    out = io.StringIO()
    out.write("; lula-lab experiment configuration reference.\n")
    out.write("; Every key is shown with its default value.\n")
    for section, keys in SCHEMA.items():
        out.write(f"\n[{section}]\n")
        for key, (default, comment) in keys.items():
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
