import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lula_lab import cli, demo
from lula_lab import laplace as laplace_mod
from lula_lab import lula as lula_mod
from lula_lab import training as training_mod
from lula_lab.config import (
    ORDERED_PAIRS,
    PRIOR_PRECISION_FLOOR,
    SCHEMA,
    default_config,
    load_config,
    reference_text,
)
from lula_lab.data import UNIFORM_BOX, Dataset, SplitSpec, split
from lula_lab.errors import ConfigError
from lula_lab.metrics import auroc, brier, mmc
from lula_lab.network import ACTIVATIONS, Network, forward, load, save
from lula_lab.numerics import Rng, _mix64
from lula_lab.training import softmax


TINY_INI = """
[data]
generator = two_moons
size = 120
noise_std = 0.12
seed = 0

[model]
dims = 2,16,16,2

[train]
epochs = 30
batch_size = 32
weight_decay = 0.001
seed = 1

[laplace]
prior_precision = 1.0
sample_count = 50

[lula]
counts = 6
epochs = 3
ood_size = 80

[eval]
ood_kinds = permute,uniform
runs = 2
sample_count = 50
"""


# A small regression model for eval: toy data, a 1,12,1 net and two runs.
REGRESSION_INI = """
[data]
generator = toy_regression
size = 100
noise_std = 0.15
standardize = true
standardize_targets = true
seed = 3

[model]
dims = 1,12,1

[train]
epochs = 120
batch_size = 0
learning_rate = 0.01
weight_decay = 0.001
noise_precision = 25.0
seed = 4

[laplace]
prior_precision = 0.001

[eval]
ood_kinds = uniform
runs = 2
sample_count = 40
"""


UNKNOWN_WORD = "no_such_word"

# (section, key, value) triples that each make a config invalid.
MALFORMED = [
    ("lula", "counts", "abc"),
    ("lula", "counts", "0,32"),
    ("lula", "epochs", "-1"),
    ("lula", "grid", "a,b"),
    ("lula", "counts", "grid"),
    ("lula", "sample_count", "30"),
    ("laplace", "sample_count", "0"),
    ("laplace", "lambda_grid", "logspace:1:2"),
    ("laplace", "prior_precision", "abc"),
    ("laplace", "prior_precision", "-1"),
    ("laplace", "lambda_grid", "-1,1"),
    ("laplace", "subset", "all_layers"),
    ("train", "epochs", "-3"),
    ("train", "learning_rate", "-1"),
    ("data", "header", "maybe"),
    ("data", "split", "0.5,0.5,0.5"),
    ("eval", "ood_kinds", "foo"),
    ("eval", "grid_size", "abc"),
    ("eval", "runs", "0"),
    ("demo", "moons_lula_units", "abc"),
    ("demo", "reg_lula_units", "-1"),
    ("demo", "reg_size", "2"),
    ("demo", "moons_size", "2"),
    ("demo", "moons_train_epochs", "-1"),
    ("lula", "ood_size", "0"),
    ("lula", "ood_low", "20"),
    ("lula", "ood_high", "-10"),
    ("data", "x_low", "4"),
    ("data", "x_high", "nan"),
    ("data", "noise_std", "-0.1"),
    ("demo", "moons_noise", "-1"),
    ("demo", "reg_noise", "-0.5"),
    ("eval", "grid_size", "0"),
    ("eval", "grid_size", "-2"),
    ("train", "noise_precision", "0"),
    ("data", "size", "1"),
    ("model", "dims", "2,0,2"),
    ("eval", "ring_inner", "20"),
    ("eval", "grid_extent", "-1"),
    # non-finite floats and the ranges of init_std and far_field
    ("train", "learning_rate", "nan"),
    ("train", "weight_decay", "nan"),
    ("lula", "learning_rate", "inf"),
    ("lula", "init_std", "-1"),
    ("lula", "init_std", "0"),
    ("eval", "far_field", "nan"),
    ("eval", "far_field", "0"),
    ("laplace", "prior_precision", "inf"),
    ("laplace", "lambda_grid", "1,inf"),
    # the prior N(0, I / lambda) is proper only for a positive lambda
    ("laplace", "prior_precision", "0"),
    ("laplace", "lambda_grid", "0,1"),
    ("laplace", "lambda_grid", "logspace:0:400:3"),
    ("laplace", "lambda_grid", "logspace:-400:0:3"),
    # ... and has a finite variance 1 / lambda: 1e-310 is positive but
    # subnormal, and its reciprocal overflows
    ("laplace", "prior_precision", "1e-310"),
    ("laplace", "lambda_grid", "1e-310,1"),
    ("laplace", "lambda_grid", "logspace:-309:0:3"),
    # ... and is at least 1e-100, so that LULA's (1 / lambda)**2 terms stay
    # finite
    ("laplace", "prior_precision", "1e-155"),
    ("laplace", "lambda_grid", "logspace:-155:0:3"),
    # the regression demo's far field must hold grid points, and the
    # classification demo's ring is a set of radii
    ("eval", "far_field", "20"),
    ("eval", "ring_inner", "-5"),
    # the default likelihood is categorical: two_moons under loss = auto
    ("laplace", "method", "probit_linearized"),
    ("eval", "method", "probit_linearized"),
    # ... and needs k >= 2 outputs; binary_ce needs exactly 1, not the default 2
    ("model", "dims", "2,8,1"),
    ("train", "loss", "binary_ce"),
    # ... and so does gaussian_nll: every data source gives one target column
    ("train", "loss", "gaussian_nll"),
    # each OOD kind names one scored set
    ("eval", "ood_kinds", "uniform,uniform"),
    # ... and blur filters 3 features, where two_moons makes 2
    ("eval", "ood_kinds", "blur"),
    ("eval", "ood_kinds", "uniform,blur"),
    # LULA reads whole sets: its batch sizes are unknown keys
    ("lula", "in_batch", "0"),
    ("lula", "out_batch", "-3"),
    # every MAP fit steps with Adam: the optimizer and its momentum are
    # unknown keys, refused whatever their value, including each value
    # their former range and word checks refused
    ("train", "optimizer", "adam"),
    ("train", "optimizer", UNKNOWN_WORD),
    ("train", "momentum", "0.9"),
    ("train", "momentum", "1.5"),
    ("train", "momentum", "-1"),
    ("train", "momentum", "nan"),
    ("train", "momentum", "inf"),
    # a split whose train part holds no row of the default 500: a zero
    # fraction, and one that rounds down to zero rows
    ("data", "split", "0,0.5,0.5"),
    ("data", "split", "0.001,0.5,0.499"),
]


def _float_keys() -> list[tuple[str, str]]:
    """(section, key) of every key whose parser reads "0.5" as a float."""
    keys = []
    for section, entries in SCHEMA.items():
        for key, (_, parse, _) in entries.items():
            try:
                value = parse("0.5")
            except ValueError:
                continue
            if isinstance(value, float):
                keys.append((section, key))
    return keys


# nan and inf for every float key, beside the hand-written rows above
NON_FINITE = [
    (section, key, value)
    for section, key in _float_keys()
    for value in ("nan", "inf")
    if (section, key, value) not in MALFORMED
]


def _word_keys() -> list[tuple[str, str]]:
    """(section, key) of every key whose parser reads words of a fixed set
    and refuses ``UNKNOWN_WORD`` as none of them."""
    keys = []
    for section, entries in SCHEMA.items():
        for key, (_, parse, _) in entries.items():
            try:
                parse(UNKNOWN_WORD)
            except ValueError as exc:
                if "is not one of" in str(exc):
                    keys.append((section, key))
    return keys


# an unknown word for every such key, beside the hand-written rows above
UNKNOWN_WORDS = [
    (section, key, UNKNOWN_WORD)
    for section, key in _word_keys()
    if (section, key, UNKNOWN_WORD) not in MALFORMED
]


# a parser's message for a number outside its key's range
RANGE_MESSAGE = re.compile(r"expected (an integer >=|a positive|a nonnegative)")


def _range_rows() -> list[tuple[str, str, str]]:
    """(section, key, value) for every key whose parser refuses a number as
    outside its range, the value the largest of 2, 1, 0 and -1 it refuses
    so: the number just below the range for every integer bound up to 3
    and for a positive float, and -1 for a nonnegative one."""
    rows = []
    for section, entries in SCHEMA.items():
        for key, (_, parse, _) in entries.items():
            for value in ("2", "1", "0", "-1"):
                try:
                    parse(value)
                except ValueError as exc:
                    if RANGE_MESSAGE.search(str(exc)):
                        rows.append((section, key, value))
                        break
    return rows


# one out-of-range value for every ranged key, beside the hand-written rows
OUT_OF_RANGE = [row for row in _range_rows() if row not in MALFORMED]


# for every ordered pair, its low key set to its high key's default: the
# boundary of the strict < rule, which the hand-written rows only pass
AT_BOUNDARY = [
    (section, low, SCHEMA[section][high][0]) for section, low, high in ORDERED_PAIRS
]


# Rungs, lowest first, on which a numeric key's least accepted value is
# sought: the least float and the least int64 for a key the schema leaves
# unbounded, then zero, the least positive float, the prior-precision floor
# and the integer floors.
LEAST_LADDER = (
    "-1.7976931348623157e308", str(-(2**63)), "0", "5e-324",
    repr(PRIOR_PRECISION_FLOOR), "1", "2", "3",
)


def _least_accepted(parse):
    """The lowest rung of LEAST_LADDER that ``parse`` accepts, or None when
    it reads that rung as a boolean or a string, not as a number."""
    for raw in LEAST_LADDER:
        try:
            value = parse(raw)
        except ValueError:
            continue
        return None if isinstance(value, (bool, str)) else raw
    return None


def _extremes() -> list[tuple[str, str, str]]:
    """(section, key, value) for every numeric key at its least accepted
    value, and for the low key of each ordered pair also at its greatest:
    the float next to the other key's default, on the accepted side."""
    rows = [
        (section, key, raw)
        for section, entries in SCHEMA.items()
        for key, (_, parse, _) in entries.items()
        if (raw := _least_accepted(parse)) is not None
    ]
    edges = {}
    for section, low, high in ORDERED_PAIRS:
        low_default = float(SCHEMA[section][low][0])
        high_default = float(SCHEMA[section][high][0])
        edges[section, high] = repr(float(np.nextafter(low_default, np.inf)))
        rows.append(
            (section, low, repr(float(np.nextafter(high_default, -np.inf))))
        )
    return [(s, k, edges.get((s, k), raw)) for s, k, raw in rows]


# every numeric key at an extreme accepted value, one key at a time
EXTREMES = _extremes()


# A tiny config that every command runs in milliseconds, the base of the
# extreme-value sweep: few rows and units, one epoch, run and draw.
SWEEP_SECTIONS = {
    "data": {"size": "24"},
    "model": {"dims": "2,4,2"},
    "train": {"epochs": "1", "batch_size": "0"},
    "laplace": {"lambda_grid": "1", "sample_count": "2"},
    "lula": {"counts": "2", "epochs": "1", "ood_size": "4"},
    "eval": {"ood_kinds": "uniform", "runs": "1", "sample_count": "2",
             "grid_size": "2"},
    "demo": {"moons_size": "24", "moons_train_epochs": "1",
             "moons_lula_units": "2", "moons_lula_epochs": "1",
             "reg_size": "12", "reg_train_epochs": "1", "reg_lula_units": "2",
             "reg_lula_epochs": "1"},
}


def _sweep_ini(section=None, key=None, value=None) -> str:
    """SWEEP_SECTIONS as INI text, with ``[section] key`` set to ``value``."""
    sections = {name: dict(keys) for name, keys in SWEEP_SECTIONS.items()}
    if section is not None:
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )


# LULA reads whole sets, every MAP fit steps with Adam, every uniform
# outlier set is drawn from data.UNIFORM_BOX, and every prior-precision
# search maximizes the val log-likelihood, so their former batch sizes,
# optimizer, momentum, outlier box and tuning objective are unknown keys
REMOVED_KEYS = [
    ("lula", "in_batch"),
    ("lula", "out_batch"),
    ("train", "optimizer"),
    ("train", "momentum"),
    ("lula", "ood_low"),
    ("lula", "ood_high"),
    ("laplace", "tune_objective"),
]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


class TestConfig:
    def test_defaults_cover_schema(self):
        cfg = default_config()
        for section, keys in SCHEMA.items():
            assert set(cfg[section]) == set(keys)
        assert cfg["model"]["dims"] == (2, 64, 64, 2)
        assert cfg["data"]["header"] is True
        assert cfg["lula"]["counts"] == 32
        assert cfg["eval"]["ood_kinds"] == ("uniform", "asymptotic")

    def test_special_forms_parse_to_typed_values(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[data]\ntarget_column = 3\nheader = false\n"
            "[train]\nbatch_size = 0\n"
            "[laplace]\nprior_precision = 0.5\n"
            "[lula]\ninit_std = 0.2\n"
        )
        cfg = load_config(str(path))
        assert cfg["data"]["target_column"] == 3
        assert cfg["train"]["batch_size"] is None
        assert cfg["laplace"]["prior_precision"] == 0.5
        assert cfg["lula"]["init_std"] == 0.2
        defaults = default_config()
        assert defaults["laplace"]["prior_precision"] is None
        assert defaults["lula"]["init_std"] is None
        assert defaults["data"]["target_column"] == ""

    @pytest.mark.parametrize("section,key", [("train", "lerning_rate")] + REMOVED_KEYS)
    def test_unknown_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sampler]\nx = 1\n")
        with pytest.raises(ConfigError, match="sampler"):
            load_config(str(path))

    def test_lambda_grid_logspace(self):
        grid = default_config()["laplace"]["lambda_grid"]
        assert len(grid) == 17
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e4)

    def test_lambda_grid_list(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[laplace]\nlambda_grid = 0.5,2.0\n")
        assert load_config(str(path))["laplace"]["lambda_grid"] == (0.5, 2.0)

    def test_lambda_grid_malformed(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[laplace]\nlambda_grid = logspace:1:2\n")
        with pytest.raises(ConfigError, match=r"\[laplace\] lambda_grid"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "grid", ["logspace:0:400:3", "logspace:-400:0:3", "logspace:-309:0:3"]
    )
    def test_lambda_grid_logspace_beyond_float64_is_refused_quietly(
        self, tmp_path, grid
    ):
        # 10**400 overflows to inf, 10**-400 underflows to 0, and 1 / 10**-309
        # overflows to inf: each is refused by name, with no numpy
        # floating-point warning
        path = tmp_path / "c.ini"
        path.write_text(f"[laplace]\nlambda_grid = {grid}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"\[laplace\] lambda_grid.*finite"):
                load_config(str(path))

    @pytest.mark.parametrize(
        "key,value,parsed",
        [
            ("prior_precision", "1e-100", 1e-100),
            ("lambda_grid", "1e-100,1", (1e-100, 1.0)),
            ("lambda_grid", "logspace:-100:0:3", (1e-100, 1e-50, 1.0)),
        ],
    )
    def test_prior_precision_floor_is_accepted(self, tmp_path, key, value, parsed):
        path = tmp_path / "c.ini"
        path.write_text(f"[laplace]\n{key} = {value}\n")
        assert load_config(str(path))["laplace"][key] == parsed

    def test_float_keys_cover_every_float_parser(self):
        # the generated non-finite rows reach each float-valued key
        keys = _float_keys()
        assert ("laplace", "prior_precision") in keys and ("lula", "init_std") in keys
        assert ("laplace", "lambda_grid") not in keys and ("data", "size") not in keys

    def test_word_keys_cover_every_choice(self):
        # the generated unknown-word rows reach each key of config._choice,
        # whose comment lists the choices as "a | b", and [eval] ood_kinds
        choices = {
            (section, key)
            for section, entries in SCHEMA.items()
            for key, (_, _, comment) in entries.items()
            if " | " in comment
        }
        assert len(choices) == 8
        assert set(_word_keys()) == choices | {("eval", "ood_kinds")}

    def test_range_rows_cover_every_ranged_key(self):
        # the stage settings that their dataclasses once checked alone are
        # refused at load, each just outside its range
        rows = _range_rows()
        for row in [("train", "learning_rate", "0"), ("train", "epochs", "-1"),
                    ("train", "weight_decay", "-1"), ("lula", "learning_rate", "0"),
                    ("lula", "epochs", "-1"), ("data", "size", "1"),
                    ("demo", "moons_size", "2"), ("model", "dims", "0"),
                    ("eval", "sample_count", "0")]:
            assert row in rows
        assert not any(section == "data" and key in ("x_low", "seed")
                       for section, key, _ in rows)
        assert ("train", "weight_decay", "-1") in OUT_OF_RANGE
        assert ("lula", "learning_rate", "0") in OUT_OF_RANGE

    def test_boundary_rows_cover_every_ordered_pair(self, tmp_path):
        # one row per pair, each refused by the strict < rule and no other
        assert len(ORDERED_PAIRS) == 3
        assert [row[:2] for row in AT_BOUNDARY] == [pair[:2] for pair in ORDERED_PAIRS]
        for (section, low, value), (_, _, high) in zip(AT_BOUNDARY, ORDERED_PAIRS):
            config = tmp_path / "edge.ini"
            config.write_text(f"[{section}]\n{low} = {value}\n")
            message = rf"^\[{section}\] {low} must be below {high}$"
            with pytest.raises(ConfigError, match=message):
                load_config(str(config))

    def test_reference_text_states_every_range(self):
        # python -m lula_lab.config prints each ranged key's range
        ranged = {(section, key) for section, key, _ in _range_rows()}
        for section, key in ranged:
            comment = SCHEMA[section][key][2]
            assert re.search(r">=? -?\d|positive", comment), (section, key)

    def test_reference_text_lists_every_key(self):
        text = reference_text()
        for section, keys in SCHEMA.items():
            assert f"[{section}]" in text
            for key, (default, _, _) in keys.items():
                assert f"{key} = {default}" in text
        assert " | ".join(ACTIVATIONS) in text

    @pytest.mark.parametrize(
        "body,rejected",
        [
            ("[model]\ndims = 2,8,1\n[train]\nloss = binary_ce\n", False),
            ("[model]\ndims = 1,8,1\n[data]\ngenerator = toy_regression\n", False),
            # a csv target under loss = auto is only known at run time
            ("[model]\ndims = 2,8,1\n"
             "[data]\ngenerator = csv\ncsv_path = d.csv\ntarget_column = y\n", False),
            ("[data]\ngenerator = csv\ncsv_path = d.csv\ntarget_column = y\n"
             "[train]\nloss = categorical_ce\n", True),
            ("[train]\nloss = categorical_ce\n", True),
        ],
    )
    @pytest.mark.parametrize("section", ["laplace", "eval"])
    def test_probit_needs_a_non_categorical_likelihood(
        self, tmp_path, body, rejected, section
    ):
        path = tmp_path / "c.ini"
        path.write_text(body + f"[{section}]\nmethod = probit_linearized\n")
        if rejected:
            with pytest.raises(ConfigError, match=rf"\[{section}\] method"):
                load_config(str(path))
        else:
            assert load_config(str(path))[section]["method"] == "probit_linearized"

    @pytest.mark.parametrize(
        "body,rejected",
        [
            ("[model]\ndims = 2,8,2\n", False),
            ("[model]\ndims = 2,8,3\n", False),
            ("[model]\ndims = 2,8,1\n", True),
            ("[model]\ndims = 2,8,1\n[train]\nloss = categorical_ce\n", True),
            ("[model]\ndims = 2,8,1\n[train]\nloss = binary_ce\n", False),
            ("[model]\ndims = 2,8,2\n[train]\nloss = binary_ce\n", True),
            ("[model]\ndims = 1,8,1\n[data]\ngenerator = toy_regression\n", False),
            # load_csv reads a csv target as a regression target under auto
            ("[model]\ndims = 2,8,1\n[data]\ngenerator = csv\ncsv_path = d.csv\n"
             "target_column = y\n", False),
            # every data source gives one target column, which a Gaussian
            # likelihood reads through exactly one output
            ("[train]\nloss = gaussian_nll\n", True),
            ("[model]\ndims = 2,8,1\n[train]\nloss = gaussian_nll\n", False),
            ("[model]\ndims = 1,8,2\n[data]\ngenerator = toy_regression\n", True),
            ("[model]\ndims = 2,8,3\n[data]\ngenerator = csv\ncsv_path = d.csv\n"
             "target_column = y\n", True),
            ("[model]\ndims = 2,8,2\n[data]\ngenerator = csv\ncsv_path = d.csv\n"
             "target_column = y\n[train]\nloss = gaussian_nll\n", True),
        ],
    )
    def test_output_count_fits_the_likelihood(self, tmp_path, body, rejected):
        path = tmp_path / "c.ini"
        path.write_text(body)
        if rejected:
            with pytest.raises(
                ConfigError, match=r"\[model\] dims ends in \d outputs.*\[train\] loss"
            ):
                load_config(str(path))
        else:
            load_config(str(path))

    @pytest.mark.parametrize(
        "dims,loss,rejected",
        [
            ("1,8,1", "auto", False),
            ("1,8,1", "gaussian_nll", False),
            ("1,8,2", "categorical_ce", True),
            ("1,8,1", "binary_ce", True),
        ],
    )
    def test_toy_regression_needs_a_gaussian_likelihood(
        self, tmp_path, dims, loss, rejected
    ):
        # its targets are sin(2x) plus noise, not class labels
        path = tmp_path / "c.ini"
        path.write_text(
            f"[data]\ngenerator = toy_regression\n[model]\ndims = {dims}\n"
            f"[train]\nloss = {loss}\n"
        )
        if rejected:
            with pytest.raises(
                ConfigError, match=rf"toy_regression .*\[train\] loss = {loss}"
            ):
                load_config(str(path))
        else:
            assert load_config(str(path))["data"]["generator"] == "toy_regression"

    @pytest.mark.parametrize(
        "kinds,repeated",
        [("uniform,uniform", "'uniform'"),
         ("blur,uniform,blur,permute,permute", "'blur', 'permute'")],
    )
    def test_repeated_ood_kind_is_named(self, tmp_path, kinds, repeated):
        path = tmp_path / "c.ini"
        path.write_text(f"[eval]\nood_kinds = {kinds}\n")
        with pytest.raises(ConfigError, match=rf"\[eval\] ood_kinds: repeats {repeated}"):
            load_config(str(path))

    def test_master_seed_override(self):
        cfg = default_config()
        derived = cfg.with_master_seed(42)
        assert derived["data"]["seed"] != cfg["data"]["seed"]
        assert isinstance(derived["data"]["seed"], int)
        # deterministic derivation
        again = cfg.with_master_seed(42)
        assert derived["train"]["seed"] == again["train"]["seed"]


def test_csv_rows_match_per_value_formatting(tmp_path):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                1e300, -1.5e-7, 1.0 / 3.0, 123456789012.5, 7.0]
    rows = [
        (i, f"set{i % 3}", np.float64(v), float(-v), np.float64(v) * 3.0)
        for i, v in enumerate(specials)
    ]
    rows += [(i, "rng", *Rng(i).standard_normal(3)) for i in range(50)]
    header = ["index", "name", "a", "b", "c"]
    path = tmp_path / "rows.csv"
    cli._write_csv(str(path), header, rows)
    # the per-value formatter the row format replaced
    expected = [",".join(header)] + [
        ",".join("{:.10g}".format(float(v)) if isinstance(v, float) else str(v)
                 for v in row)
        for row in rows
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


class TestCliCommands:
    def test_train_laplace_lula_eval_pipeline(self, tiny_config, tmp_path, capsys):
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", tiny_config, "--out", model]) == 0
        assert os.path.exists(model)
        assert os.path.exists(str(tmp_path / "model_history.csv"))
        load(model)  # parses back

        assert cli.main(["laplace", "--config", tiny_config, "--model", model]) == 0
        meta = (tmp_path / "model_laplace.txt").read_text()
        assert "prior_precision" in meta and "grid_point" in meta

        tuned = str(tmp_path / "tuned.txt")
        before = set(os.listdir(tmp_path))
        assert cli.main(
            ["lula", "--config", tiny_config, "--model", model, "--out", tuned]
        ) == 0
        out = capsys.readouterr().out
        assert "output-preservation" in out
        # the tuned model file holds the free block: no other record of it
        written = set(os.listdir(tmp_path)) - before
        assert written == {"tuned.txt", "tuned_history.csv", "tuned_laplace.txt"}
        assert f"wrote {tuned}, {tmp_path / 'tuned'}_history.csv, " in out

        evaldir = str(tmp_path / "eval")
        assert cli.main(
            ["eval", "--config", tiny_config, "--model", tuned, "--out", evaldir]
        ) == 0
        report = (tmp_path / "eval" / "eval_report.csv").read_text()
        assert "mmc" in report and "auroc" in report and "brier" in report
        confs = (tmp_path / "eval" / "eval_confidences.csv").read_text().splitlines()
        assert confs[0] == "dataset,index,confidence"
        assert len(confs) > 10

    def test_eval_collapsed_posterior_matches_map(
        self, tmp_path, capsys, sample_calls, predictive_draws
    ):
        ini = TINY_INI.replace("prior_precision = 1.0", "prior_precision = 1e12")
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        evaldir = str(tmp_path / "eval")
        assert cli.main(
            ["eval", "--config", str(config), "--model", model, "--out", evaldir]
        ) == 0
        summary = {}
        for line in (tmp_path / "eval" / "eval_summary.txt").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and (
                parts[0].endswith(".mean") or parts[0].endswith(".std")
            ):
                summary[parts[0]] = float(parts[1])
        cfg = load_config(str(config))
        net = load(model)
        train, val, test, loss = cli._build_data(cfg, net.output_dim)
        map_mmc = mmc(softmax(forward(net, test.features).output))
        assert abs(summary["test.mmc.mean"] - map_mmc) <= 1e-3
        # one draw per run, shared by the test split and both OOD sets
        assert predictive_draws == [(50, 2), (50, 2)]
        assert sample_calls == []

    @pytest.mark.parametrize("runs", [1, 3])
    def test_all_layers_eval_sweeps_each_set_once(self, runs, tmp_path, monkeypatch):
        # the fit is in data space (n r < d = 354), so one factor sweep for
        # the fit and one per point set (test and two OOD sets), whatever
        # the number of runs, and no Jacobian rows at all
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "prior_precision = 1.0",
            "prior_precision = 1.0\ncurvature = full_ggn\nsubset = all_layers",
        ).replace("runs = 2", f"runs = {runs}"))
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        calls = {"jacobian_factors": [], "_write_rows": []}
        for name, found in calls.items():
            original = getattr(laplace_mod, name)

            def counting(*args, _found=found, _original=original, **kwargs):
                _found.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(laplace_mod, name, counting)
        argv = ["eval", "--config", str(config), "--model", model,
                "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 0
        assert len(calls["jacobian_factors"]) == 1 + 3
        assert calls["_write_rows"] == []

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_curvature was called")

        monkeypatch.setattr(laplace_mod, "fit_curvature", refuse)

    def test_fixed_prior_precision_laplace_fits_nothing(self, tmp_path, no_fit):
        # the file holds only the given prior precision, so no curvature is fit
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI)
        model = tmp_path / "model.txt"
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), str(model))
        assert cli.main(["laplace", "--config", str(config), "--model", str(model)]) == 0
        digest = hashlib.sha256(model.read_bytes()).hexdigest()
        assert (tmp_path / "model_laplace.txt").read_text() == "\n".join([
            "lula-lab-posterior v2",
            f"model_sha256 {digest}",
            "curvature kfac_last_layer",
            "subset last_layer",
            "prior_precision 1",
            "objective val_log_likelihood",
            "grid_point 1 nan",
        ]) + "\n"

    def test_fixed_prior_precision_laplace_keeps_fit_refusals(
        self, tmp_path, capsys, monkeypatch, no_fit
    ):
        # a model of another input width, and a full GGN over the cap (from
        # the shapes: 72 train rows of one row each, 354 parameters), exit 2
        # without a fit, naming the model file
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "prior_precision = 1.0",
            "prior_precision = 1.0\ncurvature = full_ggn\nsubset = all_layers",
        ))
        model = tmp_path / "model.txt"
        save(Network.init_random([3, 16, 16, 2], "relu", Rng(0)), str(model))
        argv = ["laplace", "--config", str(config), "--model", str(model)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{model}: input batch must have 3 columns" in err
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), str(model))
        monkeypatch.setattr(laplace_mod, "FULL_GGN_CAP", 159)  # 159**2 < 72 * 354
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{model}: full_ggn array of 72 x 354 floats exceeds cap" in err
        monkeypatch.setattr(laplace_mod, "FULL_GGN_CAP", 160)
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("prior", ["1.0", "tune"])
    @pytest.mark.parametrize("command", ["laplace", "lula", "eval"])
    def test_model_of_another_input_width_exits_2_before_work(
        self, command, prior, tmp_path, capsys, monkeypatch
    ):
        # a 3-input model on two_moons' 2 features: each command refused it
        # with exit 1 once it reached the curvature fit or the search
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the model was checked")

        for name in ("fit_curvature", "tune_prior_precision"):
            monkeypatch.setattr(laplace_mod, name, no_work)
        monkeypatch.setattr(lula_mod, "train_lula", no_work)
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "prior_precision = 1.0", f"prior_precision = {prior}"
        ))
        model = tmp_path / "model.txt"
        save(Network.init_random([3, 16, 16, 2], "relu", Rng(0)), str(model))
        before = sorted(os.listdir(tmp_path))
        argv = [command, "--config", str(config), "--model", str(model),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {model}: input batch must have 3 columns" in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["laplace", "lula", "eval"])
    def test_tuning_on_an_empty_val_split_exits_2_before_the_fit(
        self, command, tmp_path, capsys, no_fit
    ):
        # every candidate would score an empty sum, so the search would pick
        # the grid's first value
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "prior_precision = 1.0", "prior_precision = tune"
        ).replace("noise_std = 0.12", "noise_std = 0.12\nsplit = 0.8,0.0,0.2"))
        model = tmp_path / "model.txt"
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), str(model))
        before = sorted(os.listdir(tmp_path))
        argv = [command, "--config", str(config), "--model", str(model),
                "--out", str(tmp_path / "out.txt")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "[data] split" in err and "[laplace] prior_precision" in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_eval_on_an_empty_test_split_exits_2_before_the_fit(
        self, tmp_path, capsys, no_fit
    ):
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "noise_std = 0.12", "noise_std = 0.12\nsplit = 0.8,0.2,0.0"
        ))
        model = tmp_path / "model.txt"
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), str(model))
        out = tmp_path / "eval"
        argv = ["eval", "--config", str(config), "--model", str(model),
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert "[data] split" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[train]\nbogus_key = 1\n")
        code = cli.main(
            ["train", "--config", str(config), "--out", str(tmp_path / "m.txt")]
        )
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["laplace", "lula", "eval"])
    def test_malformed_prior_precision_exits_2(self, command, tmp_path, capsys):
        ini = TINY_INI.replace("prior_precision = 1.0", "prior_precision = abc")
        config = tmp_path / "bad.ini"
        config.write_text(ini)
        model = str(tmp_path / "model.txt")
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), model)
        code = cli.main(
            [command, "--config", str(config), "--model", model,
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "prior_precision" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval", "demo-toy"])
    @pytest.mark.parametrize(
        "body",
        [
            "[train]\nloss = gaussian_nll\n",
            "[data]\ngenerator = toy_regression\n[model]\ndims = 1,8,2\n"
            "[train]\nloss = categorical_ce\n",
        ],
    )
    def test_likelihood_the_data_cannot_fit_exits_2_before_work(
        self, body, command, tmp_path, capsys, monkeypatch
    ):
        # each loaded and then failed in train, where the targets did not fit
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was validated")

        monkeypatch.setattr(cli, "_build_data", no_work)
        monkeypatch.setattr(demo, "train_map", no_work)
        config = tmp_path / "bad.ini"
        config.write_text(body)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command in ("laplace", "lula", "eval"):
            argv += ["--model", str(tmp_path / "model.txt")]
        assert cli.main(argv) == 2
        assert "[train] loss" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval", "demo-toy"])
    @pytest.mark.parametrize(
        "section,key,value",
        MALFORMED + NON_FINITE + UNKNOWN_WORDS + OUT_OF_RANGE + AT_BOUNDARY,
    )
    def test_malformed_key_exits_2_before_work(
        self, section, key, value, command, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was validated")

        monkeypatch.setattr(cli, "_build_data", no_work)
        monkeypatch.setattr(training_mod, "train_map", no_work)
        monkeypatch.setattr(demo, "train_map", no_work)
        config = tmp_path / "bad.ini"
        config.write_text(f"[{section}]\n{key} = {value}\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command in ("laplace", "lula", "eval"):
            argv += ["--model", str(tmp_path / "model.txt")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"[{section}]" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval", "demo-toy"])
    @pytest.mark.parametrize("section,key", REMOVED_KEYS)
    def test_removed_key_exits_2_as_unknown(
        self, section, key, command, tmp_path, capsys
    ):
        config = tmp_path / "old.ini"
        config.write_text(f"[{section}]\n{key} = 1\n")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command in ("laplace", "lula", "eval"):
            argv += ["--model", str(tmp_path / "model.txt")]
        assert cli.main(argv) == 2
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval", "demo-toy"])
    def test_zero_sample_count_under_probit_exits_2_before_work(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # probit_linearized draws nothing, but demo-toy always predicts
        # with mc draws of [eval] sample_count, so the range holds for every
        # method
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was validated")

        monkeypatch.setattr(cli, "_build_data", no_work)
        monkeypatch.setattr(training_mod, "train_map", no_work)
        monkeypatch.setattr(demo, "train_map", no_work)
        config = tmp_path / "bad.ini"
        config.write_text(REGRESSION_INI.replace(
            "sample_count = 40", "method = probit_linearized\nsample_count = 0"
        ))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command in ("laplace", "lula", "eval"):
            argv += ["--model", str(tmp_path / "model.txt")]
        assert cli.main(argv) == 2
        assert "[eval] sample_count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["permute", "contrast"])
    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval", "demo-toy"])
    def test_toy_regression_too_narrow_for_ood_kind_exits_2_before_work(
        self, command, kind, tmp_path, capsys, monkeypatch
    ):
        # on toy_regression's one feature either kind would return the test
        # split itself
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the config was validated")

        monkeypatch.setattr(cli, "_build_data", no_work)
        monkeypatch.setattr(training_mod, "train_map", no_work)
        monkeypatch.setattr(demo, "train_map", no_work)
        config = tmp_path / "bad.ini"
        config.write_text(REGRESSION_INI.replace(
            "ood_kinds = uniform", f"ood_kinds = uniform,{kind}"
        ))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command in ("laplace", "lula", "eval"):
            argv += ["--model", str(tmp_path / "model.txt")]
        assert cli.main(argv) == 2
        assert (
            f"[eval] ood_kinds: {kind} needs at least 2 features, and [data] "
            "generator = toy_regression makes 1"
        ) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["laplace", "lula", "eval"])
    def test_non_finite_model_value_exits_1_at_load(
        self, command, value, tiny_config, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the model was read")

        model = tmp_path / "model.txt"
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), str(model))
        lines = model.read_text().splitlines()
        row = lines.index("W 2 16") + 2  # the second output row, 1-based
        cells = lines[row - 1].split()
        cells[3] = value
        lines[row - 1] = " ".join(cells)
        model.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "_build_data", no_work)
        argv = [command, "--config", tiny_config, "--model", str(model),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{model}, line {row}: layer 2 W holds a non-finite value" in err

    def test_train_reruns_byte_identical(self, tiny_config, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        assert cli.main(["train", "--config", tiny_config, "--out", a]) == 0
        assert cli.main(["train", "--config", tiny_config, "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert (
            (tmp_path / "a_history.csv").read_bytes()
            == (tmp_path / "b_history.csv").read_bytes()
        )

    def test_missing_model_exits_1(self, tiny_config, tmp_path, capsys):
        code = cli.main(
            ["eval", "--config", tiny_config, "--model", str(tmp_path / "nope.txt")]
        )
        assert code == 1

    def test_csv_header_wider_than_rows_exits_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c\n1,0\n2,1\n3,0\n")
        config = tmp_path / "c.ini"
        config.write_text(
            f"[data]\ngenerator = csv\ncsv_path = {data}\ntarget_column = c\n"
            "[model]\ndims = 2,8,1\n"
        )
        out = str(tmp_path / "m.txt")
        assert cli.main(["train", "--config", str(config), "--out", out]) == 1
        err = capsys.readouterr().err
        assert "header has 3 columns, first data row has 2 cells" in err

    def test_tuned_prior_precision_path(self, tmp_path, capsys):
        ini = TINY_INI.replace(
            "prior_precision = 1.0",
            "prior_precision = tune\nlambda_grid = logspace:-2:2:3",
        )
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        assert cli.main(["laplace", "--config", str(config), "--model", model]) == 0
        meta = (tmp_path / "model_laplace.txt").read_text()
        assert meta.count("grid_point") == 3

    def test_regression_eval_reports_stds(self, tmp_path, sample_calls, predictive_draws):
        ini = REGRESSION_INI
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        evaldir = str(tmp_path / "eval")
        assert cli.main(
            ["eval", "--config", str(config), "--model", model, "--out", evaldir]
        ) == 0
        report = (tmp_path / "eval" / "eval_report.csv").read_text()
        assert "mean_std" in report and "log_likelihood" in report
        # regression is exact: no draws, and every run gives the same numbers
        assert predictive_draws == [] and sample_calls == []
        rows = report.splitlines()[1:]
        assert rows and all(row.endswith(",0") for row in rows)

    @pytest.mark.parametrize("runs", [3, 10])
    def test_regression_eval_predicts_once(self, runs, tmp_path, monkeypatch):
        # the exact regression predictive is the same in every run, so eval
        # computes it once for all of them and reports each score as it is,
        # with std exactly 0; 10 is the [eval] runs default
        runs_line = "" if runs == 10 else f"runs = {runs}\n"
        ini = REGRESSION_INI.replace("runs = 2\n", runs_line)
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        calls = []
        original = laplace_mod.predict_linearized

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(laplace_mod, "predict_linearized", counting)
        evaldir = tmp_path / "eval"
        argv = ["eval", "--config", str(config), "--model", model, "--out", str(evaldir)]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        summary = (evaldir / "eval_summary.txt").read_text()
        assert f"runs {runs}" in summary
        stds = [line for line in summary.splitlines() if ".std " in line]
        assert stds and all(line.endswith(" 0") for line in stds)
        rows = (evaldir / "eval_report.csv").read_text().splitlines()[1:]
        assert rows and all(row.endswith(",0") for row in rows)
        # the means are the one run's scores
        config.write_text(REGRESSION_INI.replace("runs = 2", "runs = 1"))
        once = tmp_path / "once"
        assert cli.main(argv[:-1] + [str(once)]) == 0
        assert (once / "eval_report.csv").read_text().splitlines()[1:] == rows

    def test_lula_without_hidden_layer_exits_2_before_work(
        self, tmp_path, capsys, monkeypatch
    ):
        ini = TINY_INI.replace("dims = 2,16,16,2", "dims = 2,2").replace(
            "prior_precision = 1.0", "prior_precision = tune"
        )
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        def no_tuning(*args, **kwargs):
            raise AssertionError("the prior precision was tuned first")

        monkeypatch.setattr(laplace_mod, "tune_prior_precision", no_tuning)
        tuned = tmp_path / "tuned.txt"
        code = cli.main(
            ["lula", "--config", str(config), "--model", model, "--out", str(tuned)]
        )
        assert code == 2
        assert "no hidden layer" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.ini", "model.txt", "model_history.csv"]

    @pytest.mark.parametrize("init_std", [None, 0.2])
    def test_init_std_reaches_augment(self, init_std, tmp_path):
        # with no training epochs the tuned free block is augment's draw
        ini = TINY_INI.replace("dims = 2,16,16,2", "dims = 2,3,3,2").replace(
            "counts = 6", "counts = 2"
        ).replace("epochs = 3\n", "epochs = 0\n")
        if init_std is not None:
            ini = ini.replace("[lula]\n", f"[lula]\ninit_std = {init_std}\n")
        config = tmp_path / "cfg.ini"
        config.write_text(ini)
        cfg = load_config(str(config))
        assert (cfg["lula"]["epochs"], cfg["lula"]["init_std"]) == (0, init_std)
        net = Network.init_random([2, 3, 3, 2], "relu", Rng(0))
        model = str(tmp_path / "model.txt")
        save(net, model)
        tuned = str(tmp_path / "tuned.txt")
        assert cli.main(
            ["lula", "--config", str(config), "--model", model, "--out", tuned]
        ) == 0
        expected = lula_mod.augment(
            net, 2, Rng(_mix64(cfg["lula"]["seed"], 23)), init_std
        )
        written = load(tuned)
        assert np.array_equal(written.weights[-2][-2:], expected.weights[-2][-2:])
        assert np.array_equal(written.biases[-2][-2:], expected.biases[-2][-2:])

    @pytest.mark.parametrize("curvature, subset", [
        ("kfac_last_layer", "last_layer"),
        ("full_ggn", "last_layer"),  # parameter space: 72 rows, d = 34
        ("full_ggn", "all_layers"),  # data space: 72 rows, d = 354
        ("diag_ggn", "all_layers"),
    ])
    def test_prior_precision_floor_runs_through_every_curvature(
        self, curvature, subset, tmp_path
    ):
        # at the floor every null direction of the curvature carries the
        # prior variance 1 / lambda = 1e100 alone; eval, and for the
        # Kronecker kind lula and eval of the tuned model, run to the end
        # with no overflow warning and finite scores
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "prior_precision = 1.0",
            f"prior_precision = {PRIOR_PRECISION_FLOOR!r}\n"
            f"curvature = {curvature}\nsubset = {subset}",
        ))
        model = str(tmp_path / "model.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        models = [model]
        if curvature == "kfac_last_layer":
            models.append(str(tmp_path / "tuned.txt"))
            assert cli.main(["lula", "--config", str(config), "--model", model,
                             "--out", models[-1]]) == 0
        for i, path in enumerate(models):
            out = tmp_path / f"eval{i}"
            assert cli.main(["eval", "--config", str(config), "--model", path,
                             "--out", str(out)]) == 0
            rows = [line.split() for line in
                    (out / "eval_summary.txt").read_text().splitlines()]
            scores = [float(v) for key, v in rows if key.endswith((".mean", ".std"))]
            assert scores and np.all(np.isfinite(scores))


class TestExtremeValues:
    """Every accepted config value runs every command to the end, or exits
    2 with a config error; the suite turns an overflow warning into an
    error, which fails the run."""

    def _run_commands(self, tmp_path, capsys, ini: str) -> list[int]:
        """The exit codes of train, laplace, lula, eval of lula's model (or
        of train's when lula wrote none) and demo-toy, run in-process; a
        command whose model file was not written is not run."""
        config = tmp_path / "sweep.ini"
        config.write_text(ini)
        model, tuned = tmp_path / "model.txt", tmp_path / "tuned.txt"
        codes = []

        def run(command, *args):
            code = cli.main([command, "--config", str(config), *map(str, args)])
            err = capsys.readouterr().err
            assert code == 0 or (code == 2 and err.startswith("config error:")), (
                command, code, err
            )
            codes.append(code)

        run("train", "--out", model)
        if model.exists():
            run("laplace", "--model", model)
            run("lula", "--model", model, "--out", tuned)
            run("eval", "--model", tuned if tuned.exists() else model,
                "--out", tmp_path / "eval")
        run("demo-toy", "--out", tmp_path / "demo")
        return codes

    def test_the_sweep_config_runs_every_command(self, tmp_path, capsys):
        assert self._run_commands(tmp_path, capsys, _sweep_ini()) == [0] * 5

    def test_every_numeric_key_is_swept_at_an_edge(self, tmp_path):
        # a key that takes a number is swept, and one step past its value,
        # int or float, does not load: the value is the least (or
        # greatest) accepted, except for a seed, which takes any int
        numeric = set()
        for section, entries in SCHEMA.items():
            for key, (_, parse, _) in entries.items():
                try:
                    value = parse("1000")
                except ValueError:
                    continue
                if not isinstance(value, (bool, str)):
                    numeric.add((section, key))
        assert {row[:2] for row in EXTREMES} == numeric
        assert ("laplace", "prior_precision", repr(PRIOR_PRECISION_FLOOR)) in EXTREMES
        assert ("laplace", "lambda_grid", repr(PRIOR_PRECISION_FLOOR)) in EXTREMES
        config = tmp_path / "edge.ini"

        def loads(section, key, value) -> bool:
            config.write_text(_sweep_ini(section, key, value))
            try:
                load_config(str(config))
            except ConfigError:
                return False
            return True

        for section, key, value in EXTREMES:
            if value == LEAST_LADDER[1]:
                continue
            if isinstance(SCHEMA[section][key][1](value), (int, type(None))):
                steps = [str(int(value) + d) for d in (-1, 1)]
            else:
                with np.errstate(over="ignore"):  # past the least float is -inf
                    steps = [repr(float(np.nextafter(float(value), to)))
                             for to in (-np.inf, np.inf)]
            assert loads(section, key, value), (section, key, value)
            assert not all(loads(section, key, v) for v in steps), (section, key)

    @pytest.mark.parametrize("section, key, value", EXTREMES,
                             ids=[f"{s}.{k}={v}" for s, k, v in EXTREMES])
    def test_extreme_value_runs_to_the_end_or_exits_2(
        self, section, key, value, tmp_path, capsys
    ):
        self._run_commands(tmp_path, capsys, _sweep_ini(section, key, value))


def _eval_files(config_path: str, model_path: str):
    """The texts of eval_report.csv, eval_summary.txt and eval_confidences.csv
    (None for regression), rebuilt from library calls under a fixed prior
    precision."""
    cfg = load_config(config_path)
    la, ev = cfg["laplace"], cfg["eval"]
    net = load(model_path)
    train, _, test, loss = cli._build_data(cfg, net.output_dim)
    ood = cli._eval_ood_sets(cfg, test)
    curv = laplace_mod.fit_curvature(
        net, train.features, loss, la["curvature"], la["subset"]
    )
    post = laplace_mod.build_posterior(curv, la["prior_precision"])
    sets = [laplace_mod.linearize(net, curv, x) for x in (test.features, *ood.values())]
    values, confidences = {}, None
    for r in range(ev["runs"]):
        pcfg = laplace_mod.PredictConfig(
            ev["method"], ev["sample_count"], _mix64(ev["seed"], 1000 + r)
        )
        preds = laplace_mod.predict_linearized(post, sets, pcfg, loss)
        named = list(zip(["test", *ood], preds))
        run = {}
        if preds[0].probabilities is None:
            run["test.log_likelihood"] = laplace_mod.predictive_log_likelihood(
                preds[0], test.targets
            )
            for name, pred in named:
                var = pred.var_total if ev["report_std"] == "total" else pred.var_epistemic
                run[f"{name}.mean_std"] = np.mean(np.sqrt(var))
        else:
            conf = {name: pred.probabilities.max(axis=1) for name, pred in named}
            run["test.mmc"] = mmc(preds[0].probabilities)
            run["test.brier"] = brier(preds[0].probabilities, test.targets)
            for name, pred in named[1:]:
                run[f"{name}.mmc"] = mmc(pred.probabilities)
                run[f"{name}.auroc"] = auroc(conf["test"], conf[name])
            if r == 0:
                confidences = ["dataset,index,confidence"] + [
                    f"{name},{i},{v:.10g}" for name, c in conf.items() for i, v in enumerate(c)
                ]
        for key, value in run.items():
            values.setdefault(key, []).append(value)
    g = "{:.10g}".format
    report = ["dataset,metric,mean,std"]
    summary = [
        "lula-lab-eval v1",
        f"model {os.path.basename(model_path)}",
        f"prior_precision {g(la['prior_precision'])}",
        f"runs {ev['runs']}",
    ]
    for key in sorted(values):
        if len(set(values[key])) == 1:  # a repeated score, std exactly 0
            mean, std = values[key][0], 0.0
        else:
            mean, std = np.mean(values[key]), np.std(values[key])
        report.append(f"{key.replace('.', ',', 1)},{g(mean)},{g(std)}")
        summary += [f"{key}.mean {g(mean)}", f"{key}.std {g(std)}"]
    texts = [report, summary, confidences]
    return [None if t is None else "\n".join(t) + "\n" for t in texts]


# binary probit_linearized draws nothing either, so its runs repeat too
BINARY_PROBIT_INI = TINY_INI.replace("dims = 2,16,16,2", "dims = 2,16,16,1").replace(
    "[train]\n", "[train]\nloss = binary_ce\n"
).replace("runs = 2\n", "runs = 10\nmethod = probit_linearized\n")


@pytest.mark.parametrize(
    "ini,dims",
    [
        (TINY_INI, [2, 16, 16, 2]),
        (REGRESSION_INI, [1, 12, 1]),
        (BINARY_PROBIT_INI, [2, 16, 16, 1]),
    ],
    ids=["two-moons", "regression", "binary-probit"],
)
def test_eval_files_match_the_library(ini, dims, tmp_path):
    config = tmp_path / "cfg.ini"
    config.write_text(ini)
    model = tmp_path / "model.txt"
    save(Network.init_random(dims, "relu", Rng(0)), str(model))
    out = tmp_path / "eval"
    argv = ["eval", "--config", str(config), "--model", str(model), "--out", str(out)]
    assert cli.main(argv) == 0
    report, summary, confidences = _eval_files(str(config), str(model))
    assert (out / "eval_report.csv").read_bytes() == report.encode("ascii")
    assert (out / "eval_summary.txt").read_bytes() == summary.encode("ascii")
    if confidences is None:
        assert not (out / "eval_confidences.csv").exists()
    else:
        assert (out / "eval_confidences.csv").read_bytes() == confidences.encode("ascii")


CSV_INI = """
[data]
generator = csv
csv_path = {csv}
target_column = label

[model]
dims = 2,8,{outputs}

[train]
epochs = 2
loss = {loss}
"""


def _csv_argv(command, tmp_path, labels, loss="categorical_ce", outputs=3, cell=None):
    """(argv, csv path) for ``command`` on a 60-row csv of two features and
    ``labels``; ``cell`` = (row, column, text), both 0-based and the header
    not counted, overwrites one cell."""
    features = Rng(5).standard_normal((60, 2)).tolist()
    rows = [[repr(a), repr(b), str(y)] for (a, b), y in zip(features, labels)]
    if cell is not None:
        rows[cell[0]][cell[1]] = cell[2]
    csv = tmp_path / "d.csv"
    csv.write_text("x0,x1,label\n" + "\n".join(",".join(r) for r in rows) + "\n")
    config = tmp_path / "c.ini"
    config.write_text(CSV_INI.format(csv=csv, outputs=outputs, loss=loss))
    model = tmp_path / "model.txt"
    save(Network.init_random([2, 8, outputs], "relu", Rng(0)), str(model))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command != "train":
        argv += ["--model", str(model)]
    return argv, csv


class TestCsvInput:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the data was checked")

        monkeypatch.setattr(training_mod, "train_map", refuse)
        for name in ("fit_curvature", "tune_prior_precision"):
            monkeypatch.setattr(laplace_mod, name, refuse)
        monkeypatch.setattr(lula_mod, "train_lula", refuse)

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval"])
    def test_non_finite_cell_exits_1_before_work(
        self, command, tmp_path, capsys, no_work
    ):
        # a row that lands in val, where the prior-precision search reads it
        rows = Dataset(np.arange(60.0)[:, None], np.zeros((60, 1)))
        _, val, _ = split(rows, SplitSpec(seed=_mix64(0, 1)))
        row = int(val.features[0, 0])
        labels = [i % 3 for i in range(60)]
        argv, csv = _csv_argv(command, tmp_path, labels, cell=(row, 1, "nan"))
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {csv}: non-finite value nan at row {row + 2}, column 2" in err

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval"])
    @pytest.mark.parametrize(
        "loss,outputs,label,message",
        [
            ("categorical_ce", 3, "-1", "label -1.0 at row 9 is not an integer in [0, 3)"),
            ("categorical_ce", 3, "2.7", "label 2.7 at row 9 is not an integer in [0, 3)"),
            ("categorical_ce", 3, "7", "label 7.0 at row 9 is not an integer in [0, 3)"),
            ("categorical_ce", 3, "nan", "non-finite value nan at row 9, column 3"),
            ("binary_ce", 1, "2", "label 2.0 at row 9 is not an integer in [0, 2)"),
        ],
    )
    def test_bad_label_exits_1_before_work(
        self, command, loss, outputs, label, message, tmp_path, capsys, no_work
    ):
        labels = [i % 2 for i in range(60)]
        argv, csv = _csv_argv(command, tmp_path, labels, loss, outputs, cell=(7, 2, label))
        assert cli.main(argv) == 1
        assert f"error: {csv}: {message}" in capsys.readouterr().err

    def test_csv_too_narrow_for_ood_kind_exits_2_before_the_fit(
        self, tmp_path, capsys, no_work
    ):
        # a csv's width is known only once it is read
        argv, _ = _csv_argv("eval", tmp_path, [i % 3 for i in range(60)])
        config = Path(argv[2])
        config.write_text(config.read_text() + "\n[eval]\nood_kinds = uniform,blur\n")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "[eval] ood_kinds: blur needs at least 3 features, and the data has 2" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "laplace", "lula", "eval"])
    @pytest.mark.parametrize("fractions", ["0,0.5,0.5", "0.01,0.5,0.49"])
    def test_csv_with_no_train_rows_exits_2_before_work(
        self, command, fractions, tmp_path, capsys, no_work
    ):
        # a csv's row count is known only once it is read
        argv, csv = _csv_argv(command, tmp_path, [i % 3 for i in range(60)])
        config = Path(argv[2])
        config.write_text(config.read_text().replace(
            "target_column = label", f"target_column = label\nsplit = {fractions}"
        ))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"[data] split leaves no train rows of the 60 in {csv}" in err
        assert not (tmp_path / "out").exists()

    def test_integer_valued_labels_load_as_classes(self, tmp_path):
        labels = [f"{i % 3}.0" for i in range(60)]
        argv, _ = _csv_argv("train", tmp_path, labels)
        train, val, test, _ = cli._build_data(load_config(argv[2]), 3)
        targets = np.concatenate([train.targets, val.targets, test.targets])
        assert targets.dtype == np.int64 and set(targets.tolist()) == {0, 1, 2}


TUNE_INI = TINY_INI.replace(
    "prior_precision = 1.0",
    # no candidate prints exactly at 10 significant digits
    "prior_precision = tune\nlambda_grid = logspace:-1.5:2.5:5",
)


@pytest.fixture
def tune_calls(monkeypatch):
    """Every prior-precision search the CLI starts, as a list of grids."""
    calls = []
    original = laplace_mod.tune_prior_precision

    def counting(*args, **kwargs):
        calls.append(kwargs["grid"])
        return original(*args, **kwargs)

    monkeypatch.setattr(laplace_mod, "tune_prior_precision", counting)
    return calls


@pytest.fixture
def base_model(tmp_path):
    """(config, model) after ``laplace`` has written ``model_laplace.txt``."""
    config = tmp_path / "cfg.ini"
    config.write_text(TUNE_INI)
    model = tmp_path / "model.txt"
    save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), str(model))
    assert cli.main(["laplace", "--config", str(config), "--model", str(model)]) == 0
    return str(config), str(model)


def _kv(path) -> dict:
    return dict(line.split(" ", 1) for line in Path(path).read_text().splitlines()[1:])


class TestPosteriorSidecar:
    """``laplace`` picks the prior precision once; ``lula`` and ``eval`` read it."""

    def test_v2_format_reads_back_exactly(self, base_model, tmp_path, capsys):
        config, model = base_model
        assert cli.main(["laplace", "--config", config, "--model", model]) == 0
        text = (tmp_path / "model_laplace.txt").read_text().splitlines()
        assert text[0] == "lula-lab-posterior v2"
        values = _kv(tmp_path / "model_laplace.txt")
        digest = hashlib.sha256(Path(model).read_bytes()).hexdigest()
        assert values["model_sha256"] == digest
        assert (values["curvature"], values["subset"], values["objective"]) == (
            "kfac_last_layer", "last_layer", "val_log_likelihood"
        )
        lam = float(values["prior_precision"])
        assert values["prior_precision"] == format(lam, ".17g")
        assert lam in list(np.logspace(-1.5, 2.5, 5))  # the grid value, bit for bit
        assert sum(line.startswith("grid_point ") for line in text) == 5
        out = capsys.readouterr().out
        assert "searched 5 prior precisions" in out
        assert f"model_laplace.txt (prior precision {cli._fmt(lam)})" in out

    def test_lula_reading_the_file_matches_lula_searching(
        self, base_model, tmp_path, capsys, tune_calls
    ):
        config, model = base_model
        outputs = ("{}.txt", "{}_history.csv", "{}_laplace.txt")
        for name in ("read", "searched"):
            if name == "searched":
                os.remove(tmp_path / "model_laplace.txt")
            assert cli.main(
                ["lula", "--config", config, "--model", model,
                 "--out", str(tmp_path / f"{name}.txt")]
            ) == 0
            out = capsys.readouterr().out
            if name == "read":
                assert f"from {tmp_path / 'model_laplace.txt'}" in out
                assert tune_calls == []
            else:
                assert "searching the prior precision" in out
                assert len(tune_calls) == 1
        for pattern in outputs[:2]:
            assert (tmp_path / pattern.format("read")).read_bytes() == (
                tmp_path / pattern.format("searched")
            ).read_bytes()
        read, searched = (
            _kv(tmp_path / outputs[2].format(n)) for n in ("read", "searched")
        )
        assert read["prior_precision"] == searched["prior_precision"]
        assert read["model_sha256"] == searched["model_sha256"]

    def test_map_eval_same_with_and_without_the_file(
        self, base_model, tmp_path, tune_calls
    ):
        config, model = base_model
        for name in ("read", "searched"):
            if name == "searched":
                os.remove(tmp_path / "model_laplace.txt")
            assert cli.main(
                ["eval", "--config", config, "--model", model,
                 "--out", str(tmp_path / name)]
            ) == 0
        assert len(tune_calls) == 1
        for file in ("eval_report.csv", "eval_summary.txt", "eval_confidences.csv"):
            assert (tmp_path / "read" / file).read_bytes() == (
                tmp_path / "searched" / file
            ).read_bytes()

    def test_lula_model_eval_reports_the_base_precision(
        self, base_model, tmp_path, capsys, tune_calls
    ):
        config, model = base_model
        tuned = str(tmp_path / "tuned.txt")
        assert cli.main(
            ["lula", "--config", config, "--model", model, "--out", tuned]
        ) == 0
        assert cli.main(
            ["eval", "--config", config, "--model", tuned, "--out", str(tmp_path / "e")]
        ) == 0
        assert tune_calls == []  # one search per base model, made by laplace
        base = _kv(tmp_path / "model_laplace.txt")
        tuned_lam = _kv(tmp_path / "tuned_laplace.txt")["prior_precision"]
        assert tuned_lam == base["prior_precision"]
        lam = cli._fmt(float(base["prior_precision"]))
        assert _kv(tmp_path / "e" / "eval_summary.txt")["prior_precision"] == lam
        assert f"prior precision {lam} from {tmp_path / 'tuned_laplace.txt'}" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("command", ["lula", "eval"])
    @pytest.mark.parametrize(
        "key,old,new",
        [
            ("header", "lula-lab-posterior v2", "lula-lab-posterior v1"),
            ("model_sha256", None, None),
            ("curvature", "curvature kfac_last_layer", "curvature diagonal"),
            ("subset", "subset last_layer", "subset all_layers"),
            ("objective", "objective val_log_likelihood", "objective ood_mmc"),
        ],
    )
    def test_stale_file_exits_2_before_work(
        self, base_model, tmp_path, capsys, monkeypatch, command, key, old, new
    ):
        config, model = base_model
        sidecar = tmp_path / "model_laplace.txt"
        if old is None:  # the model was retrained after laplace ran
            save(Network.init_random([2, 16, 16, 2], "relu", Rng(1)), model)
        else:
            sidecar.write_text(sidecar.read_text().replace(old, new))

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the file was checked")

        monkeypatch.setattr(cli, "_build_data", no_work)
        for name in ("fit_curvature", "tune_prior_precision"):
            monkeypatch.setattr(laplace_mod, name, no_work)
        monkeypatch.setattr(lula_mod, "train_lula", no_work)
        out = str(tmp_path / "out")
        assert cli.main(
            [command, "--config", config, "--model", model, "--out", out]
        ) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and key in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["lula", "eval"])
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan", "1e-310", "1e-155"])
    def test_non_positive_prior_precision_in_the_file_exits_2_before_work(
        self, base_model, tmp_path, capsys, monkeypatch, command, value
    ):
        config, model = base_model
        sidecar = tmp_path / "model_laplace.txt"
        lines = sidecar.read_text().splitlines()
        row = next(i for i, x in enumerate(lines) if x.startswith("prior_precision "))
        lines[row] = f"prior_precision {value}"
        sidecar.write_text("\n".join(lines) + "\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the file was checked")

        monkeypatch.setattr(cli, "_build_data", no_work)
        for name in ("fit_curvature", "tune_prior_precision"):
            monkeypatch.setattr(laplace_mod, name, no_work)
        out = str(tmp_path / "out")
        assert cli.main(
            [command, "--config", config, "--model", model, "--out", out]
        ) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err
        assert f"prior_precision {value!r} is not a finite positive float" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["lula", "eval"])
    def test_prior_precision_floor_in_the_file_is_accepted(
        self, base_model, tmp_path, capsys, command
    ):
        config, model = base_model
        sidecar = tmp_path / "model_laplace.txt"
        lines = sidecar.read_text().splitlines()
        row = next(i for i, x in enumerate(lines) if x.startswith("prior_precision "))
        lines[row] = "prior_precision 1e-100"
        sidecar.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        assert cli.main(
            [command, "--config", config, "--model", model, "--out", out]
        ) == 0
        assert f"prior precision 1e-100 from {sidecar}" in capsys.readouterr().out

    def test_fixed_prior_precision_wins_over_the_file(self, base_model, tmp_path, capsys):
        config, model = base_model
        sidecar = tmp_path / "model_laplace.txt"
        sidecar.write_text("lula-lab-posterior v1\nprior_precision 5\n")
        fixed = tmp_path / "fixed.ini"
        fixed.write_text(TINY_INI)
        evaldir = tmp_path / "eval"
        assert cli.main(
            ["eval", "--config", str(fixed), "--model", model, "--out", str(evaldir)]
        ) == 0
        assert _kv(evaldir / "eval_summary.txt")["prior_precision"] == "1"
        out = capsys.readouterr().out
        assert "prior precision 1 from [laplace] prior_precision" in out


DEMO_INI = """
[demo]
moons_size = 80
moons_train_epochs = 15
moons_lula_units = 4
moons_lula_epochs = 2
reg_size = 60
reg_train_epochs = 40
reg_lula_units = 4
reg_lula_epochs = 2

[lula]
ood_size = 60

[eval]
grid_size = 8
sample_count = 20
"""


class TestDemoToy:
    def test_file_count_contract_and_determinism(
        self, tmp_path, capsys, sample_calls, predictive_draws
    ):
        config = tmp_path / "demo.ini"
        config.write_text(DEMO_INI)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            assert cli.main(
                ["demo-toy", "--config", str(config), "--out", str(out)]
            ) == 0
        names = sorted(os.listdir(out1))
        grids = [n for n in names if n.endswith(".csv")]
        assert len(grids) == 6
        assert "summary.txt" in names
        assert len(names) == 7
        for name in names:
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        # per run, one draw for each two-moons posterior; regression is exact
        assert predictive_draws == [(20, 2)] * 4
        assert sample_calls == []

    def test_runs_with_scipy_import_blocked(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter in which
        # importing scipy fails must import the CLI and run the demo.
        config = tmp_path / "demo.ini"
        config.write_text(DEMO_INI)
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lula_lab import cli\n"
            "loaded = sorted(name for name, mod in sys.modules.items()\n"
            "                if mod is not None and name.split('.')[0] == 'scipy')\n"
            "if loaded:\n"
            "    sys.exit(f'scipy loaded: {loaded}')\n"
            "sys.exit(cli.main(['demo-toy', '--config', sys.argv[1],\n"
            "                   '--out', sys.argv[2]]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_demo_without_config_uses_defaults(self):
        # parser accepts a missing --config for demo-toy (defaults kick in);
        # not executed here: criteria 7-8 already run its pipelines at the
        # default sizes, and criterion 9 runs the command end to end
        parser_args = ["demo-toy", "--out", "somewhere"]
        args = cli._build_parser().parse_args(parser_args)
        assert args.config is None


class TestModelFileAgainstTheConfig:
    """A model file is checked against ``[train] loss`` as ``[model] dims``
    is, and ``lula`` trains only through the Kronecker last-layer posterior."""

    @pytest.fixture
    def binary_model(self, tmp_path):
        """A 2,8,1 model trained under binary_ce."""
        config = tmp_path / "binary.ini"
        config.write_text(
            TINY_INI.replace("dims = 2,16,16,2", "dims = 2,8,1").replace(
                "weight_decay = 0.001\n", "weight_decay = 0.001\nloss = binary_ce\n"
            )
        )
        model = str(tmp_path / "binary.txt")
        assert cli.main(["train", "--config", str(config), "--out", model]) == 0
        return model

    @pytest.mark.parametrize("prior", ["tune", "0.5"])
    @pytest.mark.parametrize("command", ["laplace", "lula", "eval"])
    def test_output_count_the_likelihood_refuses_exits_2_before_data(
        self, binary_model, command, prior, tmp_path, capsys, monkeypatch
    ):
        # two_moons with loss = auto is categorical, which needs 2 outputs
        config = tmp_path / "auto.ini"
        config.write_text(
            TINY_INI.replace("prior_precision = 1.0", f"prior_precision = {prior}")
        )

        def no_data(*args, **kwargs):
            raise AssertionError("data was built before the model was checked")

        monkeypatch.setattr(cli, "_build_data", no_data)
        out = str(tmp_path / "out")
        argv = [command, "--config", str(config), "--model", binary_model, "--out", out]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert binary_model in err and "1 outputs" in err and "[train] loss" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["laplace", "lula", "eval"])
    def test_gaussian_likelihood_refuses_a_two_output_model(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # every data source gives one target column, which one output reads
        config = tmp_path / "gauss.ini"
        config.write_text(
            TINY_INI.replace("dims = 2,16,16,2", "dims = 2,16,16,1").replace(
                "weight_decay = 0.001\n", "weight_decay = 0.001\nloss = gaussian_nll\n"
            )
        )
        model = str(tmp_path / "two.txt")
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), model)

        def no_data(*args, **kwargs):
            raise AssertionError("data was built before the model was checked")

        monkeypatch.setattr(cli, "_build_data", no_data)
        out = str(tmp_path / "out")
        argv = [command, "--config", str(config), "--model", model, "--out", out]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert model in err and "2 outputs" in err and "gaussian_nll" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind, subset", [
        ("full_ggn", "last_layer"), ("full_ggn", "all_layers"),
        ("diag_ggn", "last_layer"), ("diag_ggn", "all_layers"),
        ("kfac_last_layer", "all_layers"),
    ])
    def test_lula_under_another_posterior_exits_2_before_work(
        self, kind, subset, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace(
            "[laplace]\n", f"[laplace]\ncurvature = {kind}\nsubset = {subset}\n"
        ))
        model = str(tmp_path / "model.txt")
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), model)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before [laplace] was checked")

        for name in ("_base_prior_precision", "_load_model", "_build_data"):
            monkeypatch.setattr(cli, name, no_work)
        for name in ("fit_curvature", "tune_prior_precision"):
            monkeypatch.setattr(laplace_mod, name, no_work)
        monkeypatch.setattr(lula_mod, "train_lula", no_work)
        out = tmp_path / "tuned.txt"
        argv = ["lula", "--config", str(config), "--model", model, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "[laplace] curvature" in capsys.readouterr().err
        assert not out.exists()

    def test_lula_trains_through_the_curvature_of_the_train_split(
        self, tmp_path, monkeypatch
    ):
        # the split eval fits the tuned net's posterior on
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI)
        model = str(tmp_path / "model.txt")
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), model)
        calls = []
        original = lula_mod.train_lula

        def recording(net, units, curv_features, *rest):
            calls.append(curv_features)
            return original(net, units, curv_features, *rest)

        monkeypatch.setattr(lula_mod, "train_lula", recording)
        out = str(tmp_path / "tuned.txt")
        assert cli.main(["lula", "--config", str(config), "--model", model,
                         "--out", out]) == 0
        train = cli._build_data(load_config(str(config)), 2)[0]
        assert len(calls) == 1 and np.array_equal(calls[0], train.features)

    def test_lula_trains_against_the_uniform_box(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI)
        model = str(tmp_path / "model.txt")
        save(Network.init_random([2, 16, 16, 2], "relu", Rng(0)), model)
        calls = []
        original = lula_mod.train_lula

        def recording(net, units, curv_features, in_features, out_features, *rest):
            calls.append(out_features)
            return original(net, units, curv_features, in_features, out_features, *rest)

        monkeypatch.setattr(lula_mod, "train_lula", recording)
        out = str(tmp_path / "tuned.txt")
        assert cli.main(["lula", "--config", str(config), "--model", model,
                         "--out", out]) == 0
        lu = load_config(str(config))["lula"]
        expected = Rng(_mix64(lu["seed"], 11)).uniform(
            *UNIFORM_BOX, (lu["ood_size"], 2)
        )
        assert len(calls) == 1
        assert calls[0].tobytes() == expected.tobytes()

    def test_lula_without_hidden_layer_reads_no_data(
        self, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "cfg.ini"
        config.write_text(TINY_INI.replace("dims = 2,16,16,2", "dims = 2,2"))
        model = str(tmp_path / "model.txt")
        save(Network.init_random([2, 2], "relu", Rng(0)), model)

        def no_work(*args, **kwargs):
            raise AssertionError("data was built before the model was checked")

        monkeypatch.setattr(cli, "_build_data", no_work)
        out = tmp_path / "tuned.txt"
        argv = ["lula", "--config", str(config), "--model", model, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "no hidden layer" in capsys.readouterr().err
        assert not out.exists()


def test_readme_names_only_schema_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = re.findall(r"`\[(\w+)\] (\w+)", readme.read_text(encoding="utf-8"))
    assert named
    unknown = sorted({(s, k) for s, k in named if k not in SCHEMA.get(s, {})})
    assert unknown == [], f"README.md names keys that are not in the schema: {unknown}"
