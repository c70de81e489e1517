"""Command-line driver: train, laplace, lula, eval, demo-toy.

Every command is deterministic given the config seeds; outputs are CSV and
key=value text so plotting stays external. Exit codes: 0 success, 1 runtime
or numeric failure, 2 configuration error, which includes a model file that
the data or the curvature fit cannot take.

At module level this file imports the standard library, numpy and
``errors``, and no other package module. Each command and helper imports
the package modules it uses when it runs. ``train`` loads ``cli``,
``config``, ``data``, ``errors``, ``network``, ``numerics`` and
``training``. Every other command adds ``laplace``, and ``eval``
``metrics`` as well, ``lula`` ``lula``, and ``demo-toy`` ``lula`` and
``demo``.

:func:`main` registers ``gc.freeze`` with ``atexit``, once per process, so
the collections CPython runs at exit skip the heap the process is about to
return. That is safe: CPython does not promise finalizers at exit, every
file this package writes is closed by ``with`` before ``main`` returns, and
stdio is flushed after the atexit handlers run.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, LulaLabError

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .network import Network
    from .training import LossKind

FLOAT_FMT = "{:.10g}"


def _fmt(value: float) -> str:
    return FLOAT_FMT.format(float(value))


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    """One line per row, each formatted by one ``%`` operation.

    The first row fixes the column formats: ``%.10g``, which prints what
    :func:`_fmt` does, where its value is a float (np.float64 included),
    and ``%s`` elsewhere.
    """
    lines = [",".join(header)]
    row_fmt = None
    for row in rows:
        if row_fmt is None:
            row_fmt = ",".join("%.10g" if isinstance(v, float) else "%s" for v in row)
        lines.append(row_fmt % tuple(row))
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# config -> pipeline pieces


def _resolve_loss(cfg: ExperimentConfig) -> LossKind:
    from .config import likelihood
    from .training import LossKind

    choice = likelihood(cfg)
    if choice == "gaussian_nll":
        return LossKind("gaussian_nll", cfg["train"]["noise_precision"])
    return LossKind(choice)


def _load_model(cfg: ExperimentConfig, model_path: str) -> Network:
    """The model file, refused with a config error when its output count
    does not suit the config's likelihood, as ``[model] dims`` is."""
    from .config import likelihood, output_count_need
    from .network import load

    net = load(model_path)
    loss = likelihood(cfg)
    need = output_count_need(loss, net.output_dim)
    if need:
        raise ConfigError(
            f"{model_path} has {net.output_dim} outputs, and this config's "
            f"likelihood ([train] loss) is {loss}, which needs {need}"
        )
    return net


def _csv_labels(targets: np.ndarray, classes: int, path: str, header: bool):
    """A csv target column as labels: each an integer in [0, classes), or a
    ``ValueError`` naming the file, the first bad row and its value."""
    from .training import read_targets

    try:
        return read_targets(targets.ravel(), targets.shape[:1], classes, 1 + int(header))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _build_data(cfg: ExperimentConfig, num_outputs: int):
    """Generate/ingest, split, and optionally standardize the dataset.

    A csv read under a classification loss must hold labels below
    ``num_outputs``, the network's output count (below 2 for binary_ce).
    A csv that leaves train no rows is a config error, raised right after
    the read (a generator's size is checked at load).
    """
    from . import data as data_mod
    from .numerics import _mix64

    d = cfg["data"]
    loss = _resolve_loss(cfg)
    spec = data_mod.SplitSpec(d["split"], seed=_mix64(d["seed"], 1))
    if d["generator"] == "two_moons":
        full = data_mod.gen_two_moons(d["size"], d["noise_std"], d["seed"])
    elif d["generator"] == "toy_regression":
        full = data_mod.gen_toy_regression(
            d["size"], (d["x_low"], d["x_high"]), d["noise_std"], d["seed"]
        )
    else:
        full = data_mod.load_csv(d["csv_path"], d["target_column"], d["header"])
        if spec.counts(full.num_rows)[0] == 0:
            raise ConfigError(
                f"[data] split leaves no train rows of the {full.num_rows} in "
                f"{d['csv_path']}; give train a larger fraction"
            )
        classes = loss.classes(num_outputs)
        if classes is not None:
            labels = _csv_labels(full.targets, classes, d["csv_path"], d["header"])
            full = data_mod.Dataset(full.features, labels)
    train, val, test = data_mod.split(full, spec)
    if d["standardize"]:
        # float targets are regression targets; labels are int64
        include_targets = d["standardize_targets"] and full.targets.dtype.kind == "f"
        train, (val, test) = data_mod.standardize(
            train, [val, test], include_targets=include_targets
        )
    return train, val, test, loss


def _init_network(cfg: ExperimentConfig, input_dim: int) -> Network:
    from .network import Network
    from .numerics import Rng, _mix64

    dims = cfg["model"]["dims"]
    if dims[0] != input_dim:
        raise ConfigError(
            f"[model] dims starts with {dims[0]} but the data has "
            f"{input_dim} features"
        )
    seed = _mix64(cfg["train"]["seed"], 99)
    return Network.init_random(
        list(dims), cfg["model"]["activation"], Rng(seed)
    )


def _check_fit(cfg: ExperimentConfig, model_path: str, net, train, loss) -> None:
    """The refusals of the ``[laplace]`` curvature fit on ``train``, from
    shapes alone (:func:`laplace.check_curvature_fit`), as a config error
    naming the model file: its input width does not fit the data's, or the
    full GGN of its parameters would exceed the cap."""
    from .laplace import check_curvature_fit

    la = cfg["laplace"]
    try:
        check_curvature_fit(net, train.features, loss, la["curvature"], la["subset"])
    except ValueError as exc:
        raise ConfigError(f"{model_path}: {exc}") from None


def _fit_laplace(
    cfg: ExperimentConfig, predict_cfg, net, train, val, loss, lam: float | None
):
    """Curvature on the train split; the prior precision ``lam``, or searched
    on val when it is None. Returns (curvature, lam, [(candidate, score)])."""
    from .laplace import fit_curvature, tune_prior_precision

    la = cfg["laplace"]
    if lam is None and val.num_rows == 0:
        raise ConfigError(
            "[data] split leaves no val rows, and [laplace] prior_precision = "
            "tune searches on val; give val a fraction or fix prior_precision"
        )
    curv = fit_curvature(net, train.features, loss, la["curvature"], la["subset"])
    if lam is None:
        lam, scores = tune_prior_precision(
            net,
            curv,
            val.features,
            val.targets,
            loss,
            grid=la["lambda_grid"],
            predict_cfg=predict_cfg,
        )
        print(f"searched {len(scores)} prior precisions on val: picked {_fmt(lam)}")
    else:
        scores = [(lam, float("nan"))]
    return curv, lam, scores


# ---------------------------------------------------------------------------
# sidecar files

POSTERIOR_HEADER = "lula-lab-posterior v2"
# the score every search maximizes; the line stays in format v2 so that a
# file searched under another objective by an older build is refused
POSTERIOR_OBJECTIVE = "val_log_likelihood"


def _posterior_path(model_path: str) -> str:
    """``<model>_laplace.txt``: the prior precision that belongs to a model file."""
    return os.path.splitext(model_path)[0] + "_laplace.txt"


def _sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _write_posterior(
    path: str, model_path: str, cfg: ExperimentConfig, lam: float, scores
) -> None:
    """Format v2: the prior precision of the model file ``model_path``.

    ``model_sha256`` ties it to that file's bytes; ``curvature`` and
    ``subset`` to the ``[laplace]`` settings it was picked under, and
    ``objective`` is always POSTERIOR_OBJECTIVE. The precision is written at
    17 significant digits, so it reads back exactly; each ``grid_point`` is
    a searched candidate and its score.
    """
    la = cfg["laplace"]
    lines = [
        POSTERIOR_HEADER,
        f"model_sha256 {_sha256(model_path)}",
        f"curvature {la['curvature']}",
        f"subset {la['subset']}",
        f"prior_precision {format(lam, '.17g')}",
        f"objective {POSTERIOR_OBJECTIVE}",
    ]
    lines += [f"grid_point {_fmt(cand)} {_fmt(score)}" for cand, score in scores]
    _write_lines(path, lines)


def _read_posterior(path: str, model_path: str, cfg: ExperimentConfig) -> float:
    """The prior precision of a v2 file written for ``model_path``.

    A file of another version, for other model bytes, picked under other
    ``[laplace]`` settings or another objective, or whose prior precision is
    not a finite float of at least ``numerics.PRIOR_PRECISION_FLOOR`` is a
    config error naming the file and the key.
    """
    from .numerics import PRIOR_PRECISION_FLOOR, proper_prior_precision

    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0] if lines else ""
    if header != POSTERIOR_HEADER:
        raise ConfigError(
            f"{path}: header {header!r} is not {POSTERIOR_HEADER!r}; rerun "
            "laplace or delete the file"
        )
    values = dict(line.split(" ", 1) for line in lines[1:] if " " in line)
    if values.get("model_sha256") != _sha256(model_path):
        raise ConfigError(
            f"{path}: model_sha256 does not match {model_path}, which changed "
            "after this prior precision was picked; rerun laplace"
        )
    for key in ("curvature", "subset"):
        want = cfg["laplace"][key]
        if values.get(key) != want:
            raise ConfigError(
                f"{path}: {key} {values.get(key)!r} differs from [laplace] "
                f"{key} = {want}; rerun laplace"
            )
    if values.get("objective") != POSTERIOR_OBJECTIVE:
        raise ConfigError(
            f"{path}: objective {values.get('objective')!r} is not "
            f"{POSTERIOR_OBJECTIVE}, the one the search scores; rerun laplace"
        )
    text = values.get("prior_precision", "")
    try:
        lam = float(text)
    except ValueError:
        lam = float("nan")
    if not proper_prior_precision(lam):
        raise ConfigError(
            f"{path}: prior_precision {text!r} is not a finite positive float "
            f">= {PRIOR_PRECISION_FLOOR:g}; rerun laplace"
        )
    return lam


def _base_prior_precision(cfg: ExperimentConfig, model_path: str) -> float | None:
    """The prior precision set by ``[laplace] prior_precision`` or read from
    the model's posterior file; None when neither holds one and the command
    must search. Says which on standard output."""
    lam = cfg["laplace"]["prior_precision"]
    if lam is not None:
        print(f"prior precision {_fmt(lam)} from [laplace] prior_precision")
        return lam
    path = _posterior_path(model_path)
    if not os.path.exists(path):
        print(f"no {path}: searching the prior precision")
        return None
    lam = _read_posterior(path, model_path, cfg)
    print(f"prior precision {_fmt(lam)} from {path}")
    return lam


# ---------------------------------------------------------------------------
# commands


def cmd_train(config_path: str, out_path: str, seed: int | None = None) -> int:
    from .network import save
    from .training import TrainConfig, train_map

    cfg = _load(config_path, seed)
    train_cfg = _stage(TrainConfig, cfg, "train")
    train, val, test, loss = _build_data(cfg, cfg["model"]["dims"][-1])
    net = _init_network(cfg, train.num_features)
    trained, history = train_map(
        net, train.features, train.targets, loss, train_cfg
    )
    save(trained, out_path)
    base = os.path.splitext(out_path)[0]
    _write_csv(
        base + "_history.csv",
        ["epoch", "map_loss"],
        [(i, float(v)) for i, v in enumerate(history)],
    )
    print(f"wrote {out_path} and {base}_history.csv")
    return 0


def cmd_laplace(
    config_path: str, model_path: str, out_path: str | None, seed: int | None = None
) -> int:
    from .laplace import PredictConfig

    cfg = _load(config_path, seed)
    laplace_cfg = _stage(PredictConfig, cfg, "laplace")
    net = _load_model(cfg, model_path)
    train, val, test, loss = _build_data(cfg, net.output_dim)
    _check_fit(cfg, model_path, net, train, loss)
    lam = cfg["laplace"]["prior_precision"]
    if lam is None:
        _, lam, scores = _fit_laplace(cfg, laplace_cfg, net, train, val, loss, None)
    else:
        # the file holds only the given lam, so no curvature is fit
        scores = [(lam, float("nan"))]
    out_path = out_path or _posterior_path(model_path)
    _write_posterior(out_path, model_path, cfg, lam, scores)
    print(f"wrote {out_path} (prior precision {_fmt(lam)})")
    return 0


def _prop1_check(original, augmented, extent: float, seed: int) -> float:
    """Max relative output difference over 100 fresh random inputs."""
    from .network import forward_output
    from .numerics import Rng

    rng = Rng(seed)
    x = rng.uniform(-extent, extent, (100, original.input_dim))
    a = forward_output(original, x)
    b = forward_output(augmented, x)
    scale = max(float(np.max(np.abs(a))), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


def cmd_lula(
    config_path: str, model_path: str, out_path: str, seed: int | None = None
) -> int:
    from .data import uniform_outliers
    from .laplace import PredictConfig
    from .lula import LulaTrainConfig, augment, train_lula
    from .network import save
    from .numerics import Rng, _mix64

    cfg = _load(config_path, seed)
    lcfg = _stage(LulaTrainConfig, cfg, "lula")
    laplace_cfg = _stage(PredictConfig, cfg, "laplace")
    lu, la = cfg["lula"], cfg["laplace"]
    if (la["curvature"], la["subset"]) != ("kfac_last_layer", "last_layer"):
        raise ConfigError(
            f"[laplace] curvature = {la['curvature']} and subset = {la['subset']}: "
            "lula trains its units through the kfac_last_layer posterior over "
            "the last_layer subset only"
        )
    lam = _base_prior_precision(cfg, model_path)
    net = _load_model(cfg, model_path)
    if net.num_layers < 2:
        raise ConfigError(
            f"{model_path} has no hidden layer to add uncertainty units to"
        )
    train, val, test, loss = _build_data(cfg, net.output_dim)
    _check_fit(cfg, model_path, net, train, loss)
    count = lu["counts"]
    lam_scores = []  # grid points, when this command searched
    if lam is None:
        _, lam, lam_scores = _fit_laplace(
            cfg, laplace_cfg, net, train, val, loss, None
        )
    in_features = val.features if val.num_rows else train.features
    out_features = uniform_outliers(
        lu["ood_size"], train.num_features, Rng(_mix64(lu["seed"], 11))
    )
    aug_net = augment(
        net, count, Rng(_mix64(lu["seed"], 23)), lu["init_std"]
    )
    # the curvature split of the posterior that eval builds for the tuned net
    tuned, history = train_lula(
        aug_net, count, train.features, in_features, out_features, loss, lam, lcfg
    )
    rel = _prop1_check(
        net, tuned, cfg["eval"]["grid_extent"], _mix64(lu["seed"], 17)
    )
    print(f"output-preservation check: max relative difference {rel:.3e}")
    if rel > 1e-12:
        print("output-preservation check FAILED", file=sys.stderr)
        return 1
    save(tuned, out_path)
    base = os.path.splitext(out_path)[0]
    _write_csv(
        base + "_history.csv",
        ["epoch", "objective"],
        [(i, float(v)) for i, v in enumerate(history)],
    )
    _write_posterior(_posterior_path(out_path), out_path, cfg, lam, lam_scores)
    print(
        f"wrote {out_path}, {base}_history.csv, "
        f"{_posterior_path(out_path)} (prior precision {_fmt(lam)})"
    )
    return 0


def _eval_ood_sets(cfg: ExperimentConfig, test):
    """Named OOD feature sets in the test split's shape, or a config error
    for a kind its rows are too narrow for (a csv's width is known late)."""
    from .data import ood_width_need, synthesize_ood
    from .numerics import Rng, _mix64

    need = ood_width_need(cfg["eval"]["ood_kinds"], test.num_features)
    if need:
        raise ConfigError(f"[eval] ood_kinds: {need}, and the data has {test.num_features}")
    return {
        kind: synthesize_ood(
            test.features, kind, Rng(_mix64(cfg["eval"]["seed"], 100 + i))
        )
        for i, kind in enumerate(cfg["eval"]["ood_kinds"])
    }


def _score_run(preds, names, targets, classification: bool, report_total: bool):
    """One eval run's metrics keyed ``<set>.<metric>``, and each set's
    confidence vector (an empty list for regression).

    ``preds`` are the predictives of the test split and then of the OOD
    sets ``names``; ``targets`` are the test split's. Classification scores
    test MMC and Brier, and each OOD set's MMC and its AUROC against the
    test confidences. Regression scores each set's mean predictive std
    (total or epistemic) and the test log-likelihood.
    """
    from .laplace import predictive_log_likelihood
    from .metrics import auroc, brier, mmc

    pred_test, *pred_ood = preds
    if not classification:
        scores = {"test.log_likelihood": predictive_log_likelihood(pred_test, targets)}
        for name, pred in zip(("test", *names), preds):
            var = pred.var_total if report_total else pred.var_epistemic
            scores[f"{name}.mean_std"] = float(np.mean(np.sqrt(var)))
        return scores, []
    confidences = [pred.probabilities.max(axis=1) for pred in preds]
    scores = {
        "test.mmc": mmc(pred_test.probabilities),
        "test.brier": brier(pred_test.probabilities, targets),
    }
    for name, pred, conf in zip(names, pred_ood, confidences[1:]):
        scores[f"{name}.mmc"] = mmc(pred.probabilities)
        scores[f"{name}.auroc"] = auroc(confidences[0], conf)
    return scores, confidences


def cmd_eval(
    config_path: str, model_path: str, out_dir: str, seed: int | None = None
) -> int:
    from .laplace import PredictConfig, build_posterior, linearize, predict_linearized
    from .numerics import _mix64

    cfg = _load(config_path, seed)
    laplace_cfg = _stage(PredictConfig, cfg, "laplace")
    eval_cfg = _stage(PredictConfig, cfg, "eval")
    lam = _base_prior_precision(cfg, model_path)
    net = _load_model(cfg, model_path)
    train, val, test, loss = _build_data(cfg, net.output_dim)
    _check_fit(cfg, model_path, net, train, loss)
    if test.num_rows == 0:
        raise ConfigError("[data] split leaves no test rows for eval to score")
    ood_sets = _eval_ood_sets(cfg, test)
    curv, lam, _ = _fit_laplace(cfg, laplace_cfg, net, train, val, loss, lam)
    post = build_posterior(curv, lam)
    runs = cfg["eval"]["runs"]
    classification = loss.kind in ("categorical_ce", "binary_ce")

    # every run reads the same linearized point sets: one Jacobian sweep each
    sets = [linearize(net, curv, x) for x in (test.features, *ood_sets.values())]
    if classification:
        run_preds = (
            predict_linearized(
                post, sets, eval_cfg._replace(seed=_mix64(eval_cfg.seed, 1000 + r)), loss
            )
            for r in range(runs)
        )
    else:
        # the regression predictive is exact and draws nothing, so every run
        # reads the one computed here
        run_preds = [predict_linearized(post, sets, eval_cfg, loss)] * runs
    names = list(ood_sets)
    report_total = cfg["eval"]["report_std"] == "total"
    scored = [
        _score_run(preds, names, test.targets, classification, report_total)
        for preds in run_preds
    ]

    os.makedirs(out_dir, exist_ok=True)
    if classification:
        _write_csv(
            os.path.join(out_dir, "eval_confidences.csv"),
            ["dataset", "index", "confidence"],
            [
                (name, i, value)
                for name, conf in zip(("test", *names), scored[0][1])
                for i, value in enumerate(conf.tolist())
            ],
        )
    rows = []
    summary = [
        "lula-lab-eval v1",
        f"model {os.path.basename(model_path)}",
        f"prior_precision {_fmt(lam)}",
        f"runs {runs}",
    ]
    for name in sorted(scored[0][0]):
        values = np.array([scores[name] for scores, _ in scored])
        dataset, metric = name.split(".", 1)
        # runs that repeat one value (every regression run) report it with
        # std exactly 0; the mean and std of copies are off by round-off
        if np.all(values == values[0]):
            mean, std = float(values[0]), 0.0
        else:
            mean, std = float(values.mean()), float(values.std())
        rows.append((dataset, metric, mean, std))
        summary.append(f"{name}.mean {_fmt(mean)}")
        summary.append(f"{name}.std {_fmt(std)}")
    _write_csv(
        os.path.join(out_dir, "eval_report.csv"),
        ["dataset", "metric", "mean", "std"],
        rows,
    )
    _write_lines(os.path.join(out_dir, "eval_summary.txt"), summary)
    print(f"wrote {out_dir}/eval_report.csv and {out_dir}/eval_summary.txt")
    return 0


# ---------------------------------------------------------------------------
# demo-toy: the MAP -> LA -> LA+LULA comparison on both toy tasks


def _demo_moons(cfg: ExperimentConfig, out_dir: str, summary: list[str]) -> None:
    from . import demo as demo_mod
    from .laplace import PredictConfig, mc_predict_sets
    from .network import forward_output
    from .numerics import Rng, _mix64
    from .training import softmax

    demo = cfg["demo"]
    seed = demo["seed"]
    net, tuned, post_la, post_lula, test, loss = demo_mod.moons(
        demo["moons_size"],
        demo["moons_noise"],
        demo["moons_train_epochs"],
        demo["moons_lula_units"],
        demo["moons_lula_epochs"],
        cfg["lula"]["ood_size"],
        demo_mod.Seeds(*(_mix64(seed, i) for i in (1, 2, 3, 4, 6, 8))),
    )

    extent = cfg["eval"]["grid_extent"]
    grid_n = cfg["eval"]["grid_size"]
    axis = np.linspace(-extent, extent, grid_n)
    xx, yy = np.meshgrid(axis, axis)
    lattice = np.stack([xx.ravel(), yy.ravel()], axis=1)

    # far-field ring beside the lattice and the test split
    ring_rng = Rng(_mix64(seed, 10))
    radius = ring_rng.uniform(
        cfg["eval"]["ring_inner"], cfg["eval"]["ring_outer"], 400
    )
    angle = ring_rng.uniform(0.0, 2.0 * np.pi, 400)
    ring = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    point_sets = [lattice, ring, test.features]

    pcfg = PredictConfig("mc", cfg["eval"]["sample_count"], _mix64(seed, 9))

    def probabilities(network, post):
        preds = mc_predict_sets(network, post, point_sets, pcfg, loss)
        return [pred.probabilities for pred in preds]

    stage_probs = {
        "map": [softmax(forward_output(net, x)) for x in point_sets],
        "laplace": probabilities(net, post_la),
        "lula": probabilities(tuned, post_lula),
    }
    for stage, (probs, probs_ring, probs_test) in stage_probs.items():
        _write_csv(
            os.path.join(out_dir, f"moons_{stage}.csv"),
            ["x1", "x2", "p0", "p1", "confidence"],
            np.column_stack((lattice, probs, probs.max(axis=1))).tolist(),
        )
        conf_ring = probs_ring.max(axis=1).mean()
        conf_test = probs_test.max(axis=1).mean()
        summary.append(f"moons.{stage}.ring_confidence {_fmt(conf_ring)}")
        summary.append(f"moons.{stage}.test_confidence {_fmt(conf_test)}")
    map_labels = forward_output(net, test.features).argmax(axis=1)
    lula_labels = forward_output(tuned, test.features).argmax(axis=1)
    summary.append(
        f"moons.label_agreement {_fmt(float(np.mean(map_labels == lula_labels)))}"
    )
    summary.append(f"moons.prior_precision {_fmt(post_la.prior_precision)}")


def _demo_regression(cfg: ExperimentConfig, out_dir: str, summary: list[str]) -> None:
    from . import demo as demo_mod
    from .laplace import PredictConfig, mc_predict_sets
    from .network import forward_output
    from .numerics import _mix64

    demo = cfg["demo"]
    seed = demo["seed"]
    net, tuned, post_la, post_lula, test, loss = demo_mod.regression(
        demo["reg_size"],
        demo["reg_noise"],
        cfg["train"]["noise_precision"],
        demo["reg_train_epochs"],
        demo["reg_lula_units"],
        demo["reg_lula_epochs"],
        cfg["lula"]["ood_size"],
        demo_mod.Seeds(*(_mix64(seed, i) for i in (21, 22, 23, 24, 26, 28))),
    )

    extent = cfg["eval"]["grid_extent"]
    grid_n = cfg["eval"]["grid_size"]
    grid = np.linspace(-extent, extent, grid_n * 10).reshape(-1, 1)
    pcfg = PredictConfig("mc", cfg["eval"]["sample_count"], _mix64(seed, 29))
    aleatoric = 1.0 / loss.noise_precision
    report_total = cfg["eval"]["report_std"] == "total"

    def stage_rows(network, post, xs):
        """(mean, epistemic std, total std) for each point set in xs."""
        if post is None:
            means = [forward_output(network, x) for x in xs]
            return [
                (m, np.zeros_like(m), np.full_like(m, np.sqrt(aleatoric)))
                for m in means
            ]
        return [
            (pred.mean, np.sqrt(pred.var_epistemic), np.sqrt(pred.var_total))
            for pred in mc_predict_sets(network, post, xs, pcfg, loss)
        ]

    for stage, (network, post) in {
        "map": (net, None),
        "laplace": (net, post_la),
        "lula": (tuned, post_lula),
    }.items():
        (mean, std_e, std_t), (_, test_e, test_t) = stage_rows(
            network, post, [grid, test.features]
        )
        _write_csv(
            os.path.join(out_dir, f"regression_{stage}.csv"),
            ["x", "mean", "std_epistemic", "std_total"],
            np.column_stack((grid, mean, std_e, std_t)).tolist(),
        )
        std_report = std_t if report_total else std_e
        far = np.abs(grid[:, 0]) >= cfg["eval"]["far_field"]
        summary.append(
            f"regression.{stage}.far_field_std {_fmt(std_report[far, 0].mean())}"
        )
        test_report = test_t if report_total else test_e
        summary.append(
            f"regression.{stage}.test_std {_fmt(float(test_report.mean()))}"
        )
    summary.append(f"regression.prior_precision {_fmt(post_la.prior_precision)}")


def cmd_demo_toy(config_path: str | None, out_dir: str, seed: int | None = None) -> int:
    cfg = _load(config_path, seed)
    os.makedirs(out_dir, exist_ok=True)
    summary: list[str] = ["lula-lab-demo v1"]
    _demo_moons(cfg, out_dir, summary)
    _demo_regression(cfg, out_dir, summary)
    _write_lines(os.path.join(out_dir, "summary.txt"), summary)
    print(f"wrote 6 grid files and summary.txt in {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def _stage(cls, cfg: ExperimentConfig, section: str):
    """``cls`` built from the keys of ``[section]`` named like its fields;
    every field has a key."""
    values = cfg[section]
    try:
        return cls(**{name: values[name] for name in cls._fields})
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _load(config_path: str | None, seed: int | None) -> ExperimentConfig:
    """The typed config of ``config_path`` (the defaults when None), its
    section seeds derived from ``seed`` when one is given.

    Loading checks every key of every section, so a bad file exits 2 in
    every command before any data is built. Each command then builds only
    the stage settings it uses (``_stage``); their range rules are ones
    that ``config.SCHEMA`` already checks at load.
    """
    from .config import default_config, load_config

    cfg = load_config(config_path) if config_path else default_config()
    if seed is not None:
        cfg = cfg.with_master_seed(seed)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lula-lab",
        description=(
            "Train a network, wrap it in a Laplace approximation, and tune "
            "its uncertainty with inactive hidden units."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, out=None, config_required=True):
        p.add_argument(
            "--config",
            required=config_required,
            default=None,
            help="experiment config (INI); see python -m lula_lab.config",
        )
        if model:
            p.add_argument("--model", required=True, help="model file path")
        if out:
            p.add_argument("--out", required=out == "required", default=None, help="output path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    common(sub.add_parser("train", help="MAP-train a network"), out="required")
    common(
        sub.add_parser("laplace", help="fit and tune a Laplace posterior"),
        model=True,
        out="optional",
    )
    common(
        sub.add_parser("lula", help="augment and train uncertainty units"),
        model=True,
        out="required",
    )
    common(
        sub.add_parser("eval", help="confidence metrics on test and OOD sets"),
        model=True,
        out="optional",
    )
    demo = sub.add_parser("demo-toy", help="MAP/LA/LA+LULA toy comparison")
    common(demo, out="required", config_required=False)
    return parser


@functools.cache
def _skip_exit_collections() -> None:
    """Have ``gc.freeze`` run at interpreter exit, registered once however
    often :func:`main` runs in one process.

    The frozen heap is out of reach of the collections CPython runs while it
    tears the process down, which otherwise walk every object numpy and the
    package made, to free memory the process returns anyway. Nothing is
    frozen while the caller of ``main`` lives.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _skip_exit_collections()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out, args.seed)
        if args.command == "laplace":
            return cmd_laplace(args.config, args.model, args.out, args.seed)
        if args.command == "lula":
            return cmd_lula(args.config, args.model, args.out, args.seed)
        if args.command == "eval":
            return cmd_eval(args.config, args.model, args.out or ".", args.seed)
        if args.command == "demo-toy":
            return cmd_demo_toy(args.config, args.out, args.seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LulaLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
