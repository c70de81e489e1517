"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here, not calibrated elsewhere.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    fd_free_gradient,
    fd_param_gradient,
    kron_factors,
    random_network,
    relative_error,
)
from lula_lab import cli, demo
from lula_lab.data import gen_uniform_noise
from lula_lab.laplace import (
    PredictConfig,
    build_posterior,
    fit_curvature,
    linearized_variance_batch,
    mc_predict,
)
from lula_lab.lula import augment, objective_gradient
from lula_lab.metrics import auroc, brier, mmc
from lula_lab.network import Network, backward, forward
from lula_lab.numerics import Rng
from lula_lab.training import LossKind, map_loss


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_output_preservation():
    # 1000 random (net, input, units) triples, each net with a hidden layer;
    # augmented forward must match the original within 1e-12 relative.
    # Budget: 30 s.
    start = time.monotonic()
    rng = Rng(101)
    worst = 0.0
    for _ in range(1000):
        n_layers = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 7))]
        for _ in range(n_layers - 1):
            dims.append(int(rng.integers(2, 33)))
        dims.append(int(rng.integers(1, 4)))
        act = ("relu", "selu", "tanh")[int(rng.integers(0, 3))]
        net = Network.init_random(dims, act, rng)
        aug_net = augment(net, int(rng.integers(0, 65)), rng)
        x = 3.0 * rng.standard_normal((4, net.input_dim))
        a = forward(net, x).output
        b = forward(aug_net, x).output
        scale = max(float(np.max(np.abs(a))), 1e-30)
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    elapsed = time.monotonic() - start
    _report(
        1,
        "output preservation",
        worst <= 1e-12 and elapsed < 30.0,
        f"max rel diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_variance_never_decreases():
    # diagonal last-layer posterior, real-valued output, linearized variance:
    # augmented variance >= original on 1000 points for 50 nets. Budget: 60 s.
    start = time.monotonic()
    rng = Rng(202)
    violations = 0
    checked = 0
    loss = LossKind("gaussian_nll", 1.0)
    for _ in range(50):
        n_layers = int(rng.integers(2, 4))
        dims = [2] + [int(rng.integers(4, 17)) for _ in range(n_layers - 1)] + [1]
        act = ("relu", "selu", "tanh")[int(rng.integers(0, 3))]
        net = Network.init_random(dims, act, rng)
        data = rng.standard_normal((40, 2))
        aug_net = augment(net, int(rng.integers(1, 17)), rng)
        lam = float(10.0 ** rng.uniform(-3, 1, None))
        post = build_posterior(
            fit_curvature(net, data, loss, "diag_ggn", "last_layer"), lam
        )
        post_aug = build_posterior(
            fit_curvature(aug_net, data, loss, "diag_ggn", "last_layer"), lam
        )
        xs = rng.uniform(-6.0, 6.0, (1000, 2))
        v = linearized_variance_batch(net, post, xs).sum(axis=1)
        v_aug = linearized_variance_batch(aug_net, post_aug, xs).sum(axis=1)
        violations += int(np.sum(v_aug < v - 1e-12))
        checked += xs.shape[0]
    elapsed = time.monotonic() - start
    _report(
        2,
        "variance guarantee",
        violations == 0 and elapsed < 60.0,
        f"{violations} violations over {checked} points, {elapsed:.1f}s",
    )


def test_criterion_3_gradient_oracles():
    rng = Rng(303)
    worst_bwd = 0.0
    for _ in range(20):
        net = random_network(rng, max_layers=3, max_units=8, activation="tanh")
        x = rng.standard_normal((3, net.input_dim))
        g = rng.standard_normal((3, net.output_dim))
        grads = backward(net, forward(net, x), g)

        def f_bwd(theta):
            return float(np.sum(g * forward(net.with_flat_params(theta), x).output))

        fd = fd_param_gradient(f_bwd, net.flatten_params())
        worst_bwd = max(worst_bwd, relative_error(grads.flatten(), fd))

    worst_loss = 0.0
    for trial in range(20):
        kind = ("gaussian_nll", "categorical_ce", "binary_ce")[trial % 3]
        out_dim = {"gaussian_nll": 2, "categorical_ce": 3, "binary_ce": 1}[kind]
        loss = LossKind(kind, 2.0 if kind == "gaussian_nll" else 1.0)
        net = random_network(
            rng, max_layers=2, max_units=6, output_dim=out_dim, activation="tanh"
        )
        x = rng.standard_normal((4, net.input_dim))
        if kind == "gaussian_nll":
            y = rng.standard_normal((4, out_dim))
        else:
            y = rng.integers(0, max(out_dim, 2), 4)
        _, grads = map_loss(net, x, y, loss, 0.4)

        def f_loss(theta):
            value, _ = map_loss(net.with_flat_params(theta), x, y, loss, 0.4)
            return value

        fd = fd_param_gradient(f_loss, net.flatten_params())
        worst_loss = max(worst_loss, relative_error(grads.flatten(), fd))

    # the LULA objective through the Kronecker posterior, refit on the
    # curvature points at every perturbed net, for each likelihood
    worst_lula = 0.0
    for trial in range(21):
        kind = ("categorical_ce", "gaussian_nll", "binary_ce")[trial % 3]
        out_dim = {"categorical_ce": 4, "gaussian_nll": 2, "binary_ce": 1}[kind]
        loss = LossKind(kind, 2.0 if kind == "gaussian_nll" else 1.0)
        net = Network.init_random([2, int(rng.integers(3, 8)), out_dim], "tanh", rng)
        units = int(rng.integers(1, 6))
        aug_net = augment(net, units, rng)
        data = rng.standard_normal((10, 2))
        out = rng.uniform(-4.0, 4.0, (8, 2))
        args = (aug_net, units, data, data[:5], out[:5], loss, 0.3)
        grad_w, grad_b = objective_gradient(*args)
        an_g = np.concatenate([grad_w.ravel(), grad_b])
        worst_lula = max(worst_lula, relative_error(an_g, fd_free_gradient(*args)))

    ok = worst_bwd <= 1e-5 and worst_loss <= 1e-5 and worst_lula <= 1e-3
    _report(
        3,
        "gradient oracles",
        ok,
        f"backward {worst_bwd:.2e} (<=1e-5), map_loss {worst_loss:.2e} (<=1e-5), "
        f"variance-objective analytic {worst_lula:.2e} (<=1e-3)",
    )


def test_criterion_4_predictive_consistency():
    rng = Rng(404)
    net = Network.init_random([2, 8, 1], "tanh", rng)
    data = rng.standard_normal((60, 2))
    loss = LossKind("binary_ce")
    post = build_posterior(
        fit_curvature(net, data, loss, "full_ggn", "last_layer"), 0.5
    )
    points = rng.standard_normal((50, 2))
    mc = mc_predict(net, post, points, PredictConfig("mc", 10000, 11), loss)
    closed = mc_predict(
        net, post, points, PredictConfig("probit_linearized", 1, 0), loss
    )
    prob_gap = float(np.max(np.abs(mc.probabilities - closed.probabilities)))

    # MC total output variance vs the quadratic form, one point at a time
    v = linearized_variance_batch(net, post, points)[:, 0]
    hbar = np.concatenate(
        [forward(net, points).activations[-2], np.ones((50, 1))], axis=1
    )
    samples = post.sample(Rng(12), 10000)
    outputs = hbar @ samples.T  # (50 points, 10000 samples)
    mc_var = outputs.var(axis=1)
    se = v * np.sqrt(2.0 / 10000)
    var_ok = bool(np.all(np.abs(mc_var - v) <= 3 * se))
    ok = prob_gap <= 0.02 and var_ok
    _report(
        4,
        "predictive consistency",
        ok,
        f"max |MC - probit| {prob_gap:.4f} (<=0.02), variance within 3 SE: {var_ok}",
    )


def test_criterion_5_kfl_fidelity():
    # The empirical covariance of the draws against the dense inverse of
    # kron(G, A) + lambda I, with G and A computed from the net and the
    # data. The draws are exact, so the gap is the sampling error of 50000
    # draws (about 0.012); the 0.10 bound dates from the per-factor damped
    # draws and is left unchanged. Output factors must be nonsingular for the oracle to stay
    # finite (categorical factors have a softmax-shift null direction), so
    # the instances use Gaussian and binary likelihoods.
    worst = 0.0
    for dims, loss, seed, lam in [
        ([3, 5, 4], LossKind("gaussian_nll", 1.0), 21, 1e-9),
        ([3, 5, 3], LossKind("gaussian_nll", 1.0), 7, 1e-9),
        ([4, 4, 1], LossKind("binary_ce"), 13, 1e-8),
    ]:
        rng = Rng(seed)
        net = Network.init_random(dims, "tanh", rng)
        x = rng.standard_normal((40 if dims[-1] > 1 else 60, dims[0]))
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        post = build_posterior(curv, lam)
        samples = post.sample(Rng(2), 50000)
        emp = np.cov(samples.T, bias=True)
        dense = np.kron(*kron_factors(net, x, loss)) + lam * np.eye(post.dim)
        oracle = np.linalg.inv(dense)
        rel = float(np.linalg.norm(emp - oracle) / np.linalg.norm(oracle))
        worst = max(worst, rel)
    _report(5, "KFL sampling fidelity", worst <= 0.10,
            f"worst rel Frobenius {worst:.4f} (<=0.10)")


def test_criterion_6_metric_oracles():
    rng = Rng(606)
    exact = True
    for _ in range(200):
        n_in = int(rng.integers(1, 15))
        n_out = int(rng.integers(1, 15))
        a = np.round(rng.uniform(0.0, 1.0, n_in), 1)
        b = np.round(rng.uniform(0.0, 1.0, n_out), 1)
        brute = 0.0
        for ai in a:
            for bj in b:
                brute += 1.0 if ai > bj else (0.5 if ai == bj else 0.0)
        brute /= n_in * n_out
        if auroc(a, b) != brute:
            exact = False
            break
    mmc_ok = all(
        mmc(np.full((9, k), 1.0 / k)) == pytest.approx(1.0 / k, abs=0)
        for k in (2, 4, 10)
    )
    labels = np.array([0, 3, 1, 2])
    brier_ok = brier(np.eye(4)[labels], labels) == 0.0
    _report(
        6,
        "metric oracles",
        exact and mmc_ok and brier_ok,
        f"auroc exact: {exact}, uniform mmc exact: {mmc_ok}, one-hot brier zero: {brier_ok}",
    )


def test_criterion_7_two_moons_pattern():
    # the demo-toy two-moons pipeline at its default sizes, other seeds
    start = time.monotonic()
    net, tuned, post_la, post_lula, test, loss = demo.moons(
        600, 0.15, 200, 32, 100, 500, demo.Seeds(10, 11, 12, 13, 18, 17)
    )
    labels_map = forward(net, test.features).output.argmax(axis=1)
    labels_lula = forward(tuned, test.features).output.argmax(axis=1)
    labels_ok = bool(np.array_equal(labels_map, labels_lula))

    ring_rng = Rng(15)
    radius = ring_rng.uniform(8.0, 12.0, 400)
    angle = ring_rng.uniform(0.0, 2.0 * np.pi, 400)
    ring = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    pcfg = PredictConfig("mc", 100, 16)

    def confidence(network, post, x):
        return float(
            mc_predict(network, post, x, pcfg, loss).probabilities.max(axis=1).mean()
        )

    ring_la = confidence(net, post_la, ring)
    ring_lula = confidence(tuned, post_lula, ring)
    test_la = confidence(net, post_la, test.features)
    test_lula = confidence(tuned, post_lula, test.features)
    drop = ring_la - ring_lula
    shift = abs(test_la - test_lula)
    elapsed = time.monotonic() - start
    ok = labels_ok and drop >= 0.10 and shift <= 0.05 and elapsed < 300.0
    _report(
        7,
        "two-moons pattern",
        ok,
        f"labels identical: {labels_ok}, far-field drop {drop:.3f} (>=0.10), "
        f"test shift {shift:.3f} (<=0.05), {elapsed:.0f}s",
    )


def test_criterion_8_regression_pattern():
    start = time.monotonic()
    # the demo-toy regression pipeline with 100 LULA epochs, other seeds
    net, tuned, post_la, post_lula, test, loss = demo.regression(
        400, 0.15, 25.0, 2000, 50, 100, 500, demo.Seeds(30, 31, 32, 33, 37, 36)
    )
    outliers = gen_uniform_noise(300, 1, -10.0, 10.0, 34).features
    pcfg = PredictConfig("mc", 100, 35)

    def mean_std(network, post, x):
        pred = mc_predict(network, post, x, pcfg, loss)
        return float(np.mean(np.sqrt(pred.var_epistemic)))

    out_ratio = mean_std(tuned, post_lula, outliers) / mean_std(net, post_la, outliers)
    test_ratio = mean_std(tuned, post_lula, test.features) / mean_std(
        net, post_la, test.features
    )
    elapsed = time.monotonic() - start
    ok = out_ratio >= 2.0 and test_ratio <= 1.5 and elapsed < 300.0
    _report(
        8,
        "regression uncertainty pattern",
        ok,
        f"outlier std ratio {out_ratio:.2f} (>=2), test std ratio {test_ratio:.2f} "
        f"(<=1.5), {elapsed:.0f}s",
    )


DEMO_INI = """
[demo]
moons_size = 200
moons_train_epochs = 60
moons_lula_units = 8
moons_lula_epochs = 10
reg_size = 120
reg_train_epochs = 300
reg_lula_units = 10
reg_lula_epochs = 10

[lula]
ood_size = 120

[eval]
grid_size = 20
sample_count = 50
"""


def test_criterion_9_demo_determinism(tmp_path):
    config = tmp_path / "demo.ini"
    config.write_text(DEMO_INI)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    code1 = cli.main(["demo-toy", "--config", str(config), "--out", out1])
    code2 = cli.main(["demo-toy", "--config", str(config), "--out", out2])
    names = sorted(os.listdir(out1))
    identical = sorted(os.listdir(out2)) == names and all(
        Path(out1, n).read_bytes() == Path(out2, n).read_bytes() for n in names
    )
    grids = [n for n in names if n.endswith(".csv")]
    ok = code1 == 0 and code2 == 0 and identical and len(grids) == 6
    _report(
        9,
        "demo determinism",
        ok,
        f"exit codes {code1}/{code2}, {len(grids)} grid files, byte-identical: {identical}",
    )
