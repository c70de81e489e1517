import numpy as np
import pytest

from conftest import (
    dense_ggn,
    fd_free_gradient,
    kron_factors,
    lula_objective,
    objective_gradient,
    random_network,
    relative_error,
    total_variance_batch,
)
from lula_lab import lula
from lula_lab.errors import DivergenceError
from lula_lab.laplace import build_posterior, fit_curvature
from lula_lab.lula import LulaTrainConfig, augment, train_lula
from lula_lab.network import Network, augment_ones, forward
from lula_lab.numerics import Rng
from lula_lab.training import LossKind, _Adam


def diag_last_layer_posterior(net, x, loss, lam=0.5):
    curv = fit_curvature(net, x, loss, "diag_ggn", "last_layer")
    return build_posterior(curv, lam)


def kron_posterior(net, x, loss, lam=0.5):
    return build_posterior(fit_curvature(net, x, loss, "kfac_last_layer"), lam)


def with_free_block(net, units, theta):
    """``net`` with its free block replaced by the flat ``theta``."""
    top = net.num_layers - 2
    first = net.specs[top].out_dim - units
    n_w = units * net.specs[top].in_dim
    weights, biases = list(net.weights), list(net.biases)
    weights[top] = np.vstack([net.weights[top][:first], theta[:n_w].reshape(units, -1)])
    biases[top] = np.concatenate([net.biases[top][:first], theta[n_w:]])
    return Network(net.specs, weights, biases)


def two_call_train_lula(net, units, curv, in_features, out_features, loss, lam, cfg):
    """train_lula's loop from the public pieces: each epoch the objective
    from :func:`lula_objective` and the gradient from
    :func:`objective_gradient` of a freshly built network, with nothing
    cached between epochs."""
    top = net.num_layers - 2
    first = net.specs[top].out_dim - units
    theta = np.concatenate([net.weights[top][first:].ravel(), net.biases[top][first:]])
    adam = _Adam(theta.size, cfg.learning_rate)
    history = []
    for _ in range(cfg.epochs):
        current = with_free_block(net, units, theta)
        history.append(lula_objective(current, curv, in_features, out_features, loss, lam))
        grad_w, grad_b = objective_gradient(
            current, units, curv, in_features, out_features, loss, lam
        )
        adam.step(theta, np.concatenate([grad_w.ravel(), grad_b]))
    return with_free_block(net, units, theta), history


class TestAugment:
    def test_block_shapes_2_3_1(self, rng):
        net = Network.init_random([2, 3, 1], "relu", rng)
        aug_net = augment(net, 2, rng)
        assert aug_net.weights[0].shape == (5, 2)
        assert aug_net.weights[1].shape == (1, 5)
        assert np.array_equal(aug_net.weights[1][:, 3:], np.zeros((1, 2)))
        assert np.array_equal(aug_net.weights[0][:3], net.weights[0])
        assert np.array_equal(aug_net.biases[1], net.biases[1])

    def test_zero_counts_bitwise_noop(self, rng):
        net = random_network(rng, max_layers=3, min_hidden=1)
        aug_net = augment(net, 0, rng)
        assert aug_net.specs == net.specs
        assert np.array_equal(aug_net.flatten_params(), net.flatten_params())

    def test_forward_preserved_exactly(self):
        rng = Rng(3)
        for trial in range(50):
            net = random_network(rng, max_layers=3, max_units=12, min_hidden=1)
            aug_net = augment(net, int(rng.integers(0, 9)), rng)
            x = rng.standard_normal((6, net.input_dim))
            a = forward(net, x).output
            b = forward(aug_net, x).output
            scale = max(np.max(np.abs(a)), 1e-30)
            assert np.max(np.abs(a - b)) <= 1e-12 * scale, f"trial {trial}"

    def test_intermediate_zero_columns(self, rng):
        net = Network.init_random([2, 4, 4, 2], "relu", rng)
        aug_net = augment(net, 2, rng)
        # the final hidden layer gains rows 4:6, the output layer reads them
        # through exactly zero columns
        assert aug_net.weights[1].shape == (6, 4)
        assert aug_net.weights[2].shape == (2, 6)
        assert np.array_equal(aug_net.weights[2][:, 4:], np.zeros((2, 2)))
        # every non-free entry is bitwise the original
        assert np.array_equal(aug_net.weights[0], net.weights[0])
        assert np.array_equal(aug_net.biases[0], net.biases[0])
        assert np.array_equal(aug_net.weights[1][:4], net.weights[1])
        assert np.array_equal(aug_net.biases[1][:4], net.biases[1])
        assert np.array_equal(aug_net.weights[2][:, :4], net.weights[2])
        assert np.array_equal(aug_net.biases[2], net.biases[2])

    def test_negative_count_rejected(self, rng):
        net = Network.init_random([2, 4, 2], "relu", rng)
        with pytest.raises(ValueError):
            augment(net, -1, rng)

    def test_no_hidden_layer_rejected(self, rng):
        net = Network.init_random([2, 3], "relu", rng)
        with pytest.raises(ValueError, match="no hidden layer"):
            augment(net, 2, rng)

    def test_free_blocks_use_init_std(self, rng):
        net = Network.init_random([2, 3, 1], "relu", rng)
        aug_net = augment(net, 500, rng, init_std=0.05)
        free = aug_net.weights[0][3:]
        assert abs(free.std() - 0.05) < 0.01


class TestTotalVariance:
    def test_point_posterior_gives_zero(self, rng):
        net = Network.init_random([2, 5, 2], "tanh", rng)
        x = rng.standard_normal((10, 2))
        loss = LossKind("categorical_ce")
        post = kron_posterior(net, x, loss, 1e12)
        assert total_variance_batch(net, post, x[:1], loss)[0] <= 1e-8

    def test_augmentation_never_reduces_variance(self):
        # diagonal last-layer posterior, real-valued output: the added
        # directions contribute a nonnegative quadratic form
        rng = Rng(6)
        net = Network.init_random([2, 6, 1], "relu", rng)
        data = rng.standard_normal((30, 2))
        aug_net = augment(net, 4, rng)
        loss = LossKind("gaussian_nll")
        post = diag_last_layer_posterior(net, data, loss, 0.5)
        post_aug = diag_last_layer_posterior(aug_net, data, loss, 0.5)
        xs = rng.uniform(-5.0, 5.0, (200, 2))
        v = total_variance_batch(net, post, xs, loss)
        v_aug = total_variance_batch(aug_net, post_aug, xs, loss)
        assert np.all(v_aug >= v - 1e-12)

    @pytest.mark.parametrize("loss, k", [
        (LossKind("categorical_ce"), 3), (LossKind("gaussian_nll", 2.0), 2),
        (LossKind("binary_ce"), 1),
    ], ids=["categorical", "gaussian", "binary"])
    def test_centred_trace_matches_dense_oracle(self, loss, k):
        # v(x) = tr(K J Sigma J^T) with Sigma the dense inverse of
        # kron(G, A) + lambda I, J = I_k kron hbar^T, and K = I - 1 1^T / k
        # for the categorical likelihood, I otherwise
        rng = Rng(19)
        net = Network.init_random([2, 5, k], "tanh", rng)
        data = rng.standard_normal((25, 2))
        xs = rng.uniform(-4.0, 4.0, (7, 2))
        lam = 0.3
        g, a = kron_factors(net, data, loss)
        sigma = np.linalg.inv(np.kron(g, a) + lam * np.eye(k * a.shape[0]))
        centring = np.eye(k) - (1.0 / k if loss.kind == "categorical_ce" else 0.0)
        hbar = augment_ones(forward(net, xs).activations[-2])
        expected = []
        for h in hbar:
            jac = np.kron(np.eye(k), h[None, :])
            expected.append(np.trace(centring @ jac @ sigma @ jac.T))
        actual = total_variance_batch(net, kron_posterior(net, data, loss, lam), xs, loss)
        assert relative_error(actual, np.array(expected)) <= 1e-10


class TestObjective:
    def _setup(self, seed=7):
        rng = Rng(seed)
        net = Network.init_random([2, 5, 2], "tanh", rng)
        aug_net = augment(net, 3, rng)
        data = rng.standard_normal((20, 2))
        return aug_net, data[:8], data, (LossKind("categorical_ce"), 0.4)

    def test_identical_batches_cancel(self):
        net, curv, data, args = self._setup()
        assert lula_objective(net, curv, data, data, *args) == 0.0

    def test_difference_of_means(self):
        net, curv, data, (loss, lam) = self._setup()
        post = kron_posterior(net, curv, loss, lam)
        a, b = data[:4], data[4:10]
        nu_a = total_variance_batch(net, post, a, loss)
        nu_b = total_variance_batch(net, post, b, loss)
        expected = float(np.mean(np.log(nu_a)) - np.mean(np.log(nu_b)))
        assert lula_objective(net, curv, a, b, loss, lam) == pytest.approx(
            expected, abs=1e-12
        )

    def test_duplication_invariance(self):
        net, curv, data, args = self._setup()
        a, b = data[:4], data[4:8]
        base = lula_objective(net, curv, a, b, *args)
        doubled = lula_objective(
            net, curv, np.concatenate([a, a]), np.concatenate([b, b]), *args
        )
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_empty_batch_rejected(self):
        net, curv, data, args = self._setup()
        with pytest.raises(ValueError):
            lula_objective(net, curv, np.empty((0, 2)), data, *args)


class TestObjectiveGradient:
    @pytest.mark.parametrize("kind, k", [
        ("categorical_ce", 4), ("gaussian_nll", 2), ("binary_ce", 1),
    ])
    def test_analytic_matches_fd_across_configs(self, kind, k):
        # the oracle refits the Kronecker posterior at every perturbed net
        rng = Rng(9)
        loss = LossKind(kind, 2.0 if kind == "gaussian_nll" else 1.0)
        worst = 0.0
        for trial in range(8):
            act = ("relu", "selu", "tanh")[trial % 3]
            net = Network.init_random([2, int(rng.integers(3, 7)), k], act, rng)
            units = int(rng.integers(1, 5))
            aug_net = augment(net, units, rng, init_std=0.5)
            data = rng.standard_normal((12, 2))
            out = rng.uniform(-4.0, 4.0, (10, 2))
            args = (aug_net, units, data, data[:6], out[:6], loss, 0.3)
            grad_w, grad_b = objective_gradient(*args)
            assert grad_w.shape == (units, 2) and grad_b.shape == (units,)
            err = relative_error(np.concatenate([grad_w.ravel(), grad_b]),
                                 fd_free_gradient(*args))
            worst = max(worst, err)
            assert err <= 1e-6, f"trial {trial}: {err}"
        assert worst > 0.0  # gradients are nonzero somewhere

    def test_refuses_an_improper_prior_precision_or_no_curvature_data(self):
        rng = Rng(11)
        aug_net = augment(Network.init_random([2, 3, 1], "tanh", rng), 2, rng)
        data = rng.standard_normal((8, 2))
        loss = LossKind("gaussian_nll")
        for lam in (0.0, -1.0, np.inf, 1e-310, 1e-155):
            with pytest.raises(ValueError, match="prior_precision"):
                objective_gradient(aug_net, 2, data, data[:4], data[4:], loss, lam)
        with pytest.raises(ValueError, match="nonempty"):
            objective_gradient(aug_net, 2, data[:0], data[:4], data[4:], loss, 0.5)


class TestTrainLula:
    def test_zero_epochs_noop(self):
        rng = Rng(12)
        net = Network.init_random([2, 4, 2], "relu", rng)
        aug_net = augment(net, 2, rng)
        data = rng.standard_normal((10, 2))
        out = rng.uniform(-5, 5, (10, 2))
        cfg = LulaTrainConfig(epochs=0)
        tuned, history = train_lula(
            aug_net, 2, data, data, out, LossKind("categorical_ce"), 0.5, cfg
        )
        assert history == []
        assert np.array_equal(tuned.flatten_params(), aug_net.flatten_params())

    def test_objective_improves_on_heldout(self):
        rng = Rng(13)
        from lula_lab.data import gen_two_moons

        moons = gen_two_moons(150, 0.1, seed=2)
        net = Network.init_random([2, 8, 8, 2], "relu", rng)
        aug_net = augment(net, 6, rng)
        out = rng.uniform(-8.0, 8.0, (80, 2))
        loss = LossKind("categorical_ce")
        cfg = LulaTrainConfig(epochs=8, learning_rate=0.1)
        curv, train_in = moons.features[:60], moons.features[60:100]
        eval_in, eval_out = moons.features[100:], out[60:]
        before = lula_objective(aug_net, curv, eval_in, eval_out, loss, 0.5)
        tuned, history = train_lula(
            aug_net, 6, curv, train_in, out[:60], loss, 0.5, cfg
        )
        after = lula_objective(tuned, curv, eval_in, eval_out, loss, 0.5)
        assert after < before
        assert len(history) == 8

    def test_structural_invariants_bitwise(self):
        rng = Rng(14)
        net = Network.init_random([2, 5, 5, 2], "relu", rng)
        aug_net = augment(net, 3, rng)
        data = rng.standard_normal((20, 2))
        out = rng.uniform(-6, 6, (20, 2))
        cfg = LulaTrainConfig(epochs=2, learning_rate=0.05)
        tuned, _ = train_lula(
            aug_net, 3, data, data, out, LossKind("categorical_ce"), 0.5, cfg
        )
        # every non-free entry is bitwise what augmentation produced
        assert tuned.specs == aug_net.specs
        assert np.array_equal(tuned.weights[0], aug_net.weights[0])
        assert np.array_equal(tuned.biases[0], aug_net.biases[0])
        assert np.array_equal(tuned.weights[1][:5], aug_net.weights[1][:5])
        assert np.array_equal(tuned.biases[1][:5], aug_net.biases[1][:5])
        assert np.array_equal(tuned.weights[2], aug_net.weights[2])
        assert np.array_equal(tuned.biases[2], aug_net.biases[2])
        # structural zero columns are exactly zero; the free block moved
        assert np.array_equal(tuned.weights[2][:, 5:], np.zeros((2, 3)))
        assert np.any(tuned.weights[1][5:] != aug_net.weights[1][5:])

    def test_predictions_preserved_after_training(self):
        rng = Rng(15)
        net = Network.init_random([2, 6, 2], "relu", rng)
        aug_net = augment(net, 4, rng)
        data = rng.standard_normal((15, 2))
        out = rng.uniform(-6, 6, (15, 2))
        cfg = LulaTrainConfig(epochs=3, learning_rate=0.05)
        tuned, _ = train_lula(
            aug_net, 4, data, data, out, LossKind("categorical_ce"), 0.5, cfg
        )
        x = rng.uniform(-10.0, 10.0, (100, 2))
        a = forward(net, x).output
        b = forward(tuned, x).output
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(a)), 1e-30)

    def test_determinism(self):
        rng = Rng(16)
        net = Network.init_random([2, 4, 2], "relu", rng)
        aug_net = augment(net, 2, rng)
        data = Rng(1).standard_normal((12, 2))
        out = Rng(2).uniform(-5, 5, (12, 2))
        cfg = LulaTrainConfig(epochs=3)
        runs = [
            train_lula(aug_net, 2, data, data, out, LossKind("categorical_ce"), 0.5, cfg)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0].flatten_params(), runs[1][0].flatten_params())
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("loss", [
        LossKind("categorical_ce"), LossKind("gaussian_nll", 4.0),
    ], ids=["categorical", "gaussian"])
    def test_cached_loop_is_the_loop_of_fresh_networks(self, loss):
        # the loop caches the layer below the added units and G; the
        # history and the tuned net are those of the public objective and
        # gradient on each epoch's freshly built net
        rng = Rng(17)
        k = 3 if loss.kind == "categorical_ce" else 1
        net = Network.init_random([2, 6, 6, k], "relu", rng)
        aug_net = augment(net, 4, rng)
        curv = rng.standard_normal((30, 2))
        data = rng.standard_normal((40, 2))
        out = rng.uniform(-6, 6, (30, 2))
        cfg = LulaTrainConfig(epochs=5, learning_rate=0.1)
        tuned, history = train_lula(aug_net, 4, curv, data, out, loss, 0.5, cfg)
        expected, expected_history = two_call_train_lula(
            aug_net, 4, curv, data, out, loss, 0.5, cfg
        )
        assert relative_error(np.array(history), np.array(expected_history)) <= 1e-10
        assert relative_error(tuned.flatten_params(), expected.flatten_params()) <= 1e-10

    def test_history_is_the_objective_on_the_whole_sets(self):
        # every row of both sets counts: entry e is lula_objective of the net
        # after e steps, under the Kronecker posterior refit on the
        # curvature points
        rng = Rng(18)
        net = Network.init_random([2, 8, 8, 2], "relu", rng)
        aug_net = augment(net, 4, rng)
        curv = rng.standard_normal((150, 2))
        data = rng.standard_normal((200, 2))
        out = rng.uniform(-8.0, 8.0, (500, 2))
        loss = LossKind("categorical_ce")
        _, history = train_lula(
            aug_net, 4, curv, data, out, loss, 0.5, LulaTrainConfig(epochs=4)
        )
        assert len(history) == 4
        for epoch, value in enumerate(history):
            net_e, _ = train_lula(
                aug_net, 4, curv, data, out, loss, 0.5, LulaTrainConfig(epochs=epoch)
            )
            expected = lula_objective(net_e, curv, data, out, loss, 0.5)
            assert value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("loss, k", [
        (LossKind("categorical_ce"), 3), (LossKind("gaussian_nll", 2.0), 1),
    ], ids=["categorical", "gaussian"])
    def test_each_epoch_differentiates_the_posterior_that_predicts(
        self, loss, k, monkeypatch
    ):
        # the curvature of every epoch is fit_curvature of that epoch's net
        # on the curvature points, the posterior that eval builds, and the
        # G read once is that fit's output factor
        rng = Rng(22)
        aug_net = augment(Network.init_random([2, 6, 5, k], "tanh", rng), 3, rng)
        curv = rng.standard_normal((40, 2))
        data = rng.standard_normal((20, 2))
        out = rng.uniform(-6, 6, (25, 2))
        fits = []
        original = lula._kfac_curvature

        def recording(*args):
            fits.append(original(*args))
            return fits[-1]

        monkeypatch.setattr(lula, "_kfac_curvature", recording)
        epochs = 4
        train_lula(aug_net, 3, curv, data, out, loss, 0.5, LulaTrainConfig(epochs=epochs))
        monkeypatch.undo()
        assert len(fits) == epochs
        g = lula._Objective(aug_net, 3, curv, data, out, loss, 0.5).g
        for epoch, seen in enumerate(fits):
            net_e, _ = train_lula(
                aug_net, 3, curv, data, out, loss, 0.5, LulaTrainConfig(epochs=epoch)
            )
            fit = fit_curvature(net_e, curv, loss, "kfac_last_layer")
            assert np.array_equal(seen.mean, fit.mean)
            assert relative_error(seen.spectrum, fit.spectrum) <= 1e-12
            assert relative_error(dense_ggn(seen), dense_ggn(fit)) <= 1e-12
            g_oracle = np.maximum(np.linalg.eigvalsh(kron_factors(net_e, curv, loss)[0]), 0.0)
            assert relative_error(g, g_oracle) <= 1e-12

    @pytest.mark.parametrize("loss, k", [
        (LossKind("categorical_ce"), 3), (LossKind("gaussian_nll", 2.0), 2),
    ], ids=["categorical", "gaussian"])
    def test_output_factor_is_eigendecomposed_once(self, loss, k, monkeypatch):
        # the outputs never move, so G (k x k) is eigendecomposed once per
        # run and each epoch only A (F x F, here F = 9 != k)
        rng = Rng(23)
        aug_net = augment(Network.init_random([2, 6, 5, k], "tanh", rng), 3, rng)
        curv = rng.standard_normal((30, 2))
        data = rng.standard_normal((15, 2))
        out = rng.uniform(-6, 6, (20, 2))
        shapes = []
        original = np.linalg.eigh

        def counting(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        epochs = 5
        train_lula(aug_net, 3, curv, data, out, loss, 0.5, LulaTrainConfig(epochs=epochs))
        assert shapes.count((k, k)) == 1
        assert shapes.count((9, 9)) == epochs

    def test_non_finite_gradient_stops_before_the_step(self, monkeypatch):
        # a finite objective with a NaN gradient, as an overflowing 1/lambda
        # gives, raises at its own epoch and leaves Adam unstepped
        rng = Rng(24)
        aug_net = augment(Network.init_random([2, 4, 2], "relu", rng), 2, rng)
        data = rng.standard_normal((10, 2))
        out = rng.uniform(-5, 5, (10, 2))
        original = lula._Objective.__call__
        calls = []

        def nan_at_epoch_2(self, theta):
            calls.append(theta)
            value, grad = original(self, theta)
            if len(calls) == 3:
                grad[0] = np.nan
            return value, grad

        monkeypatch.setattr(lula._Objective, "__call__", nan_at_epoch_2)
        steps = []
        monkeypatch.setattr(_Adam, "step", lambda adam, theta, grad: steps.append(grad))
        with pytest.raises(DivergenceError, match="non-finite gradient at epoch 2"):
            train_lula(aug_net, 2, data, data, out, LossKind("categorical_ce"), 0.5,
                       LulaTrainConfig(epochs=5))
        assert len(calls) == 3
        assert len(steps) == 2

    def test_rejects_units_that_are_not_added(self):
        rng = Rng(21)
        net = Network.init_random([2, 4, 2], "relu", rng)
        aug_net = augment(net, 2, rng)
        data = rng.standard_normal((10, 2))
        out = rng.uniform(-5, 5, (10, 2))
        cfg = LulaTrainConfig(epochs=1)
        loss = LossKind("categorical_ce")
        # 3 would train an original unit; -1 and 7 leave [0, width]
        for units in (3, -1, 7):
            with pytest.raises(ValueError):
                train_lula(aug_net, units, data, data, out, loss, 0.5, cfg)
        with pytest.raises(ValueError, match="no hidden layer"):
            train_lula(Network.init_random([2, 2], "relu", rng), 0, data, data, out,
                       loss, 0.5, cfg)
