import numpy as np
import pytest

from conftest import fd_free_gradient, random_network, relative_error
from lula_lab.laplace import build_posterior, fit_curvature
from lula_lab.lula import (
    LulaTrainConfig,
    augment,
    lula_objective,
    objective_gradient,
    total_variance_batch,
    train_lula,
)
from lula_lab.network import Network, activation_derivative, augment_ones, forward
from lula_lab.numerics import Rng
from lula_lab.training import LossKind, _Adam


def diag_last_layer_posterior(net, x, loss, lam=0.5):
    curv = fit_curvature(net, x, loss, "diag_ggn", "last_layer")
    return build_posterior(curv, lam)


def two_call_train_lula(net, units, in_features, out_features, loss, lam, cfg):
    """train_lula's loop with the objective from :func:`lula_objective` and
    the gradient from its own forward pass, (2 hbar) B chained by hand, both
    on the whole inlier and outlier sets."""
    top = net.num_layers - 2
    first = net.specs[top].out_dim - units
    current = net
    w_free = net.weights[top][first:]
    theta = np.concatenate([w_free.ravel(), net.biases[top][first:]])
    adam = _Adam(theta.size, cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        post = diag_last_layer_posterior(current, in_features, loss, lam)
        history.append(lula_objective(current, post, in_features, out_features))
        block_sum = post.output_block_cov().sum(axis=0)
        grad_w = np.zeros((units, net.specs[top].in_dim))
        grad_b = np.zeros(units)
        for batch, sign in ((in_features, 1.0), (out_features, -1.0)):
            trace = forward(current, batch)
            hbar = augment_ones(trace.activations[-2])
            delta = ((2.0 * hbar) @ block_sum)[:, first:-1] * activation_derivative(
                net.specs[top].activation, trace.pre_activations[top][:, first:]
            )
            weight = sign / batch.shape[0]
            grad_w += weight * (delta.T @ trace.activations[top])
            grad_b += weight * delta.sum(axis=0)
        adam.step(theta, np.concatenate([grad_w.ravel(), grad_b]))
        weights, biases = list(current.weights), list(current.biases)
        weights[top] = np.vstack(
            [net.weights[top][:first], theta[: w_free.size].reshape(w_free.shape)]
        )
        biases[top] = np.concatenate([net.biases[top][:first], theta[w_free.size :]])
        current = Network(net.specs, weights, biases)
    return current, history


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
        post = diag_last_layer_posterior(net, x, LossKind("categorical_ce"), 1e12)
        assert total_variance_batch(net, post, x[:1])[0] <= 1e-8

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
        v = total_variance_batch(net, post, xs)
        v_aug = total_variance_batch(aug_net, post_aug, xs)
        assert np.all(v_aug >= v - 1e-12)

    def test_rejects_all_layers_posterior(self):
        rng = Rng(20)
        net = Network.init_random([2, 5, 3], "tanh", rng)
        x = rng.standard_normal((9, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), "diag_ggn",
                             "all_layers")
        post = build_posterior(curv, 0.7)
        with pytest.raises(ValueError, match="last_layer"):
            total_variance_batch(net, post, x)


class TestObjective:
    def _setup(self, seed=7):
        rng = Rng(seed)
        net = Network.init_random([2, 5, 2], "tanh", rng)
        aug_net = augment(net, 3, rng)
        data = rng.standard_normal((20, 2))
        post = diag_last_layer_posterior(aug_net, data, LossKind("categorical_ce"), 0.4)
        return aug_net, post, data

    def test_identical_batches_cancel(self):
        net, post, data = self._setup()
        assert lula_objective(net, post, data, data) == 0.0

    def test_difference_of_means(self):
        net, post, data = self._setup()
        a, b = data[:4], data[4:10]
        nu_a = total_variance_batch(net, post, a)
        nu_b = total_variance_batch(net, post, b)
        expected = float(np.mean(nu_a) - np.mean(nu_b))
        assert lula_objective(net, post, a, b) == pytest.approx(
            expected, abs=1e-12
        )

    def test_duplication_invariance(self):
        net, post, data = self._setup()
        a, b = data[:4], data[4:8]
        base = lula_objective(net, post, a, b)
        doubled = lula_objective(
            net, post, np.concatenate([a, a]), np.concatenate([b, b])
        )
        assert doubled == pytest.approx(base, abs=1e-12)

    def test_empty_batch_rejected(self):
        net, post, data = self._setup()
        with pytest.raises(ValueError):
            lula_objective(net, post, np.empty((0, 2)), data)


class TestObjectiveGradient:
    def test_analytic_matches_fd_across_configs(self):
        rng = Rng(9)
        worst = 0.0
        for trial in range(20):
            dims = [2, int(rng.integers(3, 7)), int(rng.integers(1, 4))]
            net = Network.init_random(dims, "tanh", rng)
            units = int(rng.integers(1, 5))
            aug_net = augment(net, units, rng)
            data = rng.standard_normal((12, 2))
            out = rng.uniform(-4.0, 4.0, (10, 2))
            post = diag_last_layer_posterior(
                aug_net, data, LossKind("gaussian_nll"), 0.3
            )
            fd = fd_free_gradient(aug_net, units, post, data[:6], out[:6])
            grad_w, grad_b = objective_gradient(aug_net, units, post, data[:6], out[:6])
            assert grad_w.shape == (units, 2) and grad_b.shape == (units,)
            err = relative_error(np.concatenate([grad_w.ravel(), grad_b]), fd)
            worst = max(worst, err)
            assert err <= 1e-3, f"trial {trial}: {err}"
        assert worst > 0.0  # gradients are nonzero somewhere

    def test_rejects_all_layers_posterior(self):
        rng = Rng(11)
        net = Network.init_random([2, 3, 1], "tanh", rng)
        aug_net = augment(net, 2, rng)
        data = rng.standard_normal((8, 2))
        curv = fit_curvature(
            aug_net, data, LossKind("gaussian_nll"), "diag_ggn", "all_layers"
        )
        post = build_posterior(curv, 0.5)
        with pytest.raises(ValueError, match="last_layer"):
            objective_gradient(aug_net, 2, post, data[:4], data[4:])


class TestTrainLula:
    def test_zero_epochs_noop(self):
        rng = Rng(12)
        net = Network.init_random([2, 4, 2], "relu", rng)
        aug_net = augment(net, 2, rng)
        data = rng.standard_normal((10, 2))
        out = rng.uniform(-5, 5, (10, 2))
        cfg = LulaTrainConfig(epochs=0)
        tuned, history = train_lula(
            aug_net, 2, data, out, LossKind("categorical_ce"), 0.5, cfg
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
        eval_in, eval_out = moons.features[100:], out[60:]
        post0 = diag_last_layer_posterior(aug_net, moons.features[:100], loss, 0.5)
        before = lula_objective(aug_net, post0, eval_in, eval_out)
        tuned, history = train_lula(
            aug_net, 6, moons.features[:100], out[:60], loss, 0.5, cfg
        )
        post1 = diag_last_layer_posterior(tuned, moons.features[:100], loss, 0.5)
        after = lula_objective(tuned, post1, eval_in, eval_out)
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
            aug_net, 3, data, out, LossKind("categorical_ce"), 0.5, cfg
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
            aug_net, 4, data, out, LossKind("categorical_ce"), 0.5, cfg
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
            train_lula(aug_net, 2, data, out, LossKind("categorical_ce"), 0.5, cfg)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0].flatten_params(), runs[1][0].flatten_params())
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("loss", [
        LossKind("categorical_ce"), LossKind("gaussian_nll", 4.0),
    ], ids=["categorical", "gaussian"])
    def test_fused_loop_is_bitwise_the_two_call_loop(self, loss):
        # one forward pass per set feeds both the objective and its
        # gradient; the history and the tuned net are bitwise unchanged
        rng = Rng(17)
        k = 3 if loss.kind == "categorical_ce" else 1
        net = Network.init_random([2, 6, 6, k], "relu", rng)
        aug_net = augment(net, 4, rng)
        data = rng.standard_normal((40, 2))
        out = rng.uniform(-6, 6, (30, 2))
        cfg = LulaTrainConfig(epochs=5, learning_rate=0.1)
        tuned, history = train_lula(aug_net, 4, data, out, loss, 0.5, cfg)
        expected, expected_history = two_call_train_lula(
            aug_net, 4, data, out, loss, 0.5, cfg
        )
        assert history == expected_history
        assert np.array_equal(tuned.flatten_params(), expected.flatten_params())

    def test_history_is_the_objective_on_the_whole_sets(self):
        # every row of both sets counts, not a 128-row batch of each: entry e
        # is lula_objective of the net after e steps, under the diagonal
        # posterior refit on all inliers
        rng = Rng(18)
        net = Network.init_random([2, 8, 8, 2], "relu", rng)
        aug_net = augment(net, 4, rng)
        data = rng.standard_normal((200, 2))
        out = rng.uniform(-8.0, 8.0, (500, 2))
        loss = LossKind("categorical_ce")
        _, history = train_lula(aug_net, 4, data, out, loss, 0.5, LulaTrainConfig(epochs=4))
        assert len(history) == 4
        for epoch, value in enumerate(history):
            net_e, _ = train_lula(
                aug_net, 4, data, out, loss, 0.5, LulaTrainConfig(epochs=epoch)
            )
            post_e = diag_last_layer_posterior(net_e, data, loss, 0.5)
            assert value == lula_objective(net_e, post_e, data, out)

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
                train_lula(aug_net, units, data, out, loss, 0.5, cfg)
        with pytest.raises(ValueError, match="no hidden layer"):
            train_lula(Network.init_random([2, 2], "relu", rng), 0, data, out,
                       loss, 0.5, cfg)
