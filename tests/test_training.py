import numpy as np
import pytest

from conftest import fd_param_gradient, random_network, relative_error
from lula_lab import training
from lula_lab.data import gen_two_moons
from lula_lab.laplace import (
    PredictConfig,
    Predictive,
    fit_curvature,
    predictive_log_likelihood,
    tune_prior_precision,
)
from lula_lab.metrics import brier
from lula_lab.network import (
    LayerSpec,
    Network,
    ParamGrads,
    backward,
    forward,
    forward_output,
)
from lula_lab.numerics import Rng
from lula_lab.training import (
    LossKind,
    TrainConfig,
    map_loss,
    nll_output_grad,
    pointwise_nll,
    read_targets,
    sigmoid,
    softmax,
    train_map,
)


def identity_net(weight, bias):
    w = np.atleast_2d(np.asarray(weight, dtype=float))
    return Network(
        [LayerSpec(w.shape[1], w.shape[0], "identity")],
        [w],
        [np.asarray(bias, dtype=float).ravel()],
    )


class TestMapLoss:
    def test_perfect_fit_scores_zero(self):
        net = identity_net([[2.0]], [0.0])
        x = np.array([[1.0], [2.0], [-3.0]])
        y = 2.0 * x
        value, _ = map_loss(net, x, y, LossKind("gaussian_nll", 1.0), 0.0)
        assert value == 0.0

    def test_binary_ce_at_zero_logit(self):
        net = identity_net([[0.0]], [0.0])
        x = np.array([[5.0]])
        value, _ = map_loss(net, x, np.array([1]), LossKind("binary_ce"), 0.0)
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_regularizer_only(self):
        # lambda=2 and ||theta||^2 = 3 with a zero data term gives 3.0
        net = identity_net([[1.0, 1.0]], [1.0])
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0]])  # output is bias = 1 -> zero residual
        value, _ = map_loss(net, x, y, LossKind("gaussian_nll", 1.0), 2.0)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        net = identity_net([[1.0]], [0.0])
        with pytest.raises(ValueError):
            map_loss(net, np.empty((0, 1)), np.empty((0, 1)), LossKind("gaussian_nll"), 0.0)

    @pytest.mark.parametrize(
        "loss",
        [
            LossKind("gaussian_nll", 2.5),
            LossKind("categorical_ce"),
            LossKind("binary_ce"),
        ],
    )
    def test_gradients_match_finite_differences(self, loss):
        rng = Rng(5)
        for trial in range(8):
            out_dim = {"gaussian_nll": 2, "categorical_ce": 3, "binary_ce": 1}[
                loss.kind
            ]
            net = random_network(
                rng, max_layers=2, max_units=6, output_dim=out_dim, activation="tanh"
            )
            x = rng.standard_normal((4, net.input_dim))
            if loss.kind == "gaussian_nll":
                y = rng.standard_normal((4, out_dim))
            elif loss.kind == "categorical_ce":
                y = rng.integers(0, out_dim, 4)
            else:
                y = rng.integers(0, 2, 4)
            _, grads = map_loss(net, x, y, loss, 0.7)

            def objective(theta):
                value, _ = map_loss(net.with_flat_params(theta), x, y, loss, 0.7)
                return value

            fd = fd_param_gradient(objective, net.flatten_params())
            assert relative_error(grads.flatten(), fd) <= 1e-5, f"trial {trial}"

    def test_categorical_uniform_logits(self):
        net = identity_net(np.zeros((3, 2)), np.zeros(3))
        value, _ = map_loss(
            net, np.ones((1, 2)), np.array([1]), LossKind("categorical_ce"), 0.0
        )
        assert value == pytest.approx(np.log(3.0), abs=1e-12)


class TestTrainMap:
    def test_linear_regression_matches_least_squares(self):
        rng = Rng(9)
        x = rng.uniform(-1.0, 1.0, (80, 1))
        y = 2.0 * x
        # closed-form oracle on the same data (bias-augmented OLS)
        design = np.concatenate([x, np.ones((80, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        net = identity_net([[0.0]], [0.0])
        cfg = TrainConfig(learning_rate=0.05, epochs=300, weight_decay=0.0, seed=0)
        trained, history = train_map(net, x, y, LossKind("gaussian_nll", 1.0), cfg)
        assert abs(trained.weights[0][0, 0] - coef[0, 0]) <= 0.05
        assert abs(trained.weights[0][0, 0] - 2.0) <= 0.05
        assert len(history) == 300

    def test_two_moons_reference_accuracy(self):
        data = gen_two_moons(400, 0.1, seed=3)
        net = Network.init_random([2, 64, 64, 2], "relu", Rng(1))
        cfg = TrainConfig(
            learning_rate=1e-3,
            epochs=200,
            batch_size=64,
            weight_decay=1e-3,
            seed=2,
        )
        trained, _ = train_map(
            net, data.features, data.targets, LossKind("categorical_ce"), cfg
        )
        preds = forward(trained, data.features).output.argmax(axis=1)
        accuracy = float(np.mean(preds == data.targets))
        assert accuracy >= 0.95

    def test_history_decreases_after_smoothing(self):
        # no strict monotonicity, only a smoothed downward trend
        rng = Rng(29)
        x = rng.standard_normal((60, 2))
        y = rng.integers(0, 2, 60)
        net = Network.init_random([2, 12, 2], "relu", Rng(6))
        cfg = TrainConfig(epochs=60, batch_size=16, learning_rate=3e-3, seed=8)
        _, history = train_map(net, x, y, LossKind("categorical_ce"), cfg)
        window = 10
        smoothed = np.convolve(history, np.ones(window) / window, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_zero_epochs_is_noop(self, rng):
        net = random_network(rng, output_dim=1)
        x = rng.standard_normal((10, net.input_dim))
        y = rng.standard_normal((10, 1))
        cfg = TrainConfig(epochs=0)
        trained, history = train_map(net, x, y, LossKind("gaussian_nll"), cfg)
        assert history == []
        assert np.array_equal(trained.flatten_params(), net.flatten_params())

    @pytest.mark.parametrize("rows", [9, 11])
    def test_target_rows_must_match_features(self, rows):
        net = identity_net([[1.0]], [0.0])
        x = np.ones((10, 1))
        with pytest.raises(ValueError, match="10 feature rows"):
            train_map(net, x, np.ones((rows, 1)), LossKind("gaussian_nll"), TrainConfig())

    def test_history_is_map_loss_without_backward_passes(self, monkeypatch):
        rng = Rng(31)
        x = rng.standard_normal((20, 2))
        y = rng.integers(0, 3, 20)
        loss = LossKind("categorical_ce")
        net = Network.init_random([2, 6, 3], "tanh", Rng(5))

        def config(epochs):
            return TrainConfig(epochs=epochs, batch_size=8, weight_decay=0.3, seed=2)

        backward_calls = []
        original = training.backward

        def counting(*args):
            backward_calls.append(1)
            return original(*args)

        monkeypatch.setattr(training, "backward", counting)
        _, history = train_map(net, x, y, loss, config(3))
        # one backward pass per minibatch (3 of 20 rows each epoch), none
        # for the recorded history
        assert len(backward_calls) == 3 * 3
        for epoch, value in enumerate(history, start=1):
            trained, _ = train_map(net, x, y, loss, config(epoch))
            assert value == map_loss(trained, x, y, loss, 0.3)[0]

    def test_without_history_same_net_and_no_full_split_passes(self, monkeypatch):
        rng = Rng(37)
        x = rng.standard_normal((21, 2))
        y = rng.integers(0, 3, 21)
        loss = LossKind("categorical_ce")
        net = Network.init_random([2, 6, 3], "relu", Rng(5))
        cfg = TrainConfig(epochs=4, batch_size=8, weight_decay=0.3, seed=2)
        with_history, history = train_map(net, x, y, loss, cfg)
        passes = []
        original = training.forward_output

        def counting(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr(training, "forward_output", counting)
        trained, skipped = train_map(net, x, y, loss, cfg, history=False)
        assert len(history) == 4 and skipped == [] and passes == []
        assert trained.flatten_params().tobytes() == (
            with_history.flatten_params().tobytes()
        )

    def test_seed_determinism(self):
        rng = Rng(13)
        x = rng.standard_normal((30, 2))
        y = rng.integers(0, 2, 30)
        runs = []
        for _ in range(2):
            net = Network.init_random([2, 8, 2], "relu", Rng(4))
            cfg = TrainConfig(epochs=20, batch_size=8, seed=77)
            trained, hist = train_map(net, x, y, LossKind("categorical_ce"), cfg)
            runs.append((trained.flatten_params(), hist))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_weight_decay_shrinks_solution(self):
        rng = Rng(19)
        x = rng.uniform(-1.0, 1.0, (60, 1))
        y = 3.0 * x + 0.05 * rng.standard_normal((60, 1))
        norms = []
        for lam in (0.0, 0.1, 1.0, 10.0):
            net = identity_net([[0.0]], [0.0])
            cfg = TrainConfig(
                learning_rate=0.05, epochs=400, weight_decay=lam, seed=5
            )
            trained, _ = train_map(net, x, y, LossKind("gaussian_nll", 1.0), cfg)
            norms.append(np.linalg.norm(trained.flatten_params()))
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


class _ReferenceAdam:
    def __init__(self, dim, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m, self.v, self.t = np.zeros(dim), np.zeros(dim), 0

    def step(self, theta, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1.0 - self.b1) * grad
        self.v = self.b2 * self.v + (1.0 - self.b2) * grad * grad
        m_hat = self.m / (1.0 - self.b1**self.t)
        v_hat = self.v / (1.0 - self.b2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_train_map(net, features, targets, loss, config):
    """train_map as a plain loop: out-of-place Adam steps and one new
    network per step."""
    m = features.shape[0]
    theta = net.flatten_params()
    opt = _ReferenceAdam(theta.size, config.learning_rate)
    rng = Rng(config.seed)
    batch = config.batch_size or m
    history, current = [], net
    for epoch in range(config.epochs):
        order = rng.derive(epoch).permutation(m)
        for start in range(0, m, batch):
            idx = order[start : start + batch]
            trace = forward(current, features[idx])
            out_grad = training.nll_output_grad(loss, trace.output, targets[idx])
            grads = backward(current, trace, out_grad)
            g = grads.flatten() / idx.size + (config.weight_decay / m) * theta
            theta = opt.step(theta, g)
            current = current.with_flat_params(theta)
        history.append(map_loss(current, features, targets, loss, config.weight_decay)[0])
    return current, history


class TestTrainMapMatchesReference:
    CASES = {
        # 1 input and 1 output: every layer product has inner dimension 1
        # except the output layer's weight gradient
        "regression_1_50_1": ([1, 50, 1], "tanh", LossKind("gaussian_nll", 4.0)),
        "categorical_2_8_6_3": ([2, 8, 6, 3], "relu", LossKind("categorical_ce")),
        "binary_3_7_1": ([3, 7, 1], "selu", LossKind("binary_ce")),
        # hidden layers whose activation is their pre-activation array
        "identity_2_5_4_3": ([2, 5, 4, 3], "identity", LossKind("categorical_ce")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    # of the 30 rows: full batch, a ragged last batch of 2 rows, a last
    # batch of one row, and a batch larger than the data
    @pytest.mark.parametrize("batch_size", [None, 7, 29, 45])
    @pytest.mark.parametrize("weight_decay", [0.2, 0.0])
    # a fit that skips the per-epoch loss passes trains the same net
    @pytest.mark.parametrize("history", [True, False])
    def test_bitwise_equal(self, case, batch_size, weight_decay, history):
        dims, activation, loss = self.CASES[case]
        rng = Rng(37)
        x = rng.standard_normal((30, dims[0]))
        if loss.kind == "gaussian_nll":
            y = np.sin(2.0 * x[:, :1])
        else:
            y = rng.integers(0, max(dims[-1], 2), 30)
        net = Network.init_random(dims, activation, Rng(8))
        cfg = TrainConfig(
            learning_rate=0.01,
            epochs=6,
            batch_size=batch_size,
            weight_decay=weight_decay,
            seed=4,
        )
        trained, losses = train_map(net, x, y, loss, cfg, history=history)
        expected, expected_history = reference_train_map(net, x, y, loss, cfg)
        assert np.array_equal(trained.flatten_params(), expected.flatten_params())
        assert losses == (expected_history if history else [])


@pytest.mark.parametrize("case", sorted(TestTrainMapMatchesReference.CASES))
def test_train_map_reads_its_targets_once(case, monkeypatch):
    # the read before epoch 0 is the only one: every step and history pass
    # takes rows of it, with the plain loop's bits
    dims, activation, loss = TestTrainMapMatchesReference.CASES[case]
    rng = Rng(37)
    x = rng.standard_normal((30, dims[0]))
    if loss.kind == "gaussian_nll":
        y = np.sin(2.0 * x[:, :1])
    else:
        y = rng.integers(0, max(dims[-1], 2), 30)
    net = Network.init_random(dims, activation, Rng(8))
    cfg = TrainConfig(
        learning_rate=0.01, epochs=5, batch_size=7, weight_decay=0.2, seed=4
    )
    expected, expected_history = reference_train_map(net, x, y, loss, cfg)
    calls = []
    original = training.read_targets

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "read_targets", counting)
    trained, history = train_map(net, x, y, loss, cfg)
    assert len(calls) == 1
    assert trained.flatten_params().tobytes() == expected.flatten_params().tobytes()
    assert history == expected_history


@pytest.mark.parametrize("case", sorted(TestTrainMapMatchesReference.CASES))
def test_map_loss_reads_its_targets_once(case, monkeypatch):
    # one read serves both the value and the gradient
    dims, activation, loss = TestTrainMapMatchesReference.CASES[case]
    rng = Rng(38)
    x = rng.standard_normal((9, dims[0]))
    y = np.sin(x[:, :1]) if loss.kind == "gaussian_nll" else rng.integers(0, 2, 9)
    net = Network.init_random(dims, activation, Rng(9))
    trace = forward(net, x)
    value = float(np.sum(pointwise_nll(loss, trace.output, y)))
    grads = backward(net, trace, nll_output_grad(loss, trace.output, y))
    calls = []
    original = training.read_targets

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "read_targets", counting)
    got_value, got_grads = map_loss(net, x, y, loss, 0.0)
    assert len(calls) == 1
    assert got_value == value
    assert got_grads.flat.tobytes() == grads.flat.tobytes()


def test_pointwise_nll_shapes():
    loss = LossKind("categorical_ce")
    outputs = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = pointwise_nll(loss, outputs, np.array([0, 1]))
    assert values.shape == (2,)
    assert np.all(values > 0.0)


# The target contract: every likelihood and score reads its targets through
# read_targets, so each entry point below takes and refuses the same labels.

CONTRACT_ENTRY_POINTS = [
    "pointwise_nll",
    "nll_output_grad",
    "map_loss",
    "train_map",
    "predictive_log_likelihood",
    "tune_prior_precision",
    "brier",
]


def _contract_entry_points(kind):
    """Each entry point as a function of the labels of 6 points, on a net
    with 3 outputs (categorical_ce) or 1 (binary_ce) and its class
    probabilities, 3 or 2 columns."""
    loss = LossKind(kind)
    rng = Rng(33)
    net = Network.init_random([2, 5, 3 if kind == "categorical_ce" else 1], "tanh", rng)
    x = rng.standard_normal((6, 2))
    f = forward_output(net, x)
    if kind == "categorical_ce":
        probs = softmax(f)
    else:
        probs = np.column_stack([1.0 - sigmoid(f[:, 0]), sigmoid(f[:, 0])])
    curv = fit_curvature(net, x, loss, "kfac_last_layer")
    return {
        "pointwise_nll": lambda y: pointwise_nll(loss, f, y),
        "nll_output_grad": lambda y: nll_output_grad(loss, f, y),
        "map_loss": lambda y: map_loss(net, x, y, loss, 0.1),
        "train_map": lambda y: train_map(
            net, x, y, loss, TrainConfig(learning_rate=0.01, epochs=2, batch_size=4)
        ),
        "predictive_log_likelihood": lambda y: predictive_log_likelihood(
            Predictive(probabilities=probs), y
        ),
        "tune_prior_precision": lambda y: tune_prior_precision(
            net, curv, x, y, loss, grid=[0.5, 2.0], predict_cfg=PredictConfig("mc", 8, 1)
        ),
        "brier": lambda y: brier(probs, y),
    }


def _bits(result) -> bytes:
    """The float64 bytes of an entry point's result, nested tuples and
    lists, networks and gradients included (a ParamGrads is itself a
    tuple, read as its flat buffer)."""
    if isinstance(result, ParamGrads):
        result = result.flat
    if isinstance(result, tuple):
        return b"".join(_bits(part) for part in result)
    if isinstance(result, Network):
        result = result.flatten_params()
    return np.asarray(result, dtype=np.float64).tobytes()


LABELS = np.array([0, 1, 2, 0, 1, 2])


def _with(value, dtype=np.int64):
    y = LABELS.astype(dtype)
    y[2] = value
    return y


class TestTargetContract:
    @pytest.mark.parametrize(
        "bad,message",
        [
            (_with(-1), r"label -1 at row 2 is not an integer in \[0, 3\)"),
            (_with(3), r"label 3 at row 2 is not an integer in \[0, 3\)"),
            (_with(0.5, np.float64), r"label 0.5 at row 2 is not an integer in \[0, 3\)"),
            (LABELS[:, None], r"targets of shape \(6, 1\) do not fit 6 predictions"),
        ],
        ids=["minus_one", "equal_to_classes", "half", "two_d"],
    )
    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    def test_bad_labels_raise(self, entry, bad, message):
        call = _contract_entry_points("categorical_ce")[entry]
        with pytest.raises(ValueError, match=message):
            call(bad)

    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    def test_binary_label_three_raises(self, entry):
        # read as an integer, label 3 gives softplus(f) - 3 f, a negative NLL
        labels = LABELS % 2
        labels[2] = 3
        call = _contract_entry_points("binary_ce")[entry]
        with pytest.raises(ValueError, match=r"label 3 at row 2 is not an integer in \[0, 2\)"):
            call(labels)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.uint8])
    @pytest.mark.parametrize("kind", ["categorical_ce", "binary_ce"])
    @pytest.mark.parametrize("entry", CONTRACT_ENTRY_POINTS)
    def test_integral_labels_of_any_dtype_give_the_int64_bits(self, entry, kind, dtype):
        labels = LABELS % (3 if kind == "categorical_ce" else 2)
        call = _contract_entry_points(kind)[entry]
        assert _bits(call(labels.astype(dtype))) == _bits(call(labels))

    def test_train_map_reads_every_label_before_epoch_zero(self):
        # a run of no epochs takes no step, and still refuses a bad label
        net = Network.init_random([2, 4, 3], "tanh", Rng(34))
        with pytest.raises(ValueError, match="label 3 at row 2 "):
            train_map(net, np.zeros((6, 2)), _with(3), LossKind("categorical_ce"),
                      TrainConfig(epochs=0))

    def test_labels_come_back_as_int64(self):
        for y in (np.array([0.0, 1.0]), np.array([0, 1], dtype=np.uint8), [True, False]):
            got = read_targets(y, (2, 2), 2)
            assert got.dtype == np.int64 and got.tolist() == [int(v) for v in y]

    def test_regression_targets_read_as_one_column(self):
        got = read_targets(np.arange(3, dtype=np.int32), (3, 1))
        assert got.dtype == np.float64 and got.shape == (3, 1)
        with pytest.raises(ValueError, match=r"do not fit 3 predictions \(outputs \(3, 2\)\)"):
            read_targets(np.arange(3.0), (3, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_regression_targets_raise(self, bad):
        y = np.zeros((6, 2))
        y[4, 1] = bad
        with pytest.raises(ValueError, match=rf"target \[0.0, {bad}\] at row 5 is not finite"):
            read_targets(y, (6, 2), first_row=1)
        with pytest.raises(ValueError, match="at row 4 is not finite"):
            pointwise_nll(LossKind("gaussian_nll"), np.zeros((6, 2)), y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "huge"])
    def test_non_finite_and_huge_float_labels_raise(self, bad):
        with pytest.raises(ValueError, match=r"at row 2 is not an integer"):
            read_targets(_with(bad, np.float64), (6, 3), 3)

    @pytest.mark.parametrize(
        "dtype,bad,classes",
        [(">i8", 2**56, 3), ("<i8", 2**56, 3), ("i1", -1, 3), ("u2", 300, 3), ("?", True, 1)],
    )
    def test_integer_dtypes_read_in_their_byte_order(self, dtype, bad, classes):
        # big-endian 2**56 has the bytes of little-endian 1, and -1 those of
        # the largest unsigned value
        good = np.zeros(3, dtype=dtype)
        assert read_targets(good, (3, 3), classes).tolist() == [0, 0, 0]
        with pytest.raises(ValueError, match="at row 1 is not an integer"):
            read_targets(np.array([0, bad, 0], dtype=dtype), (3, 3), classes)

    def test_first_row_offsets_the_named_row(self):
        with pytest.raises(ValueError, match="label 3 at row 4 "):
            read_targets(_with(3), (6, 3), 3, first_row=2)
