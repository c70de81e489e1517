import numpy as np
import pytest

from conftest import (
    fd_param_gradient,
    loop_output_jacobian,
    output_jacobian,
    random_network,
    relative_error,
)
from lula_lab import network
from lula_lab.errors import ModelFormatError
from lula_lab.network import (
    ACTIVATIONS,
    SELU_ALPHA,
    SELU_SCALE,
    LayerSpec,
    Network,
    activation_derivative,
    apply_activation,
    backward,
    forward,
    forward_output,
    load,
    save,
)
from lula_lab.numerics import Rng
from lula_lab.training import LossKind, output_hessian_roots


def biased_network(dims, activation, rng):
    """Random net with nonzero biases, so every activation branch is hit."""
    net = Network.init_random(dims, activation, rng)
    biases = [b + 0.1 * rng.standard_normal(b.shape) for b in net.biases]
    return Network(net.specs, net.weights, biases)


def single_layer(weight, bias):
    w = np.atleast_2d(np.asarray(weight, dtype=float))
    b = np.asarray(bias, dtype=float).ravel()
    spec = LayerSpec(w.shape[1], w.shape[0], "identity")
    return Network([spec], [w], [b])


CLOSED_FORMS = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda a: (a > 0.0).astype(np.float64)),
    "selu": (
        lambda a: SELU_SCALE * np.where(a > 0.0, a, SELU_ALPHA * np.expm1(a)),
        lambda a: SELU_SCALE * np.where(a > 0.0, 1.0, SELU_ALPHA * np.exp(a)),
    ),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) * np.tanh(a)),
    "identity": (lambda a: a, np.ones_like),
}


class TestActivations:
    a = np.array([[-30.0, -1.5, -1e-300, -0.0], [0.0, 5e-324, 0.7, 40.0]])

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_bitwise_equal_to_closed_forms(self, activation):
        value, derivative = CLOSED_FORMS[activation]
        for got, want in (
            (apply_activation(activation, self.a), value(self.a)),
            (activation_derivative(activation, self.a), derivative(self.a)),
        ):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestForward:
    def test_zero_net_zero_output(self):
        specs = [LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "identity")]
        net = Network(specs, [np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
        out = forward(net, np.ones((5, 3))).output
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_hand_evaluated_affine(self):
        net = single_layer([[2.0]], [1.0])
        assert forward(net, np.array([[3.0]])).output[0, 0] == 7.0

    def test_determinism(self, rng):
        net = random_network(rng)
        x = rng.standard_normal((4, net.input_dim))
        assert np.array_equal(forward(net, x).output, forward(net, x).output)

    def test_batch_order_invariance(self, rng):
        net = random_network(rng)
        x = rng.standard_normal((8, net.input_dim))
        perm = rng.permutation(8)
        assert np.array_equal(
            forward(net, x).output[perm], forward(net, x[perm]).output
        )

    def test_dimension_mismatch(self, rng):
        net = random_network(rng, input_dim=3)
        with pytest.raises(ValueError):
            forward(net, np.ones((2, 4)))

    def test_trace_endpoints(self, rng):
        net = random_network(rng)
        x = rng.standard_normal((3, net.input_dim))
        trace = forward(net, x)
        assert np.array_equal(trace.activations[0], x)
        assert trace.output.shape == (3, net.output_dim)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_later_calls_leave_earlier_traces_unchanged(self, activation):
        # every trace array but the input batch is new, so a second batch,
        # or the caller writing to its batch, moves nothing already traced
        rng = Rng(97)
        net = biased_network([3, 6, 4, 2], activation, rng)
        first = 10.0 * rng.standard_normal((5, 3))
        trace = forward(net, first)
        assert trace.activations[0] is first
        want = [a.copy() for a in trace.pre_activations + trace.activations[1:]]
        forward(net, rng.standard_normal((5, 3)))
        first[:] = 0.0
        for got, expected in zip(trace.pre_activations + trace.activations[1:], want):
            assert not np.shares_memory(got, first)
            assert got.tobytes() == expected.tobytes()


class TestFlatParams:
    def test_weights_are_read_only(self, rng):
        net = random_network(rng)
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            net.biases[-1][0] = 1.0

    def test_views_share_one_buffer_in_frozen_order(self, rng):
        net = random_network(rng)
        flat = net.flatten_params()
        offset = 0
        buffer = net.weights[0].base
        assert buffer.shape == (net.num_params,)
        for w, b in zip(net.weights, net.biases):
            assert w.base is buffer and b.base is buffer
            assert np.array_equal(flat[offset : offset + w.size], w.ravel())
            offset += w.size
            assert np.array_equal(flat[offset : offset + b.size], b)
            offset += b.size
        assert offset == net.num_params

    def test_with_flat_params_copies_theta(self, rng):
        net = random_network(rng)
        theta = net.flatten_params() + 1.0
        moved = net.with_flat_params(theta)
        before = moved.flatten_params()
        theta[:] = 0.0
        assert np.array_equal(moved.flatten_params(), before)
        assert np.array_equal(moved.weights[0].ravel(), before[: moved.weights[0].size])

    def test_flatten_params_is_a_writable_copy(self, rng):
        net = random_network(rng)
        flat = net.flatten_params()
        flat[:] = 0.0
        assert not np.array_equal(net.flatten_params(), flat)


class TestForwardOutput:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("dims", [[1, 5, 1], [3, 6, 4, 2], [2, 1, 3]])
    def test_bitwise_equal_to_forward_trace(self, activation, dims):
        rng = Rng(83)
        net = biased_network(dims, activation, rng)
        x = rng.standard_normal((7, dims[0]))
        trace = forward(net, x)
        assert np.array_equal(forward_output(net, x), trace.output)
        for depth in range(net.num_layers + 1):
            assert np.array_equal(
                forward_output(net, x, depth), trace.activations[depth]
            )

    def test_dimension_mismatch(self, rng):
        net = random_network(rng, input_dim=3)
        with pytest.raises(ValueError):
            forward_output(net, np.ones((2, 4)))


class TestBackward:
    def test_zero_output_grad(self, rng):
        net = random_network(rng)
        x = rng.standard_normal((3, net.input_dim))
        trace = forward(net, x)
        grads = backward(net, trace, np.zeros_like(trace.output))
        assert np.array_equal(grads.flatten(), np.zeros(net.num_params))

    def test_affine_hand_gradient(self):
        net = single_layer([[2.0]], [1.0])
        x = np.array([[3.0]])
        trace = forward(net, x)
        grads = backward(net, trace, np.ones((1, 1)))
        assert grads.weights[0][0, 0] == 3.0  # d/dW of W*x is x
        assert grads.biases[0][0] == 1.0

    def test_matches_finite_differences_tanh(self):
        rng = Rng(11)
        net = Network.init_random([2, 3, 1], "tanh", rng)
        x = rng.standard_normal((4, 2))
        g = rng.standard_normal((4, 1))
        trace = forward(net, x)
        grads = backward(net, trace, g)

        def objective(theta):
            out = forward(net.with_flat_params(theta), x).output
            return float(np.sum(g * out))

        fd = fd_param_gradient(objective, net.flatten_params())
        assert relative_error(grads.flatten(), fd) <= 1e-6

    def test_fifty_random_nets_match_fd(self):
        rng = Rng(17)
        for trial in range(50):
            net = random_network(rng, max_layers=3, max_units=10)
            x = rng.standard_normal((2, net.input_dim))
            g = rng.standard_normal((2, net.output_dim))
            trace = forward(net, x)
            grads = backward(net, trace, g)

            def objective(theta):
                out = forward(net.with_flat_params(theta), x).output
                return float(np.sum(g * out))

            fd = fd_param_gradient(objective, net.flatten_params())
            assert relative_error(grads.flatten(), fd) <= 1e-5, f"trial {trial}"

    def test_writes_into_given_buffer(self, rng):
        net = random_network(rng)
        x = rng.standard_normal((5, net.input_dim))
        trace = forward(net, x)
        g = rng.standard_normal(trace.output.shape)
        fresh = backward(net, trace, g)
        out = backward(net, forward(net, 2.0 * x), g)
        assert backward(net, trace, g, out) is out
        assert np.array_equal(out.flat, fresh.flat)
        for w, b in zip(out.weights, out.biases):
            assert np.shares_memory(w, out.flat) and np.shares_memory(b, out.flat)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("dims", [[1, 5, 1], [3, 6, 4, 2], [2, 1, 3]])
    def test_buffers_give_the_allocating_gradients(self, activation, dims):
        rng = Rng(103)
        net = biased_network(dims, activation, rng)
        if net.num_layers > 1:
            # a first hidden unit with pre-activation exactly 0, where
            # relu' and selu' take their left-hand value
            theta = net.flatten_params()
            theta[: dims[0]] = 0.0
            theta[dims[0] * dims[1]] = 0.0
            net = net.with_flat_params(theta)
        x = rng.standard_normal((6, dims[0]))
        trace = forward(net, x)
        g = rng.standard_normal(trace.output.shape)
        traced = [a.tobytes() for a in trace.pre_activations + trace.activations]
        g_bytes = g.tobytes()
        fresh = backward(net, trace, g)
        # stale values in the out buffer, from another batch
        out = backward(net, forward(net, 3.0 * x), -g)
        assert backward(net, trace, g, out) is out
        assert out.flat.tobytes() == fresh.flat.tobytes()
        # the sweep writes its deltas to new arrays, never to its inputs
        assert [a.tobytes() for a in trace.pre_activations + trace.activations] == traced
        assert g.tobytes() == g_bytes

    def test_shape_mismatch(self, rng):
        net = random_network(rng)
        trace = forward(net, rng.standard_normal((3, net.input_dim)))
        with pytest.raises(ValueError):
            backward(net, trace, np.zeros((3, net.output_dim + 1)))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("rows", [6, 0])
    def test_is_the_one_seed_case_of_the_jacobian_sweep(self, activation, rows):
        # backward seeds the sweep with g_x as one row per example, so its
        # gradient is the batch sum of the rows g_x^T J_x that
        # output_jacobian writes from the same sweep's factors
        rng = Rng(107)
        net = biased_network([3, 6, 4, 2], activation, rng)
        x = rng.standard_normal((rows, 3))
        g = rng.standard_normal((rows, 2))
        grads = backward(net, forward(net, x), g)
        rows_sum = output_jacobian(net, x, seeds=g[:, :, None]).sum(axis=(0, 1))
        assert relative_error(grads.flatten(), rows_sum) <= 1e-13
        if not rows:
            assert not grads.flat.any()


class TestOutputJacobian:
    def test_affine_jacobian_rows(self):
        net = single_layer([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5])
        x = np.array([10.0, 20.0])
        jac = output_jacobian(net, x)
        # flattening: W row-major then bias => [w00 w01 w10 w11 b0 b1]
        assert np.array_equal(jac[0], [10.0, 20.0, 0.0, 0.0, 1.0, 0.0])
        assert np.array_equal(jac[1], [0.0, 0.0, 10.0, 20.0, 0.0, 1.0])

    def test_shape_single_output(self, rng):
        net = random_network(rng, output_dim=1)
        jac = output_jacobian(net, rng.standard_normal(net.input_dim))
        assert jac.shape == (1, net.num_params)

    def test_batch_and_vector_shapes(self, rng):
        net = random_network(rng, input_dim=3, output_dim=2)
        x = rng.standard_normal((5, 3))
        assert output_jacobian(net, x).shape == (5, 2, net.num_params)
        assert output_jacobian(net, x[1]).shape == (2, net.num_params)
        assert output_jacobian(net, x[:0]).shape == (0, 2, net.num_params)

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.ones((2, 2, 3)), np.ones(4),
                                     np.ones((2, 4))])
    def test_rejects_bad_input_shapes(self, rng, bad):
        net = random_network(rng, input_dim=3, output_dim=2)
        with pytest.raises(ValueError):
            output_jacobian(net, bad)

    @pytest.mark.parametrize("hidden", [1, 3])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("activation", ["relu", "selu", "tanh", "identity"])
    def test_batch_matches_loop_oracle(self, activation, k, hidden):
        rng = Rng(41)
        dims = [3] + [int(rng.integers(2, 8)) for _ in range(hidden)] + [k]
        net = Network.init_random(dims, activation, rng)
        biases = [b + 0.1 * rng.standard_normal(b.shape) for b in net.biases]
        net = Network(net.specs, net.weights, biases)
        x = rng.standard_normal((9, 3))
        jac = output_jacobian(net, x)
        for j in range(x.shape[0]):
            expected = loop_output_jacobian(net, x[j])
            assert relative_error(jac[j], expected) <= 1e-14
            assert relative_error(output_jacobian(net, x[j]), expected) <= 1e-14

    # (loss, k): the root widths r are 1, 2 and 2
    SEEDED_CASES = [
        pytest.param(LossKind("binary_ce"), 1, id="binary"),
        pytest.param(LossKind("categorical_ce"), 3, id="categorical"),
        pytest.param(LossKind("gaussian_nll", 2.5), 2, id="gaussian"),
    ]

    @pytest.mark.parametrize("loss, k", SEEDED_CASES)
    def test_seeded_rows_match_loop_oracle(self, loss, k):
        # seeded with the loss-Hessian roots L_x, the sweep gives the GGN
        # rows L_x^T J_x: for a batch, a single vector and an empty batch
        rng = Rng(43)
        net = biased_network([3, 6, 5, k], "tanh", rng)
        x = rng.standard_normal((7, 3))
        seeds = output_hessian_roots(loss, forward(net, x).output)
        r, d = seeds.shape[2], net.num_params
        rows = output_jacobian(net, x, seeds=seeds)
        assert rows.shape == (7, r, d)
        for j in range(x.shape[0]):
            expected = seeds[j].T @ loop_output_jacobian(net, x[j])
            assert relative_error(rows[j], expected) <= 1e-14
            one = output_jacobian(net, x[j], seeds=seeds[j])
            assert one.shape == (r, d)
            assert relative_error(one, expected) <= 1e-14
        empty = output_jacobian(net, x[:0], seeds=seeds[:0])
        assert empty.shape == (0, r, d)

    def test_identity_seeds_are_bitwise_the_seedless_call(self):
        rng = Rng(44)
        net = biased_network([2, 7, 4, 3], "selu", rng)
        x = rng.standard_normal((6, 2))
        eye = np.broadcast_to(np.eye(3), (6, 3, 3))
        assert np.array_equal(output_jacobian(net, x, seeds=eye), output_jacobian(net, x))

    def test_row_writer_is_bitwise_the_jacobian_in_any_buffer(self):
        # the writer fills a caller's buffer, here a transposed (k, m, d)
        # one, with the bits output_jacobian returns, whatever the buffer
        # held before
        rng = Rng(47)
        net = biased_network([2, 7, 4, 3], "tanh", rng)
        x = rng.standard_normal((6, 2))
        buffer = np.full((3, 6, net.num_params), np.nan)
        view = buffer.transpose(1, 0, 2)
        blocks = network.jacobian_factors(net, x)
        assert network._write_rows(blocks, view) is view
        assert np.array_equal(view, output_jacobian(net, x))

    @pytest.mark.parametrize("seeds_shape", [
        (5, 3, 2),  # seeds for another batch size
        (4, 2, 2),  # seeds for another output count
        (4, 3),  # not one seed matrix per example
    ])
    def test_rejects_misshapen_seeds(self, seeds_shape):
        net = Network.init_random([2, 6, 3], "tanh", Rng(45))
        x = Rng(46).standard_normal((4, 2))
        with pytest.raises(ValueError):
            output_jacobian(net, x, seeds=np.ones(seeds_shape))

    def test_matches_finite_differences(self):
        rng = Rng(31)
        net = Network.init_random([2, 4, 3], "tanh", rng)
        x = rng.standard_normal(2)
        jac = output_jacobian(net, x)
        theta = net.flatten_params()
        eps = 1e-6
        fd = np.zeros_like(jac)
        for p in range(theta.size):
            hi, lo = theta.copy(), theta.copy()
            hi[p] += eps
            lo[p] -= eps
            fd[:, p] = (
                forward(net.with_flat_params(hi), x[None]).output[0]
                - forward(net.with_flat_params(lo), x[None]).output[0]
            ) / (2 * eps)
        assert relative_error(jac, fd) <= 1e-6

    def test_first_order_prediction_quadratic_error(self):
        # J @ delta predicts f(theta+delta) - f(theta) with O(||delta||^2)
        # error: halving delta should shrink the error about fourfold.
        rng = Rng(37)
        net = Network.init_random([2, 6, 2], "tanh", rng)
        x = rng.standard_normal(2)
        jac = output_jacobian(net, x)
        theta = net.flatten_params()
        delta = 0.01 * rng.standard_normal(theta.size)
        base = forward(net, x[None]).output[0]

        def error(d):
            moved = forward(net.with_flat_params(theta + d), x[None]).output[0]
            return np.linalg.norm(moved - base - jac @ d)

        e1, e2 = error(delta), error(delta / 2)
        assert e2 <= e1 / 3.0  # about 4x reduction, allow slack


class TestSaveLoad:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        net = random_network(rng)
        path = tmp_path / "model.txt"
        save(net, str(path))
        loaded = load(str(path))
        x = rng.standard_normal((5, net.input_dim))
        assert np.array_equal(forward(net, x).output, forward(loaded, x).output)
        assert np.array_equal(net.flatten_params(), loaded.flatten_params())

    def test_row_format_matches_per_value_formatting(self, tmp_path):
        net = random_network(Rng(7), max_layers=4, max_units=12, min_hidden=2)
        # finite specials in one row: signed zeros, subnormals, extremes
        weights = [w.copy() for w in net.weights]
        specials = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300,
                    -1.5e-7, 1.0 / 3.0]
        weights[0] = np.resize(np.array(specials), weights[0].shape)
        net = Network(net.specs, weights, net.biases)
        path = tmp_path / "model.txt"
        save(net, str(path))
        # the per-value formatter the row format replaced
        expected = ["lula-lab-model v1", f"num_layers {net.num_layers}"]
        for i, spec in enumerate(net.specs):
            expected.append(
                f"layer {i} in {spec.in_dim} out {spec.out_dim} "
                f"activation {spec.activation}"
            )
            expected.append(f"W {spec.out_dim} {spec.in_dim}")
            for row in net.weights[i]:
                expected.append(" ".join(format(float(v), ".17g") for v in row))
            expected.append(f"b {spec.out_dim}")
            expected.append(" ".join(format(float(v), ".17g") for v in net.biases[i]))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")
        loaded = load(str(path))
        for mine, theirs in zip(
            net.weights + net.biases, loaded.weights + loaded.biases
        ):
            assert mine.tobytes() == theirs.tobytes()  # bitwise, signed zeros included

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("layer, part", [(0, "W"), (0, "b"), (2, "W"), (2, "b")])
    def test_save_refuses_non_finite_values(self, tmp_path, layer, part, value):
        # load refuses a NaN or infinite value, so save never writes one
        net = random_network(Rng(7), max_layers=4, max_units=12, min_hidden=2)
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        (weights if part == "W" else biases)[layer].flat[-1] = value
        net = Network(net.specs, weights, biases)
        path = tmp_path / "model.txt"
        with pytest.raises(ValueError, match=f"layer {layer} {part} holds a non-finite"):
            save(net, str(path))
        assert not path.exists()

    def test_truncated_file(self, rng, tmp_path):
        net = random_network(rng)
        path = tmp_path / "model.txt"
        save(net, str(path))
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(ModelFormatError):
            load(str(path))

    def test_unknown_activation(self, tmp_path):
        net = single_layer([[1.0]], [0.0])
        path = tmp_path / "model.txt"
        save(net, str(path))
        path.write_text(path.read_text().replace("identity", "swish"))
        with pytest.raises(ModelFormatError):
            load(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something-else v1\n")
        with pytest.raises(ModelFormatError):
            load(str(path))

    def test_version_mismatch(self, rng, tmp_path):
        net = random_network(rng)
        path = tmp_path / "model.txt"
        save(net, str(path))
        path.write_text(path.read_text().replace("v1", "v9"))
        with pytest.raises(ModelFormatError):
            load(str(path))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"lula-lab-model v1\n\xff\xfe\n")
        with pytest.raises(ModelFormatError, match="not UTF-8 text"):
            load(str(path))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("layer 0 in 2 out 3", "layer 0 in x out 3",
             "line 3: layer 0 header: invalid literal for int() with base 10: 'x'"),
            ("layer 1 in 3 out 2 activation identity",
             "layer 1 in 3 out 2 activation relu",
             "line 10: layer 1 is the output layer, whose activation must be "
             "identity, not 'relu'"),
            ("layer 0 in 2 out 3", "layer 0 in 2 out 0",
             "line 3: layer 0: layer dimensions must be positive"),
            ("layer 1 in 3", "layer 1 in 4",
             "line 10: layer 1 reads 4 inputs, but layer 0 has 3 outputs"),
        ],
        ids=["non-integer width", "non-identity output", "zero width", "broken chain"],
    )
    def test_malformed_layer_header_names_file_and_line(self, tmp_path, old, new, message):
        path = tmp_path / "model.txt"
        save(Network.init_random([2, 3, 2], "relu", Rng(0)), str(path))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ModelFormatError) as caught:
            load(str(path))
        assert str(caught.value) == f"{path}, {message}"


class TestNetworkValidation:
    def test_last_layer_must_be_identity(self):
        with pytest.raises(ValueError):
            Network([LayerSpec(2, 2, "relu")], [np.eye(2)], [np.zeros(2)])

    def test_dimension_chain_checked(self):
        specs = [LayerSpec(2, 3, "relu"), LayerSpec(4, 1, "identity")]
        with pytest.raises(ValueError):
            Network(
                specs,
                [np.zeros((3, 2)), np.zeros((1, 4))],
                [np.zeros(3), np.zeros(1)],
            )

    def test_param_count(self):
        net = Network.init_random([2, 5, 3], "relu", Rng(0))
        assert net.num_params == 5 * 3 + 3 * 6  # 2->5 weights+bias, 5->3
        assert net.flatten_params().size == net.num_params
