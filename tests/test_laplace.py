import tracemalloc

import numpy as np
import pytest

from conftest import (
    curvature_from_matrix,
    dense_ggn,
    kron_factors,
    loop_output_jacobian,
    relative_error,
)
from lula_lab import laplace
from lula_lab.laplace import (
    DEFAULT_LAMBDA_GRID,
    FULL_GGN_CAP,
    Curvature,
    TUNE_OBJECTIVES,
    PredictConfig,
    Predictive,
    build_posterior,
    fit_curvature,
    last_layer_mean,
    linearized_variance_batch,
    mc_predict,
    mc_predict_sets,
    predictive_log_likelihood,
    probit_predict_binary,
    tune_prior_precision,
)
from lula_lab.network import (
    LayerSpec,
    Network,
    augment_ones,
    forward,
    output_jacobian,
)
from lula_lab.numerics import Rng
from lula_lab.training import (
    LossKind,
    map_loss,
    output_hessian_roots,
    output_hessians,
    sigmoid,
    softmax,
)


def linear_net(weight, bias):
    w = np.atleast_2d(np.asarray(weight, dtype=float))
    return Network(
        [LayerSpec(w.shape[1], w.shape[0], "identity")],
        [w],
        [np.asarray(bias, dtype=float).ravel()],
    )


def marginal_variances(post):
    return post.quad_forms(np.eye(post.dim))


def fd_hessian(f, theta, eps=1e-4):
    d = theta.size
    h = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            pp = theta.copy(); pp[i] += eps; pp[j] += eps
            pm = theta.copy(); pm[i] += eps; pm[j] -= eps
            mp = theta.copy(); mp[i] -= eps; mp[j] += eps
            mm = theta.copy(); mm[i] -= eps; mm[j] -= eps
            h[i, j] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * eps * eps)
    return h


def loop_ggn(net, x, loss):
    """Oracle all-layers GGN: sum over examples of J^T Lambda J."""
    lambdas = output_hessians(loss, forward(net, x).output)
    acc = np.zeros((net.num_params, net.num_params))
    for i in range(x.shape[0]):
        jac = loop_output_jacobian(net, x[i])
        acc += jac.T @ lambdas[i] @ jac
    return acc


def root_width(loss, k):
    """Rows per example of the stacked GGN root R: the rank of Lambda_x,
    whose softmax shift direction carries no curvature."""
    return {"categorical_ce": k - 1, "binary_ce": 1, "gaussian_nll": k}[loss.kind]


# (loss, number of outputs) for each likelihood
LOSS_CASES = [
    pytest.param(LossKind("categorical_ce"), 3, id="categorical"),
    pytest.param(LossKind("binary_ce"), 1, id="binary"),
    pytest.param(LossKind("gaussian_nll", 2.5), 3, id="gaussian"),
]


class TestFitCurvature:
    def test_gaussian_single_point_outer_product(self):
        # For a linear model the GGN equals the exact loss Hessian, so the
        # finite-difference Hessian of the data term is the oracle here.
        net = linear_net([[0.7, -0.3]], [0.2])
        x = np.array([[1.5, -2.0]])
        y = np.array([[0.4]])
        loss = LossKind("gaussian_nll", 1.0)
        curv = fit_curvature(net, x, loss, "full_ggn", "last_layer")
        xbar = np.array([1.5, -2.0, 1.0])
        ggn = dense_ggn(curv)
        assert np.allclose(ggn, np.outer(xbar, xbar), atol=1e-12)

        def data_term(theta):
            value, _ = map_loss(net.with_flat_params(theta), x, y, loss, 0.0)
            return value

        fd = fd_hessian(data_term, net.flatten_params())
        assert relative_error(ggn, fd) <= 1e-6

    def test_binary_ce_factor_at_zero_logit(self):
        net = linear_net([[0.0, 0.0]], [0.0])
        x = np.array([[2.0, -1.0]])
        curv = fit_curvature(net, x, LossKind("binary_ce"), "full_ggn", "last_layer")
        hbar = np.array([2.0, -1.0, 1.0])
        assert np.allclose(dense_ggn(curv), 0.25 * np.outer(hbar, hbar), atol=1e-12)
        kf = fit_curvature(net, x, LossKind("binary_ce"), "kfac_last_layer")
        # one point: G = 0.25 and A = hbar hbar^T, so kron(G, A) is the GGN
        assert np.allclose(dense_ggn(kf), 0.25 * np.outer(hbar, hbar), atol=1e-12)

    def test_zero_feature_gives_zero_rows(self):
        net = linear_net([[0.3, 0.4]], [0.0])
        x = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        curv = fit_curvature(net, x, LossKind("gaussian_nll"), "full_ggn", "last_layer")
        ggn = dense_ggn(curv)
        assert np.array_equal(ggn[1], np.zeros(3))
        assert np.array_equal(ggn[:, 1], np.zeros(3))

    def test_diag_matches_full_diagonal(self):
        rng = Rng(2)
        net = Network.init_random([3, 5, 2], "tanh", rng)
        x = rng.standard_normal((20, 3))
        loss = LossKind("categorical_ce")
        for subset in ("last_layer", "all_layers"):
            full = fit_curvature(net, x, loss, "full_ggn", subset)
            diag = fit_curvature(net, x, loss, "diag_ggn", subset)
            assert np.allclose(diag.spectrum, np.diag(dense_ggn(full)), atol=1e-10)

    def test_all_layers_matches_fd_hessian_linear_model(self):
        # multi-output linear model: GGN == exact Hessian over all params
        net = linear_net([[0.5, 0.1], [-0.2, 0.3]], [0.0, 0.1])
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        y = np.array([0, 1])
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "full_ggn", "all_layers")

        def data_term(theta):
            value, _ = map_loss(net.with_flat_params(theta), x, y, loss, 0.0)
            return value

        fd = fd_hessian(data_term, net.flatten_params())
        assert relative_error(dense_ggn(curv), fd) <= 1e-5

    def test_kfac_requires_last_layer(self):
        net = linear_net([[1.0]], [0.0])
        with pytest.raises(ValueError):
            fit_curvature(net, np.ones((1, 1)), LossKind("gaussian_nll"),
                          "kfac_last_layer", "all_layers")

    def test_dimension_cap(self):
        # the cap bounds the stored min(n r, d) x d array, not d alone; a
        # categorical point adds r = k - 1 rows
        net = Network.init_random([50, 60, 60, 2], "relu", Rng(0))
        loss = LossKind("categorical_ce")
        d = net.num_params
        assert d > FULL_GGN_CAP
        # parameter space (n r >= d): a d x d array over the cap is refused
        with pytest.raises(ValueError, match="exceeds cap"):
            fit_curvature(net, np.ones((d, 50)), loss, "full_ggn", "all_layers")
        # data space (n r < d): d - 1 rows of d floats are over the cap too
        with pytest.raises(ValueError, match="exceeds cap"):
            fit_curvature(net, np.ones((d - 1, 50)), loss, "full_ggn", "all_layers")
        # data space with one point: 1 row of d floats fits
        curv = fit_curvature(net, np.ones((1, 50)), loss, "full_ggn", "all_layers")
        assert curv.spectrum.shape == (1,) and curv.basis.u.shape == (1, 1)
        post = build_posterior(curv, 1.0)
        draws = post.sample(Rng(1), 3)
        assert draws.shape == (3, d)
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("subset", ["last_layer", "all_layers"])
    def test_dimension_cap_counts_root_rows(self, monkeypatch, subset):
        # a 3-class [2, 4, 3] net: d = 15 (last layer) or 27 (all layers)
        # and 2 rows per point; the cap admits 2 n d <= cap**2 exactly
        net = Network.init_random([2, 4, 3], "tanh", Rng(1))
        x = Rng(2).standard_normal((7, 2))
        loss = LossKind("categorical_ce")
        d = 15 if subset == "last_layer" else net.num_params
        n = 5 if subset == "last_layer" else 6
        cap = int(np.ceil(np.sqrt(2 * n * d)))
        assert 2 * n * d <= cap**2 < 2 * (n + 1) * d
        monkeypatch.setattr(laplace, "FULL_GGN_CAP", cap)
        curv = fit_curvature(net, x[:n], loss, "full_ggn", subset)
        assert curv.dim == d and curv.spectrum.size == 2 * n
        assert curv.basis.u.shape == (2 * n, 2 * n)
        with pytest.raises(ValueError, match="exceeds cap"):
            fit_curvature(net, x[: n + 1], loss, "full_ggn", subset)

    def test_kfac_exact_for_gaussian(self):
        # constant output factor makes the Kronecker split exact
        rng = Rng(3)
        net = Network.init_random([2, 4, 3], "tanh", rng)
        x = rng.standard_normal((15, 2))
        loss = LossKind("gaussian_nll", 2.0)
        full = fit_curvature(net, x, loss, "full_ggn", "last_layer")
        kf = fit_curvature(net, x, loss, "kfac_last_layer")
        assert np.allclose(dense_ggn(kf), dense_ggn(full), atol=1e-10)
        assert np.allclose(dense_ggn(kf), np.kron(*kron_factors(net, x, loss)),
                           atol=1e-10)


# The [3, 6, 5, k] nets of TestAllLayersGGN have d = 59 + 6 k parameters, so
# 20 curvature points hold the full GGN in data space (n r < d, r the root
# width) and 80 hold it in parameter space.
class TestAllLayersGGN:
    @pytest.mark.parametrize("loss, k, n", [
        *[pytest.param(*case.values, 20, id=case.id) for case in LOSS_CASES],
        *[pytest.param(*case.values, 80, id=f"{case.id}-parameter")
          for case in LOSS_CASES],
    ])
    def test_matches_per_example_loop(self, loss, k, n):
        rng = Rng(21)
        net = Network.init_random([3, 6, 5, k], "tanh", rng)
        x = 2.0 * rng.standard_normal((n, 3))
        expected = loop_ggn(net, x, loss)
        full = dense_ggn(fit_curvature(net, x, loss, "full_ggn", "all_layers"))
        diag = fit_curvature(net, x, loss, "diag_ggn", "all_layers").spectrum
        assert relative_error(full, expected) <= 1e-10
        assert relative_error(diag, np.diag(expected)) <= 1e-10
        assert np.array_equal(full, full.T)

    @pytest.mark.parametrize("subset", laplace.SUBSETS)
    @pytest.mark.parametrize("kind, n", [
        pytest.param("full_ggn", 20, id="full_ggn"),
        pytest.param("diag_ggn", 20, id="diag_ggn"),
        pytest.param("full_ggn", 80, id="full_ggn-parameter"),
    ])
    def test_chunk_invariance(self, monkeypatch, kind, n, subset):
        # the last layer's 18 parameters put its full fits in parameter
        # space, where its rows take the same chunked loop as all layers'
        rng = Rng(22)
        net = Network.init_random([3, 6, 5, 3], "tanh", rng)
        x = rng.standard_normal((n, 3))
        loss = LossKind("categorical_ce")
        r = 2  # the fit's rows per point: the root width of three classes
        dim = laplace._subset_dim(net, subset)

        def chunk_rows():
            chunks = laplace._jacobian_chunks(n, r, dim)
            return [points.stop - points.start for points, _ in chunks]

        assert chunk_rows() == [n]
        whole = fit_curvature(net, x, loss, kind, subset)
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", 7 * 8 * r * dim)
        assert chunk_rows() == [7] * (n // 7) + [n % 7]  # the last one shorter
        chunked = fit_curvature(net, x, loss, kind, subset)
        if kind == "full_ggn":
            ggn = dense_ggn(chunked)
            assert relative_error(ggn, dense_ggn(whole)) <= 1e-12
            assert np.array_equal(ggn, ggn.T)
        else:
            assert relative_error(chunked.spectrum, whole.spectrum) <= 1e-12

    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_data_space_holds_no_d_wide_row(self, loss, k):
        # data space holds R's per-layer factors, the Gram K and U: the fit
        # peaks at 4 (n r)^2 floats (K, one layer product, eigh's U and
        # workspace) beside the factors, and linearize at 4 m k n r (the
        # kernel rows, one layer product, P and its product) beside the
        # points' factors. On these nets (d > 10^4) either bound is below
        # one (n r, d) R or one (m, k, d) Jacobian of the points.
        rng = Rng(38)
        net = Network.init_random([2, 100, 100, k], "relu", rng)
        n = m = 200
        x = 2.0 * rng.standard_normal((n, 2))
        points = rng.standard_normal((m, 2))
        rows, d = n * root_width(loss, k), net.num_params
        outs = sum(spec.out_dim for spec in net.specs)
        ins = sum(spec.in_dim for spec in net.specs)
        tracemalloc.start()
        try:
            curv = fit_curvature(net, x, loss, "full_ggn", "all_layers")
            held, fit_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            laplace.linearize(net, curv, points)
            _, linearize_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # data space; the basis keeps only the Gram's range, at most n r
        assert curv.spectrum.size <= rows < d
        fit_bound = 8 * (4 * rows**2 + rows * outs + n * ins) + 2**20
        assert fit_bound < 8 * rows * d
        assert fit_peak <= fit_bound
        linearize_bound = 8 * (4 * m * k * rows + m * k * outs + m * ins) + 2**20
        assert linearize_bound < 8 * m * k * d
        assert linearize_peak - held <= linearize_bound

    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_output_hessian_roots(self, loss, k):
        outputs = 3.0 * Rng(23).standard_normal((50, k))
        roots = output_hessian_roots(loss, outputs)
        lambdas = output_hessians(loss, outputs)
        assert roots.shape == (50, k, root_width(loss, k))
        assert np.max(np.abs(roots @ roots.transpose(0, 2, 1) - lambdas)) <= 1e-15
        if loss.kind == "categorical_ce":
            # no column has a component along the softmax shift: L^T 1 = 0
            assert np.max(np.abs(roots.sum(axis=1))) <= 1e-15

    def test_two_class_data_space_stores_one_row_per_point(self):
        # a [2, 6, 5, 2] net has d = 65 parameters; 30 points give 30 rows
        # (r = 1), not 60
        rng = Rng(25)
        net = Network.init_random([2, 6, 5, 2], "tanh", rng)
        x = 2.0 * rng.standard_normal((30, 2))
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "full_ggn", "all_layers")
        assert curv.spectrum.size == 30 and curv.basis.u.shape == (30, 30)
        expected = oracle_ggn(net, x, loss, "all_layers")
        assert relative_error(dense_ggn(curv), expected) <= 1e-12

    @pytest.mark.parametrize("kind, subset", [
        ("full_ggn", "last_layer"), ("full_ggn", "all_layers"),
        ("diag_ggn", "last_layer"), ("diag_ggn", "all_layers"),
        ("kfac_last_layer", "last_layer"),
    ])
    def test_one_class_gives_the_prior_only_posterior(self, kind, subset):
        # a one-class softmax is constant, so its roots have width 0 and
        # the posterior is the prior N(theta*, I / lambda)
        rng = Rng(26)
        net = Network.init_random([2, 5, 1], "tanh", rng)
        x = rng.standard_normal((8, 2))
        loss = LossKind("categorical_ce")
        assert output_hessian_roots(loss, forward(net, x).output).shape == (8, 1, 0)
        curv = fit_curvature(net, x, loss, kind, subset)
        post = build_posterior(curv, 4.0)
        assert np.allclose(marginal_variances(post), 0.25, rtol=1e-14, atol=0.0)
        samples = post.sample(Rng(27), 5)
        assert samples.shape == (5, post.dim) and np.all(np.isfinite(samples))
        z = Rng(27).standard_normal((5, post.dim))
        assert np.allclose(samples, curv.mean + 0.5 * z, rtol=0.0, atol=1e-15)


def factor_floats(net, subset, r):
    """Floats per point of the row factors over ``subset``, r seed columns:
    r out + in summed over the blocks (the last layer's in counts its bias
    column)."""
    if subset == "all_layers":
        return sum(r * spec.out_dim + spec.in_dim for spec in net.specs)
    return r * net.output_dim + net.specs[-1].in_dim + 1


class TestDiagonalFromFactors:
    @pytest.mark.parametrize("subset", laplace.SUBSETS)
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_matches_the_row_oracle_in_chunks(self, monkeypatch, loss, k, subset):
        # the column sums of the squared rows L_x^T J_x, written whole,
        # against the diagonal read from the factors of 5-point chunks
        rng = Rng(41)
        net = Network.init_random([3, 6, 5, k], "tanh", rng)
        n = 23
        x = 2.0 * rng.standard_normal((n, 3))
        roots = output_hessian_roots(loss, forward(net, x).output)
        rows = output_jacobian(net, x, seeds=roots)
        if subset == "last_layer":
            # the output layer's columns, reordered as the augmented [W | b]
            w_size = k * net.specs[-1].in_dim
            top = rows[:, :, net.num_params - w_size - k :]
            weights = top[:, :, :w_size].reshape(n, -1, k, w_size // k)
            rows = np.concatenate([weights, top[:, :, w_size:, None]], axis=3)
        expected = np.square(rows.reshape(-1, laplace._subset_dim(net, subset))).sum(axis=0)
        chunks = []
        original = laplace._row_factors

        def recording(net, subset, x, hbar, seeds, points):
            chunks.append(points.stop - points.start)
            return original(net, subset, x, hbar, seeds, points)

        monkeypatch.setattr(laplace, "_row_factors", recording)
        budget = 8 * 2 * factor_floats(net, subset, root_width(loss, k))
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", 5 * budget)
        diag = fit_curvature(net, x, loss, "diag_ggn", subset).spectrum
        assert chunks == [5, 5, 5, 5, 3]
        assert np.max(np.abs(diag - expected) / expected) <= 1e-13

    @pytest.mark.parametrize("subset, loss, k", [
        *[pytest.param("all_layers", *case.values, id=f"all-{case.id}")
          for case in LOSS_CASES],
        # a last-layer row has r k F floats against r k + F factor floats,
        # so only many outputs set the two apart
        pytest.param("last_layer", LossKind("categorical_ce"), 10, id="last-categorical"),
        pytest.param("last_layer", LossKind("gaussian_nll", 2.5), 10, id="last-gaussian"),
    ])
    def test_holds_no_d_wide_row(self, monkeypatch, subset, loss, k):
        # chunks of m = 40 points: the factor loop holds a chunk's factors,
        # the sweep's forward pass and the squares beside the diagonal,
        # within a small multiple of the chunk budget and below one
        # (m, r, d) chunk of rows
        rng = Rng(42)
        net = Network.init_random([2, 100, 100, k], "relu", rng)
        n, m = 210, 40
        x = 2.0 * rng.standard_normal((n, 2))
        r, d = root_width(loss, k), laplace._subset_dim(net, subset)
        budget = m * 8 * 2 * factor_floats(net, subset, r)
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", budget)
        original, peaks = laplace._factor_diagonal, []

        def traced(*args):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            diag = original(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return diag

        monkeypatch.setattr(laplace, "_factor_diagonal", traced)
        tracemalloc.start()
        try:
            fit_curvature(net, x, loss, "diag_ggn", subset)
        finally:
            tracemalloc.stop()
        bound = 2 * budget + 8 * d
        assert bound < 8 * m * r * d
        assert peaks[0] <= bound


class TestBuildPosterior:
    def test_prior_only(self):
        curv = curvature_from_matrix(np.zeros((3, 3)))
        post = build_posterior(curv, 2.0)
        assert np.allclose(marginal_variances(post), 0.5 * np.ones(3), atol=1e-12)

    def test_identity_curvature(self):
        curv = curvature_from_matrix(np.eye(2))
        post = build_posterior(curv, 1.0)
        assert np.allclose(marginal_variances(post), 0.5 * np.ones(2), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_kfac_marginals_match_dense_inverse(self, k):
        # the eigenbasis covariance against the explicit dense inverse of
        # kron(G, A) + lambda I: marginals and every point's output covariance
        rng = Rng(4)
        net = Network.init_random([2, 4, k], "tanh", rng)
        x = rng.standard_normal((25, 2))
        loss = LossKind("binary_ce" if k == 1 else "categorical_ce")
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        dense = np.kron(*kron_factors(net, x, loss))
        points = rng.standard_normal((5, 2))
        lin = laplace.linearize(net, curv, points)
        jacs = dense_jacobians(net, "last_layer", k, points)
        for lam in (0.37,) + DEFAULT_LAMBDA_GRID[4::4]:
            post = build_posterior(curv, lam)
            oracle = np.linalg.inv(dense + lam * np.eye(post.dim))
            scale = np.max(np.abs(oracle))
            expected = jacs @ oracle @ jacs.transpose(0, 2, 1)
            assert relative_error(post.output_cov(lin), expected) <= 1e-10, lam
            marginals = marginal_variances(post)
            assert np.max(np.abs(marginals - np.diag(oracle))) <= 1e-10 * scale

    def test_kfac_beyond_full_ggn_cap(self):
        # k F = 10 * 600 = 6000 > FULL_GGN_CAP: the eigenbasis never forms
        # a kF x kF matrix, so the linearized variance is still available
        rng = Rng(21)
        net = Network.init_random([4, 599, 10], "tanh", rng)
        x = rng.standard_normal((30, 4))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), "kfac_last_layer")
        post = build_posterior(curv, 1.0)
        assert post.dim > FULL_GGN_CAP
        points = rng.standard_normal((5, 4))
        v = linearized_variance_batch(net, post, points)
        hbar = np.concatenate(
            [forward(net, points).activations[-2], np.ones((5, 1))], axis=1
        )
        expected = post.quad_forms(np.kron(np.eye(10)[3], hbar))
        assert v.shape == (5, 10)
        assert np.allclose(v[:, 3], expected, rtol=1e-10, atol=0.0)

    def test_kfac_small_prior_precision_singular_factor(self):
        # categorical output factors are singular (the softmax shift
        # direction), so a small lambda alone holds the precision up there
        rng = Rng(22)
        net = Network.init_random([2, 5, 3], "tanh", rng)
        x = rng.standard_normal((20, 2))
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        assert np.min(np.linalg.eigvalsh(kron_factors(net, x, loss)[0])) <= 1e-12
        lam = 1e-6
        post = build_posterior(curv, lam)
        v = linearized_variance_batch(net, post, rng.standard_normal((8, 2)))
        assert np.all(np.isfinite(v)) and np.all(v >= 0.0)
        oracle = np.linalg.inv(dense_ggn(curv) + lam * np.eye(curv.dim))
        assert relative_error(marginal_variances(post), np.diag(oracle)) <= 1e-8
        # the null eigenvalue of G is round-off, so the draws along the
        # softmax shift have about the prior variance 1 / lam
        assert np.max(curv.spectrum.reshape(3, -1)[0]) <= 1e-15
        draws = post.sample(Rng(0), 100)
        assert np.max(np.abs(draws - post.mean)) <= 1e6

    @pytest.mark.parametrize("matrix", [[[-10.0]], [[1.0, 0.0], [0.0, -1e-12]]],
                             ids=["negative", "round-off"])
    def test_negative_curvature_fails(self, matrix):
        # fit_curvature clips round-off at 0, so a negative entry is a
        # curvature built by hand, and no prior precision mends it
        curv = curvature_from_matrix(np.array(matrix))
        with pytest.raises(ValueError, match="negative or NaN entry"):
            build_posterior(curv, 0.1)

    def test_negative_kronecker_factor_fails(self):
        curv = TestSampling()._curvature("kfac_last_layer")
        curv.spectrum = np.concatenate([[-1e-12], curv.spectrum[1:]])
        with pytest.raises(ValueError, match="negative or NaN entry"):
            build_posterior(curv, 0.1)

    @pytest.mark.parametrize("lam", [np.nan, -1.0, 0.0, np.inf, 1e-310],
                             ids=["nan", "negative", "zero", "inf", "subnormal"])
    def test_invalid_prior_precision_raises_value_error(self, lam):
        # NaN fails every comparison; 1e-310 is positive, but its prior
        # variance 1 / lambda overflows to inf
        with pytest.raises(ValueError, match="must be a finite positive number"):
            build_posterior(curvature_from_matrix(np.eye(2)), lam)

    def test_variance_monotone_in_prior_precision(self):
        rng = Rng(5)
        net = Network.init_random([2, 4, 2], "tanh", rng)
        x = rng.standard_normal((10, 2))
        loss = LossKind("categorical_ce")
        for kind in ("full_ggn", "diag_ggn", "kfac_last_layer"):
            curv = fit_curvature(net, x, loss, kind, "last_layer")
            previous = None
            for lam in DEFAULT_LAMBDA_GRID:
                var = marginal_variances(build_posterior(curv, lam))
                if previous is not None:
                    assert np.all(var <= previous + 1e-12), kind
                previous = var


def loop_last_layer_ggn(net, x, loss):
    """Oracle last-layer GGN: sum over examples of Lambda_x kron hbar hbar^T."""
    trace = forward(net, x)
    hbar = augment_ones(trace.activations[-2])
    lambdas = output_hessians(loss, trace.output)
    return sum(np.kron(lam, np.outer(h, h)) for lam, h in zip(lambdas, hbar))


def oracle_ggn(net, x, loss, subset):
    return (loop_ggn if subset == "all_layers" else loop_last_layer_ggn)(net, x, loss)


# (subset, curvature points) around n r = d for the [2, 5, 4, k] nets of
# TestFullGGNEigenbasis: d = 5 k for the last layer, 39 + 5 k for all
# layers, and r the root width (k - 1 categorical, 1 binary, k Gaussian).
# The fit is in data space when n r < d; n r = d itself is held in parameter
# space. None stands for n = d / r, the all-layers boundary of every
# likelihood; five last-layer points are that boundary for the binary and
# Gaussian likelihoods and data space for the categorical one.
SIDE_CASES = [
    pytest.param("last_layer", 3, id="last-data"),
    pytest.param("last_layer", 5, id="last-boundary"),
    pytest.param("last_layer", 60, id="last-parameter"),
    pytest.param("all_layers", 6, id="all-data"),
    pytest.param("all_layers", None, id="all-boundary"),
    pytest.param("all_layers", 60, id="all-parameter"),
]


class TestFullGGNEigenbasis:
    def _instance(self, subset, n, loss, k=3, seed=31):
        """(net, x, curvature, data space) for one SIDE_CASES entry."""
        rng = Rng(seed)
        net = Network.init_random([2, 5, 4, k], "tanh", rng)
        dim = net.num_params if subset == "all_layers" else 5 * k
        r = root_width(loss, k)
        if n is None:
            n = dim // r
            assert n * r == dim
        x = 2.0 * rng.standard_normal((n, 2))
        curv = fit_curvature(net, x, loss, "full_ggn", subset)
        data_space = n * r < dim
        assert (curv.spectrum.size < curv.dim) == data_space
        return net, x, curv, data_space

    @pytest.mark.parametrize("subset, n", SIDE_CASES)
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_matches_dense_inverse_over_grid(self, subset, n, loss, k):
        net, x, curv, _ = self._instance(subset, n, loss, k)
        ggn, dim = oracle_ggn(net, x, loss, subset), curv.dim
        vectors = Rng(32).standard_normal((6, dim))
        points = Rng(33).standard_normal((5, 2))
        lin = laplace.linearize(net, curv, points)
        jacs = dense_jacobians(net, subset, k, points)
        for lam in DEFAULT_LAMBDA_GRID:
            post = build_posterior(curv, lam)
            oracle = np.linalg.inv(ggn + lam * np.eye(dim))
            scale = np.max(np.abs(oracle))
            marginals = marginal_variances(post)
            assert np.max(np.abs(marginals - np.diag(oracle))) <= 1e-9 * scale, lam
            expected = np.einsum("ij,jk,ik->i", vectors, oracle, vectors)
            quad = post.quad_forms(vectors)
            assert np.max(np.abs(quad - expected)) <= 1e-9 * np.max(expected), lam
            covs = jacs @ oracle @ jacs.transpose(0, 2, 1)
            error = np.max(np.abs(post.output_cov(lin) - covs))
            assert error <= 1e-9 * np.max(np.abs(covs)), lam

    @pytest.mark.parametrize("dims, subset", [
        pytest.param([2, 5, 4, 3], "last_layer", id="last"),
        pytest.param([2, 3], "all_layers", id="all-linear"),
    ])
    def test_small_prior_precision_full_rank(self, dims, subset):
        # Gaussian likelihood and more rows than parameters: the GGN is
        # nonsingular, so a small lambda leaves it well conditioned
        rng = Rng(33)
        net = Network.init_random(dims, "tanh", rng)
        x = 2.0 * rng.standard_normal((60, 2))
        loss = LossKind("gaussian_nll", 2.5)
        curv = fit_curvature(net, x, loss, "full_ggn", subset)
        lam = 1e-6
        ggn = oracle_ggn(net, x, loss, subset)
        oracle = np.linalg.inv(ggn + lam * np.eye(curv.dim))
        post = build_posterior(curv, lam)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(marginal_variances(post) - np.diag(oracle))) <= 1e-9 * scale
        vectors = rng.standard_normal((5, post.dim))
        expected = np.einsum("ij,jk,ik->i", vectors, oracle, vectors)
        assert np.max(np.abs(post.quad_forms(vectors) - expected)) <= 1e-9 * np.max(expected)

    @pytest.mark.parametrize("subset, n", SIDE_CASES)
    def test_fit_clips_round_off_at_zero(self, subset, n):
        # eigh gives the null directions of a categorical GGN round-off of
        # either sign (down to -2.3e-15 in parameter space here); a GGN is
        # positive semidefinite, so the fit holds them as 0
        net, x, curv, _ = self._instance(subset, n, LossKind("categorical_ce"))
        assert np.all(curv.spectrum >= 0.0)
        ggn = oracle_ggn(net, x, LossKind("categorical_ce"), subset)
        assert relative_error(dense_ggn(curv), ggn) <= 1e-12

    @pytest.mark.parametrize("subset, n", SIDE_CASES)
    def test_small_prior_precision_rank_deficient(self, subset, n):
        # categorical GGNs are singular (the softmax shift direction); data
        # space adds d - n r null directions; each carries 1 / lambda
        loss = LossKind("categorical_ce")
        net, x, curv, _ = self._instance(subset, n, loss)
        lam = 1e-6
        post = build_posterior(curv, lam)
        ggn = oracle_ggn(net, x, loss, subset)
        oracle = np.linalg.inv(ggn + lam * np.eye(curv.dim))
        var = marginal_variances(post)
        assert relative_error(var, np.diag(oracle)) <= 1e-8
        v = linearized_variance_batch(net, post, Rng(34).standard_normal((8, 2)))
        assert np.all(np.isfinite(v)) and np.all(v >= 0.0)

    @pytest.mark.parametrize("subset, n", SIDE_CASES)
    def test_empirical_covariance(self, subset, n):
        loss = LossKind("categorical_ce")
        net, x, curv, _ = self._instance(subset, n, loss)
        post = build_posterior(curv, 0.5)
        samples = post.sample(Rng(35), 10000)
        emp = np.cov(samples.T, bias=True)
        oracle = np.linalg.inv(oracle_ggn(net, x, loss, subset) + 0.5 * np.eye(post.dim))
        assert np.linalg.norm(emp - oracle) / np.linalg.norm(oracle) <= 0.10

    @pytest.mark.parametrize("subset, n", SIDE_CASES)
    def test_draws_are_the_symmetric_square_root(self, subset, n):
        # both sides map the same z = standard_normal((count, d)) through the
        # symmetric root of Sigma, so they draw the same samples
        loss = LossKind("categorical_ce")
        net, x, curv, _ = self._instance(subset, n, loss)
        ggn = oracle_ggn(net, x, loss, subset)
        for lam in (1e-2, 1.0, 1e2):
            w, v = np.linalg.eigh(ggn + lam * np.eye(curv.dim))
            root = (v / np.sqrt(w)) @ v.T
            z = Rng(36).standard_normal((5, curv.dim))
            samples = build_posterior(curv, lam).sample(Rng(36), 5)
            assert relative_error(samples - curv.mean, z @ root) <= 1e-9, lam

    @pytest.mark.parametrize("subset, n", SIDE_CASES)
    def test_tuning_makes_no_cholesky_calls(self, monkeypatch, subset, n):
        # every kind holds its precision as a spectrum, so neither the lambda
        # sweep nor a Kronecker build and draw factors a matrix
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky was called")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        loss = LossKind("categorical_ce")
        net, x, curv, _ = self._instance(subset, n, loss)
        labels = np.arange(x.shape[0]) % 3
        _, scores = tune_prior_precision(
            net, curv, x, labels, loss, predict_cfg=PredictConfig("mc", 8, 0)
        )
        assert len(scores) == len(DEFAULT_LAMBDA_GRID) == 17
        post = build_posterior(fit_curvature(net, x, loss, "kfac_last_layer"), 1.0)
        assert np.all(np.isfinite(post.sample(Rng(0), 4)))

    def test_default_dims_stay_below_one_dense_matrix(self):
        # 2,64,64,2 with 360 points: d = 4482 and n r = 360, so the fit and
        # posterior stay in data space and never hold a d x d array
        rng = Rng(37)
        net = Network.init_random([2, 64, 64, 2], "relu", rng)
        x = rng.standard_normal((360, 2))
        assert net.num_params == 4482
        tracemalloc.start()
        try:
            curv = fit_curvature(net, x, LossKind("categorical_ce"), "full_ggn",
                                 "all_layers")
            build_posterior(curv, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * net.num_params ** 2


def stacked_rows(net, x, loss, subset):
    """R, the materialized (n r, d) stack of every point's rows L_x^T J_x:
    L_x^T times the loop oracle's Jacobian (all layers) or
    L_x[:, a] kron hbar_x (last layer)."""
    trace = forward(net, x)
    roots = output_hessian_roots(loss, trace.output)
    if subset == "all_layers":
        return np.concatenate(
            [root.T @ loop_output_jacobian(net, p) for root, p in zip(roots, x)]
        )
    hbar = augment_ones(trace.activations[-2])
    return np.einsum("mia,mc->maic", roots, hbar).reshape(x.shape[0] * roots.shape[2], -1)


# (subset, curvature points) in data space for the [2, 5, 4, k] nets of
# TestDataBasis with every likelihood of LOSS_CASES: d = 5 k (last layer)
# or 39 + 5 k (all layers) against n r <= 3 k or 6 k rows.
DATA_CASES = [
    pytest.param("last_layer", 3, id="last"),
    pytest.param("all_layers", 6, id="all"),
]


class TestDataBasisRange:
    @pytest.mark.parametrize("lam", [1e-150, 1e-50, 1e-8, 1.0])
    def test_duplicated_points_match_the_null_space_oracle(self, lam):
        # 3 points each given twice: R has 12 rows but rank 6, so half of
        # the Gram's spectrum is round-off. The basis keeps the 6 of its
        # range; the oracle is V diag(1 / (e + lam)) V^T + N N^T / lam from
        # a full SVD of R, with N the null space of R.
        rng = Rng(91)
        net = Network.init_random([2, 8, 3], "tanh", rng)
        x = np.repeat(rng.standard_normal((3, 2)), 2, axis=0)
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "full_ggn", "all_layers")
        assert curv.spectrum.size == 6 and curv.basis.u.shape == (12, 6)
        rows = stacked_rows(net, x, loss, "all_layers")
        _, sv, vt = np.linalg.svd(rows)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert rank == 6
        v, null = vt[:rank].T, vt[rank:].T
        sigma = (v / (sv[:rank] ** 2 + lam)) @ v.T + null @ null.T / lam
        post = build_posterior(curv, lam)
        for points in (rng.standard_normal((200, 2)), x):
            jacs = dense_jacobians(net, "all_layers", 3, points)
            expected = jacs @ sigma @ jacs.transpose(0, 2, 1)
            cov = post.output_cov(laplace.linearize(net, curv, points))
            assert relative_error(cov, expected) <= 1e-12, lam
            assert np.all(cov.diagonal(axis1=1, axis2=2) >= 0.0), lam


class TestDataBasis:
    def _instance(self, subset, n, loss, k, seed=81):
        rng = Rng(seed)
        net = Network.init_random([2, 5, 4, k], "tanh", rng)
        x = 2.0 * rng.standard_normal((n, 2))
        curv = fit_curvature(net, x, loss, "full_ggn", subset)
        assert isinstance(curv.basis, laplace.DataBasis)
        return net, x, curv

    @pytest.mark.parametrize("subset, n", DATA_CASES)
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_project_matches_materialized_rows(self, subset, n, loss, k):
        # B v and B^T w from the factors against W = U^T R with R built
        # from the seeded output Jacobian, and against each other
        net, x, curv = self._instance(subset, n, loss, k)
        w = curv.basis.u.T @ stacked_rows(net, x, loss, subset)
        assert w.shape == (curv.spectrum.size, curv.dim) == (n * root_width(loss, k), curv.dim)
        assert relative_error(w @ w.T, np.diag(curv.spectrum)) <= 1e-12
        rng = Rng(82)
        vectors = rng.standard_normal((5, curv.dim))
        coeffs = rng.standard_normal((5, curv.spectrum.size))
        projected = laplace._project(curv.basis, vectors)
        back = laplace._project(curv.basis, coeffs, back=True)
        assert relative_error(projected, vectors @ w.T) <= 1e-12
        assert relative_error(back, coeffs @ w) <= 1e-12
        # the adjoint identity <B v, w> = <v, B^T w>
        lhs = np.einsum("ij,ij->i", projected, coeffs)
        rhs = np.einsum("ij,ij->i", vectors, back)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    @pytest.mark.parametrize("subset", ["last_layer", "all_layers"])
    def test_zero_root_width(self, subset):
        # a one-class softmax has roots of width 0: no rows, an empty
        # spectrum, and every projection is empty or zero
        rng = Rng(84)
        net = Network.init_random([2, 5, 1], "tanh", rng)
        x = rng.standard_normal((6, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), "full_ggn", subset)
        assert curv.spectrum.shape == (0,) and curv.basis.u.shape == (0, 0)
        vectors = rng.standard_normal((3, curv.dim))
        assert laplace._project(curv.basis, vectors).shape == (3, 0)
        back = laplace._project(curv.basis, np.empty((3, 0)), back=True)
        assert back.shape == (3, curv.dim) and not np.any(back)
        points = rng.standard_normal((4, 2))
        lin = laplace.linearize(net, curv, points)
        assert lin.proj.shape == (4, 1, 0)
        jacs = dense_jacobians(net, subset, 1, points)
        expected = jacs @ jacs.transpose(0, 2, 1)
        assert relative_error(lin.gram, expected) <= 1e-12
        post = build_posterior(curv, 2.0)
        assert relative_error(post.output_cov(lin), expected / 2.0) <= 1e-12

    @pytest.mark.parametrize("subset, n", DATA_CASES)
    def test_empty_point_set(self, subset, n):
        loss = LossKind("categorical_ce")
        net, _, curv = self._instance(subset, n, loss, 3)
        lin = laplace.linearize(net, curv, np.empty((0, 2)))
        assert lin.mean.shape == (0, 3)
        assert lin.proj.shape == (0, 3, curv.spectrum.size)
        assert lin.gram.shape == (0, 3, 3)
        post = build_posterior(curv, 1.0)
        assert post.output_cov(lin).shape == (0, 3, 3)
        assert laplace._project(curv.basis, np.empty((0, curv.dim))).shape == (
            0, curv.spectrum.size)
        empty = np.empty((0, curv.spectrum.size))
        assert laplace._project(curv.basis, empty, back=True).shape == (0, curv.dim)
        assert post.sample(Rng(0), 0).shape == (0, curv.dim)

    @pytest.mark.parametrize("subset", ["last_layer", "all_layers"])
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_row_chunks_match_one_chunk(self, subset, loss, k, monkeypatch):
        # B v and B^T w write R's rows three curvature points at a time:
        # the 7 points in chunks of 3, 3, 1
        rng = Rng(85)
        net = Network.init_random([2, 5, 12, k], "tanh", rng)
        x = 2.0 * rng.standard_normal((7, 2))
        curv = fit_curvature(net, x, loss, "full_ggn", subset)
        basis, r = curv.basis, root_width(loss, k)
        assert isinstance(basis, laplace.DataBasis)
        vectors = rng.standard_normal((4, curv.dim))
        coeffs = rng.standard_normal((4, 7 * r))
        whole = basis.project(vectors), basis.back(coeffs)
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", 3 * 8 * r * curv.dim)
        chunks = laplace._jacobian_chunks(7, r, curv.dim)
        assert [p.stop - p.start for p, _ in chunks] == [3, 3, 1]
        chunked = basis.project(vectors), basis.back(coeffs)
        for part, one in zip(chunked, whole):
            assert relative_error(part, one) <= 1e-12


class IdentityDraws:
    """A generator whose standard normal block is the identity, so that a
    posterior's draws are its mean plus the rows of its symmetric root."""

    def standard_normal(self, shape):
        return np.eye(*shape)


class TestSampling:
    def _curvature(self, kind="full_ggn", seed=6):
        rng = Rng(seed)
        net = Network.init_random([2, 4, 2], "tanh", rng)
        x = rng.standard_normal((20, 2))
        return fit_curvature(net, x, LossKind("categorical_ce"), kind, "last_layer")

    def _posterior(self, kind="full_ggn", lam=0.5, seed=6):
        return build_posterior(self._curvature(kind, seed), lam)

    def test_huge_precision_collapses_to_mean(self):
        post = self._posterior(lam=1e12)
        samples = post.sample(Rng(0), 50)
        assert np.max(np.abs(samples - post.mean)) <= 1e-4

    def test_empirical_covariance_full(self):
        curv = self._curvature()
        post = build_posterior(curv, 0.8)
        samples = post.sample(Rng(1), 10000)
        emp = np.cov(samples.T, bias=True)
        target = np.linalg.inv(dense_ggn(curv) + 0.8 * np.eye(post.dim))
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) <= 0.10

    @pytest.mark.parametrize("kind, n", [
        pytest.param("full_ggn", 8, id="data"),
        pytest.param("full_ggn", 40, id="parameter"),
        pytest.param("diag_ggn", 8, id="diagonal"),
    ])
    def test_rows_draw_built_in_place_is_bitwise_the_formula(self, kind, n):
        # the draw is mean + c' z + B^T (t' * B z) of the stored
        # coefficients, summed in that order (inside z when c' != 0), with
        # B and B^T from _project (B z = z for the diagonal kind's identity)
        rng = Rng(8)
        net = Network.init_random([2, 4, 3], "tanh", rng)
        x = rng.standard_normal((n, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), kind, "all_layers")
        post = build_posterior(curv, 0.3)
        assert (curv.spectrum.size < post.dim) == (n == 8 and kind == "full_ggn")
        assert (post._basis is None) == (kind == "diag_ggn")
        z = Rng(9).standard_normal((6, post.dim))
        back = laplace._project(
            post._basis, laplace._project(post._basis, z) * post._t_root, back=True
        )
        expected = post.mean[None, :] + post._c_root * z + back
        assert np.array_equal(post.sample(Rng(9), 6), expected)

    @pytest.mark.parametrize("kind, n", [
        pytest.param("full_ggn", 4, id="data"),
        pytest.param("full_ggn", 60, id="parameter"),
        pytest.param("diag_ggn", 4, id="diagonal"),
        pytest.param("kfac_last_layer", 4, id="kfac"),
    ])
    def test_back_projection_is_the_transpose(self, kind, n):
        # (B u) . v = u . (B^T v) for every basis, so each draw's B^T is the
        # adjoint of the B its variances use
        rng = Rng(10)
        net = Network.init_random([2, 4, 3], "tanh", rng)
        x = rng.standard_normal((n, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), kind, "last_layer")
        assert (curv.spectrum.size < curv.dim) == (n == 4 and kind == "full_ggn")
        post = build_posterior(curv, 0.3)
        u = rng.standard_normal((4, post.dim))
        v = rng.standard_normal((4, curv.spectrum.size))
        lhs = np.einsum("ij,ij->i", laplace._project(curv.basis, u), v)
        rhs = np.einsum("ij,ij->i", u, laplace._project(curv.basis, v, back=True))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_seed_reproducibility(self):
        post = self._posterior()
        assert np.array_equal(
            post.sample(Rng(9), 7), post.sample(Rng(9), 7)
        )

    def test_kfac_sampling_matches_dense_oracle(self):
        # Draws are exact: their covariance is inv(kron(G, A) + lambda I).
        # The output factor must be nonsingular for the dense oracle to be
        # finite as lambda shrinks (categorical factors have a softmax-shift
        # null direction), hence the Gaussian likelihood here.
        rng = Rng(7)
        net = Network.init_random([3, 5, 3], "tanh", rng)
        x = rng.standard_normal((40, 3))
        loss = LossKind("gaussian_nll", 1.0)
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        factors = kron_factors(net, x, loss)
        lam = 1e-9
        post = build_posterior(curv, lam)
        samples = post.sample(Rng(2), 50000)
        emp = np.cov(samples.T, bias=True)
        dense = np.kron(*factors) + lam * np.eye(post.dim)
        oracle = np.linalg.inv(dense)
        assert np.linalg.norm(emp - oracle) / np.linalg.norm(oracle) <= 0.10
        # The draw is mean + R z, and R R^T is the exact inverse.
        eye = np.eye(post.dim)
        for lam in (1e-9, 1e-2, 1.0, 1e2):
            post = build_posterior(curv, lam)
            root = post.sample(IdentityDraws(), post.dim) - post.mean
            exact = np.linalg.inv(np.kron(*factors) + lam * eye)
            assert relative_error(root.T @ root, exact) <= 1e-8, lam

    @pytest.mark.parametrize("seed", [1, 3])
    def test_kfac_softmax_shift_row_clipped_at_zero(self, seed):
        # at these seeds eigh gives the softmax-shift eigenvalue of G as
        # -1.2e-15 and -1.3e-15; the fit clips it, and so its spectrum row
        rng = Rng(seed)
        net = Network.init_random([2, 5, 3], "tanh", rng)
        x = rng.standard_normal((20, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), "kfac_last_layer")
        grid = curv.spectrum.reshape(3, -1)
        assert np.all(grid[0] == 0.0) and np.all(grid >= 0.0)
        assert np.all(grid[1:, -1] > 0.0)

    def test_kfac_null_factor_eigenvalue_takes_the_prior_alone(self):
        # two-class categorical: the output factor is s [[1, -1], [-1, 1]],
        # whose null eigenvalue the fit clips to exactly 0, so the draw
        # along it has the prior variance 1 / lambda
        curv = self._curvature("kfac_last_layer")
        lam = 1e-8
        post = build_posterior(curv, lam)
        null = curv.spectrum.reshape(2, -1)[0]
        assert np.all(null == 0.0)
        assert np.all(post._t.reshape(2, -1)[0] == 1.0 / lam)
        assert np.all(np.isfinite(post.sample(Rng(4), 100)))

    def test_diag_sampling_variances(self):
        post = self._posterior(kind="diag_ggn", lam=0.3)
        samples = post.sample(Rng(3), 40000)
        emp = samples.var(axis=0)
        assert np.allclose(emp, marginal_variances(post), rtol=0.1, atol=1e-6)


class TestLinearizedVariance:
    def test_collapsed_posterior_gives_zero(self):
        rng = Rng(8)
        net = Network.init_random([2, 4, 2], "tanh", rng)
        x = rng.standard_normal((5, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), "full_ggn",
                             "last_layer")
        post = build_posterior(curv, 1e12)
        v = linearized_variance_batch(net, post, x[:1])[0]
        assert np.all(v >= 0.0) and np.all(v <= 1e-8)

    def test_diagonal_hand_case(self):
        # v = sum_i g_i^2 sigma_i with g = (1, 2), sigma = (0.5, 0.25) -> 1.5
        curv = Curvature("diag_ggn", "last_layer", np.zeros(2), 1,
                         np.array([1.0, 3.0]))
        post = build_posterior(curv, 1.0)  # variances (0.5, 0.25)
        assert post.quad_forms(np.array([[1.0, 2.0]]))[0] == pytest.approx(1.5, abs=1e-12)

    def test_matches_subset_jacobian_quadratic_form(self):
        rng = Rng(9)
        net = Network.init_random([2, 5, 3], "tanh", rng)
        x = rng.standard_normal((12, 2))
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "full_ggn", "all_layers")
        post = build_posterior(curv, 0.5)
        point = rng.standard_normal(2)
        v = linearized_variance_batch(net, post, point[None])[0]
        jac = output_jacobian(net, point)
        cov = np.linalg.inv(dense_ggn(curv) + 0.5 * np.eye(post.dim))
        expected = np.einsum("ij,jk,ik->i", jac, cov, jac)
        assert np.allclose(v, expected, atol=1e-10)

    @pytest.mark.parametrize("kind", ["full_ggn", "diag_ggn"])
    def test_all_layers_batch_matches_per_point_oracle(self, monkeypatch, kind):
        rng = Rng(13)
        net = Network.init_random([2, 5, 4, 3], "tanh", rng)
        x = rng.standard_normal((12, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), kind, "all_layers")
        post = build_posterior(curv, 0.5)
        points = rng.standard_normal((9, 2))
        expected = np.stack(
            [post.quad_forms(loop_output_jacobian(net, p)) for p in points]
        )
        v = linearized_variance_batch(net, post, points)
        assert v.shape == (9, 3)
        assert relative_error(v, expected) <= 1e-12
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", 4 * 8 * 3 * post.dim)
        chunked = linearized_variance_batch(net, post, points)
        assert relative_error(chunked, expected) <= 1e-12

    @pytest.mark.parametrize("kind", ["full_ggn", "diag_ggn", "kfac_last_layer"])
    def test_last_layer_batch_matches_per_output_quad_forms(self, kind):
        # output i's last-layer gradient is e_i kron hbar, so each column of
        # the batched kernel is one quadratic form of the posterior
        rng = Rng(12)
        net = Network.init_random([2, 5, 3], "tanh", rng)
        x = rng.standard_normal((12, 2))
        curv = fit_curvature(net, x, LossKind("categorical_ce"), kind, "last_layer")
        post = build_posterior(curv, 0.5)
        points = rng.standard_normal((7, 2))
        hbar = np.concatenate(
            [forward(net, points).activations[-2], np.ones((7, 1))], axis=1
        )
        expected = np.stack(
            [post.quad_forms(np.kron(np.eye(3)[i], hbar)) for i in range(3)], axis=1
        )
        v = linearized_variance_batch(net, post, points)
        assert np.allclose(v, expected, rtol=1e-12, atol=1e-15)

    def test_mc_agrees_for_linear_last_layer(self):
        # outputs are linear in the sampled last layer, so the MC variance is
        # an unbiased estimate of the quadratic form; 3 standard errors
        rng = Rng(10)
        net = Network.init_random([2, 6, 1], "tanh", rng)
        x = rng.standard_normal((30, 2))
        curv = fit_curvature(net, x, LossKind("gaussian_nll"), "full_ggn",
                             "last_layer")
        post = build_posterior(curv, 0.2)
        point = rng.standard_normal(2)
        v = linearized_variance_batch(net, post, point[None])[0, 0]
        hbar = np.concatenate([forward(net, point[None]).activations[-2][0], [1.0]])
        samples = post.sample(Rng(11), 50000)
        outputs = samples.reshape(50000, -1) @ hbar
        mc_var = outputs.var()
        se = v * np.sqrt(2.0 / 50000)
        assert abs(mc_var - v) <= 3 * se


class TestProbit:
    def test_zero_variance_reduces_to_sigmoid(self):
        assert probit_predict_binary(1.3, 0.0) == pytest.approx(
            float(sigmoid(np.array([1.3]))[0]), abs=1e-15
        )

    def test_zero_logit_gives_half(self):
        for v in (0.0, 0.5, 10.0, 1e6):
            assert probit_predict_binary(0.0, v) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_numeric_value(self):
        # sigma(2 / sqrt(1 + pi/8 * 8/pi)) = sigma(sqrt 2), evaluated directly
        expected = 1.0 / (1.0 + np.exp(-np.sqrt(2.0)))
        assert probit_predict_binary(2.0, 8.0 / np.pi) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.8044296825069569, abs=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            probit_predict_binary(1.0, -0.1)

    def test_monotonicity_in_variance(self):
        vs = np.linspace(0.0, 20.0, 50)
        up = np.array([probit_predict_binary(2.0, v) for v in vs])
        down = np.array([probit_predict_binary(-2.0, v) for v in vs])
        assert np.all(np.diff(up) < 0.0)
        assert np.all(np.diff(down) > 0.0)


class TestMcPredict:
    def _setup(self, lam, seed=12):
        rng = Rng(seed)
        net = Network.init_random([2, 5, 3], "tanh", rng)
        x = rng.standard_normal((25, 2))
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        return net, build_posterior(curv, lam), x, loss

    def test_collapsed_posterior_equals_map_softmax(self):
        net, post, x, loss = self._setup(1e12)
        pred = mc_predict(net, post, x, PredictConfig("mc", 200, 0), loss)
        expected = softmax(forward(net, x).output)
        assert np.max(np.abs(pred.probabilities - expected)) <= 1e-4

    def test_rows_on_simplex(self):
        net, post, x, loss = self._setup(0.5)
        pred = mc_predict(net, post, x, PredictConfig("mc", 64, 1), loss)
        assert np.all(pred.probabilities >= 0.0)
        assert np.max(np.abs(pred.probabilities.sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("kind, subset", [
        ("full_ggn", "last_layer"),
        ("full_ggn", "all_layers"),
        ("diag_ggn", "all_layers"),
    ])
    def test_binary_mc_close_to_probit(self, kind, subset):
        rng = Rng(13)
        net = Network.init_random([2, 6, 1], "tanh", rng)
        x = rng.standard_normal((60, 2))
        loss = LossKind("binary_ce")
        curv = fit_curvature(net, x, loss, kind, subset)
        post = build_posterior(curv, 0.5)
        test_points = rng.standard_normal((50, 2))
        mc = mc_predict(net, post, test_points, PredictConfig("mc", 10000, 2), loss)
        closed = mc_predict(
            net, post, test_points, PredictConfig("probit_linearized", 1, 0), loss
        )
        assert np.max(np.abs(mc.probabilities - closed.probabilities)) <= 0.02

    def test_regression_moments(self):
        rng = Rng(14)
        net = Network.init_random([1, 5, 1], "tanh", rng)
        x = rng.standard_normal((20, 1))
        loss = LossKind("gaussian_nll", 4.0)
        curv = fit_curvature(net, x, loss, "full_ggn", "last_layer")
        post = build_posterior(curv, 1.0)
        pred = mc_predict(net, post, x, PredictConfig("mc", 5000, 3), loss)
        assert np.allclose(pred.var_total, pred.var_epistemic + 0.25, atol=1e-12)
        v_lin = linearized_variance_batch(net, post, x)
        # linear-in-parameters outputs: MC moments approach the closed form
        assert np.allclose(pred.var_epistemic, v_lin, rtol=0.2, atol=1e-4)

    def test_probit_linearized_rejects_multiclass(self):
        net, post, x, loss = self._setup(1.0)
        with pytest.raises(ValueError):
            mc_predict(net, post, x, PredictConfig("probit_linearized", 1, 0), loss)


def reference_predict(post, lin, cfg, loss):
    """Loop oracle of the mc predictive from a linearization: each point's
    logits f + R eps_s, one point and one sample at a time, R the
    posterior's own output root; regression reads R's diagonal moments."""
    root = post.output_root(lin)
    if loss.kind == "gaussian_nll":
        var = np.stack([np.diag(r @ r.T) for r in root]).reshape(lin.mean.shape)
        return {
            "mean": lin.mean,
            "var_epistemic": var,
            "var_total": var + 1.0 / loss.noise_precision,
        }
    eps = Rng(cfg.seed).standard_normal((cfg.sample_count, post.num_outputs))
    probs = []
    for f, r in zip(lin.mean, root):
        acc = 0.0
        for e in eps:
            z = f + r @ e
            if loss.kind == "binary_ce":
                p1 = sigmoid(z)[0]
                acc = acc + np.array([1.0 - p1, p1])
            else:
                acc = acc + softmax(z[None, :])[0]
        probs.append(acc / cfg.sample_count)
    width = 2 if loss.kind == "binary_ce" else post.num_outputs
    return {"probabilities": np.array(probs).reshape(-1, width)}


def dense_jacobians(net, subset, k, x):
    """Per-point (k, d) Jacobians over the subset: a loop of one-hot
    backward passes (all layers), or e_i kron hbar (last layer)."""
    if subset == "all_layers":
        return np.stack([loop_output_jacobian(net, p) for p in x])
    hbar = augment_ones(forward(net, x).activations[-2])
    return np.stack([np.kron(np.eye(k), h[None, :]) for h in hbar])


def dense_output_covs(net, post, x):
    """J Sigma J^T per point from the dense covariance: the inverse of the
    rebuilt GGN plus lambda I."""
    curv, lam = post.curvature, post.prior_precision
    cov = np.linalg.inv(dense_ggn(curv) + lam * np.eye(post.dim))
    jacs = dense_jacobians(net, post.subset, post.num_outputs, x)
    return jacs @ cov @ jacs.transpose(0, 2, 1)


def reference_log_likelihood(pred, targets):
    """Gaussian predictive log-density of regression targets, summed."""
    y = targets.reshape(pred.mean.shape)
    var = np.maximum(pred.var_total, 1e-300)
    dens = -0.5 * np.log(2.0 * np.pi * var) - (y - pred.mean) ** 2 / (2.0 * var)
    return float(np.sum(dens))


PREDICT_FIELDS = ("probabilities", "mean", "var_epistemic", "var_total")

POSTERIOR_CASES = [
    pytest.param("kfac_last_layer", "last_layer", id="kfac-last"),
    pytest.param("diag_ggn", "last_layer", id="diag-last"),
    pytest.param("full_ggn", "last_layer", id="full-last"),
    pytest.param("full_ggn", "all_layers", id="full-all"),
    pytest.param("diag_ggn", "all_layers", id="diag-all"),
]


SPACE_CASES = [
    pytest.param("kfac_last_layer", "last_layer", 12, id="kfac-last"),
    pytest.param("diag_ggn", "last_layer", 12, id="diag-last"),
    pytest.param("full_ggn", "last_layer", 3, id="full-last-data"),
    pytest.param("full_ggn", "last_layer", 60, id="full-last-parameter"),
    pytest.param("full_ggn", "all_layers", 3, id="full-all-data"),
    pytest.param("full_ggn", "all_layers", 60, id="full-all-parameter"),
    pytest.param("diag_ggn", "all_layers", 12, id="diag-all"),
]

OUTPUT_CASES = [
    pytest.param(LossKind("binary_ce"), 1, id="k1"),
    pytest.param(LossKind("categorical_ce"), 2, id="k2"),
    pytest.param(LossKind("categorical_ce"), 10, id="k10"),
]


class TestOutputCovariance:
    def _instance(self, kind, subset, n, loss, k, seed=51):
        rng = Rng(seed)
        net = Network.init_random([2, 4, k], "tanh", rng)
        x = rng.standard_normal((n, 2))
        post = build_posterior(fit_curvature(net, x, loss, kind, subset), 0.7)
        points = rng.standard_normal((6, 2))
        return net, post, points, laplace.linearize(net, post.curvature, points)

    @pytest.mark.parametrize("loss, k", OUTPUT_CASES)
    @pytest.mark.parametrize("kind, subset, n", SPACE_CASES)
    def test_matches_dense_jacobian_covariance(self, kind, subset, n, loss, k):
        net, post, points, lin = self._instance(kind, subset, n, loss, k)
        data_space = post.curvature.spectrum.size < post.dim
        assert data_space == (n == 3)
        assert (lin.gram is not None) == data_space
        expected = dense_output_covs(net, post, points)
        cov = post.output_cov(lin)
        assert cov.shape == (6, k, k)
        assert relative_error(cov, expected) <= 1e-10
        np.testing.assert_array_equal(lin.mean, forward(net, points).output)
        root = post.output_root(lin)
        assert relative_error(root @ root.transpose(0, 2, 1), expected) <= 1e-10

    @pytest.mark.parametrize("kind, subset, n", SPACE_CASES)
    def test_variance_batch_is_the_diagonal(self, kind, subset, n):
        loss, k = LossKind("categorical_ce"), 3
        net, post, points, lin = self._instance(kind, subset, n, loss, k)
        v = linearized_variance_batch(net, post, points)
        expected = dense_output_covs(net, post, points).diagonal(axis1=1, axis2=2)
        assert v.shape == (6, k)
        assert relative_error(v, expected) <= 1e-10

    @pytest.mark.parametrize("kind, subset, n", [
        case for case in SPACE_CASES
        if case.id in ("diag-last", "full-last-parameter", "full-all-parameter", "diag-all")
    ])
    def test_chunked_jacobian_rows_match_one_chunk(self, kind, subset, n, monkeypatch):
        # outside data space linearize writes three points' Jacobian rows
        # at a time: the 7 points in chunks of 3, 3, 1
        loss, k = LossKind("categorical_ce"), 3
        net, post, _, _ = self._instance(kind, subset, n, loss, k)
        points = Rng(52).standard_normal((7, 2))
        whole = laplace.linearize(net, post.curvature, points)
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", 3 * 8 * k * post.dim)
        chunks = laplace._jacobian_chunks(7, k, post.dim)
        assert [p.stop - p.start for p, _ in chunks] == [3, 3, 1]
        chunked = laplace.linearize(net, post.curvature, points)
        assert relative_error(chunked.proj, whole.proj) <= 1e-12
        assert np.array_equal(chunked.mean, whole.mean)

    @pytest.mark.parametrize("kind, subset, n", SPACE_CASES)
    @pytest.mark.parametrize("dims", [[2, 6, 3], [2, 2, 5]], ids=["size", "outputs"])
    def test_curvature_of_another_network_raises(self, kind, subset, n, dims):
        # a curvature fitted on a 2,4,3 net against a 2,6,3 net, whose
        # subset is larger, or a 2,2,5 net, whose last layer has as many
        # parameters (5 x 3 = 3 x 5) but other outputs
        loss = LossKind("categorical_ce")
        _, post, points, _ = self._instance(kind, subset, n, loss, 3)
        other = Network.init_random(dims, "tanh", Rng(53))
        dim = other.num_params if subset == "all_layers" else dims[2] * (dims[1] + 1)
        message = (
            f"curvature of 3 outputs and {post.dim} {subset} parameters does not "
            f"fit the network's {dims[2]} outputs and {dim} {subset} parameters"
        )
        with pytest.raises(ValueError, match=message):
            laplace.linearize(other, post.curvature, points)
        with pytest.raises(ValueError, match=message):
            linearized_variance_batch(other, post, points)

    def test_zero_jacobian_row_gives_a_finite_root(self):
        # output 0 of point 0 has a zero Jacobian row: Sigma_f is singular
        # there, and its data-space form c J J^T + P diag(t) P^T can round
        # to a slightly negative eigenvalue, which the root clips at 0
        loss = LossKind("categorical_ce")
        net, post, points, lin = self._instance("full_ggn", "all_layers", 3, loss, 3)
        lin.proj[0, 0] = 0.0
        lin.gram[0, 0, :] = lin.gram[0, :, 0] = 0.0
        root = post.output_root(lin)
        assert np.all(np.isfinite(root))
        assert np.all(root[0, 0] == 0.0)
        cov = post.output_cov(lin)
        np.testing.assert_allclose(
            root @ root.transpose(0, 2, 1), cov, rtol=0.0,
            atol=1e-12 * np.abs(cov).max(),
        )

    def test_zero_covariance_gives_a_zero_root(self):
        loss = LossKind("categorical_ce")
        net, post, points, lin = self._instance("diag_ggn", "all_layers", 12, loss, 3)
        lin.proj[:] = 0.0
        root = post.output_root(lin)
        assert np.array_equal(root, np.zeros_like(root))


class TestMcPredictSets:
    def _instance(self, kind, subset, loss, k, seed=41):
        rng = Rng(seed)
        net = Network.init_random([2, 4, k], "tanh", rng)
        x = rng.standard_normal((12, 2))
        post = build_posterior(fit_curvature(net, x, loss, kind, subset), 0.7)
        sets = [rng.standard_normal((m, 2)) for m in (7, 1, 5)]
        return net, post, sets

    @pytest.mark.parametrize("kind, subset", POSTERIOR_CASES)
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_shared_draw_equals_per_set_draws(self, kind, subset, loss, k):
        net, post, sets = self._instance(kind, subset, loss, k)
        cfg = PredictConfig("mc", 16, 3)
        shared = mc_predict_sets(net, post, sets, cfg, loss)
        assert len(shared) == len(sets)
        for x, pred in zip(sets, shared):
            single = mc_predict(net, post, x, cfg, loss)
            lin = laplace.linearize(net, post.curvature, x)
            oracle = reference_predict(post, lin, cfg, loss)
            for name in PREDICT_FIELDS:
                value = getattr(pred, name)
                assert (value is None) == (name not in oracle)
                if value is not None:
                    assert np.array_equal(value, getattr(single, name))
                    # the chunked GEMM and sums differ from the per-sample
                    # loop by round-off only
                    np.testing.assert_allclose(
                        value, oracle[name], rtol=1e-14, atol=0.0
                    )

    @pytest.mark.parametrize("kind, subset", POSTERIOR_CASES)
    def test_regression_is_exact(self, kind, subset):
        # mean f and variance diag(Sigma_f), whatever the seed and sample
        # count
        loss = LossKind("gaussian_nll", 2.5)
        net, post, sets = self._instance(kind, subset, loss, 3)
        x = sets[0]
        pred = mc_predict(net, post, x, PredictConfig("mc", 16, 3), loss)
        other = mc_predict(net, post, x, PredictConfig("mc", 5, 8), loss)
        expected = dense_output_covs(net, post, x).diagonal(axis1=1, axis2=2)
        np.testing.assert_array_equal(pred.mean, forward(net, x).output)
        assert relative_error(pred.var_epistemic, expected) <= 1e-10
        assert np.array_equal(pred.var_total, pred.var_epistemic + 1.0 / 2.5)
        for name in PREDICT_FIELDS[1:]:
            assert np.array_equal(getattr(pred, name), getattr(other, name))

    @pytest.mark.parametrize("loss, k", LOSS_CASES[1:])
    def test_probit_sets_equal_single_sets(self, loss, k):
        net, post, sets = self._instance("full_ggn", "last_layer", loss, k)
        cfg = PredictConfig("probit_linearized", 1, 0)
        for x, pred in zip(sets, mc_predict_sets(net, post, sets, cfg, loss)):
            single = mc_predict(net, post, x, cfg, loss)
            for name in PREDICT_FIELDS:
                if getattr(pred, name) is not None:
                    assert np.array_equal(getattr(pred, name), getattr(single, name))

    @pytest.mark.parametrize("kind, subset", POSTERIOR_CASES)
    @pytest.mark.parametrize("loss, k", LOSS_CASES[:2])
    def test_chunked_points_match_one_chunk(self, kind, subset, loss, k, monkeypatch):
        net, post, sets = self._instance(kind, subset, loss, k)
        x, cfg = sets[0], PredictConfig("mc", 16, 3)
        whole = mc_predict(net, post, x, cfg, loss)
        # the budget of three points' (16, k) logits: the 7 points in
        # chunks of 3, 3, 1
        monkeypatch.setattr(laplace, "_MC_CHUNK_BYTES", 3 * 8 * k * 16)
        chunked = mc_predict(net, post, x, cfg, loss)
        np.testing.assert_allclose(
            chunked.probabilities, whole.probabilities, rtol=1e-14, atol=0.0
        )

    @pytest.mark.parametrize("kind", ["full_ggn", "diag_ggn"])
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_point_chunks_match_one_chunk(self, kind, loss, k, monkeypatch):
        net, post, sets = self._instance(kind, "all_layers", loss, k)
        x, cfg = sets[0], PredictConfig("mc", 16, 3)
        whole = mc_predict(net, post, x, cfg, loss)
        # Jacobians of three points at a time: the 7 points in chunks of 3, 3, 1
        monkeypatch.setattr(laplace, "_JACOBIAN_CHUNK_BYTES", 3 * 8 * k * post.dim)
        chunked = mc_predict(net, post, x, cfg, loss)
        for name in PREDICT_FIELDS:
            if getattr(whole, name) is not None:
                np.testing.assert_allclose(
                    getattr(chunked, name), getattr(whole, name), rtol=1e-14, atol=0.0
                )

    @pytest.mark.parametrize("kind, subset", POSTERIOR_CASES)
    @pytest.mark.parametrize("loss, k", LOSS_CASES)
    def test_empty_set_beside_a_nonempty_one(self, kind, subset, loss, k):
        net, post, sets = self._instance(kind, subset, loss, k)
        cfg = PredictConfig("mc", 16, 3)
        empty, pred = mc_predict_sets(net, post, [np.empty((0, 2)), sets[0]], cfg, loss)
        alone = mc_predict(net, post, sets[0], cfg, loss)
        width = 2 if loss.kind == "binary_ce" else k
        for name in PREDICT_FIELDS:
            if getattr(alone, name) is not None:
                assert getattr(empty, name).shape == (0, width)
                assert np.array_equal(getattr(pred, name), getattr(alone, name))

    def test_memory_flat_in_sample_count(self):
        rng = Rng(43)
        net = Network.init_random([2, 16, 2], "relu", rng)
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, rng.standard_normal((50, 2)), loss, "kfac_last_layer")
        post = build_posterior(curv, 1.0)
        x = rng.standard_normal((3600, 2))

        def peak(count):
            tracemalloc.start()
            try:
                mc_predict_sets(net, post, [x], PredictConfig("mc", count, 0), loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) - peak(100) <= laplace._MC_CHUNK_BYTES

    def test_one_draw_for_all_sets(self, sample_calls, predictive_draws):
        loss = LossKind("categorical_ce")
        net, post, sets = self._instance("kfac_last_layer", "last_layer", loss, 3)
        mc_predict_sets(net, post, sets, PredictConfig("mc", 16, 3), loss)
        assert predictive_draws == [(16, 3)]
        assert sample_calls == []

    def test_regression_log_likelihood_scores_the_shared_predictive(self):
        loss = LossKind("gaussian_nll", 2.5)
        net, post, sets = self._instance("kfac_last_layer", "last_layer", loss, 2)
        targets = Rng(42).standard_normal((7, 2))
        cfg = PredictConfig("mc", 16, 3)
        pred = mc_predict_sets(net, post, sets, cfg, loss)[0]
        lin = laplace.linearize(net, post.curvature, sets[0])
        oracle = reference_predict(post, lin, cfg, loss)
        expected = reference_log_likelihood(Predictive(**oracle), targets)
        assert predictive_log_likelihood(pred, targets) == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )


class TestPredictiveLogLikelihood:
    # a point with no target is not scored as nothing, and one target is
    # not broadcast to every point

    def test_classification_labels_must_cover_every_prediction(self):
        pred = Predictive(probabilities=np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match="do not fit 4 predictions"):
            predictive_log_likelihood(pred, np.array([0, 1]))
        assert predictive_log_likelihood(pred, np.array([0, 1, 1, 0])) == 4 * np.log(0.5)

    def test_regression_targets_must_cover_every_prediction(self):
        ones = np.ones((4, 1))
        pred = Predictive(mean=0.0 * ones, var_epistemic=ones, var_total=ones)
        with pytest.raises(ValueError, match="do not fit 4 predictions"):
            predictive_log_likelihood(pred, np.array([0.5]))
        assert predictive_log_likelihood(pred, np.zeros(4)) == pytest.approx(
            -2.0 * np.log(2.0 * np.pi), rel=1e-15
        )


class TestTunePriorPrecision:
    def _instance(self, seed=15):
        rng = Rng(seed)
        net = Network.init_random([2, 6, 2], "relu", rng)
        x = rng.standard_normal((40, 2))
        labels = (x[:, 0] > 0).astype(np.int64)
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        return net, curv, x, labels, loss

    def test_singleton_grid(self):
        net, curv, x, y, loss = self._instance()
        lam, scores = tune_prior_precision(net, curv, x, y, loss, grid=[3.7])
        assert lam == 3.7
        assert len(scores) == 1

    def test_returns_argmax_of_scores(self):
        net, curv, x, y, loss = self._instance()
        lam, scores = tune_prior_precision(
            net, curv, x, y, loss, grid=[0.01, 100.0],
            predict_cfg=PredictConfig("mc", 64, 5),
        )
        best = max(scores, key=lambda pair: pair[1])
        assert lam == best[0]

    def test_determinism(self):
        net, curv, x, y, loss = self._instance()
        kwargs = dict(grid=[0.1, 1.0, 10.0], predict_cfg=PredictConfig("mc", 32, 7))
        first = tune_prior_precision(net, curv, x, y, loss, **kwargs)
        second = tune_prior_precision(net, curv, x, y, loss, **kwargs)
        assert first == second

    def test_empty_features_raise(self):
        # an empty sum scores every candidate 0, which would pick the first
        net, curv, x, y, loss = self._instance()
        with pytest.raises(ValueError, match="features must be nonempty"):
            tune_prior_precision(net, curv, x[:0], y[:0], loss, grid=[0.1, 1.0])

    def test_fewer_targets_than_features_raise(self):
        net, curv, x, y, loss = self._instance()
        with pytest.raises(ValueError, match="do not fit 40 predictions"):
            tune_prior_precision(net, curv, x, y[:20], loss, grid=[0.1, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf, 1e-310],
                             ids=["nan", "zero", "negative", "inf", "subnormal"])
    def test_invalid_candidate_raises(self, bad):
        # no candidate is skipped: one that is not a finite positive number
        # is a bad grid and stops the search
        net, curv, x, y, loss = self._instance()
        with pytest.raises(ValueError, match="must be a finite positive number"):
            tune_prior_precision(net, curv, x, y, loss, grid=[1.0, bad])

    def test_negative_curvature_raises(self):
        # the one-input linear net's last layer has a weight and a bias
        curv = curvature_from_matrix(np.diag([-100.0, 1.0]))
        net = linear_net([[1.0]], [0.0])
        with pytest.raises(ValueError, match="negative or NaN entry"):
            tune_prior_precision(
                net, curv, np.ones((2, 1)), np.zeros((2, 1)),
                LossKind("gaussian_nll"), grid=[0.1, 1.0],
                predict_cfg=PredictConfig("probit_linearized", 1, 0),
            )

    def test_ood_mmc_objective(self, sample_calls, predictive_draws):
        net, curv, x, y, loss = self._instance()
        out = Rng(1).uniform(-8.0, 8.0, (30, 2))
        lam, scores = tune_prior_precision(
            net, curv, x, y, loss, objective="ood_mmc",
            grid=[0.01, 1.0, 100.0], predict_cfg=PredictConfig("mc", 64, 3),
            out_features=out,
        )
        best = min(scores, key=lambda pair: pair[1])
        assert lam == best[0]
        # in and out of distribution share one draw per candidate
        assert predictive_draws == [(64, 2)] * 3
        assert sample_calls == []

    def test_ood_mmc_refuses_regression_before_linearizing(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a point set was linearized")

        rng = Rng(17)
        net = Network.init_random([1, 6, 1], "tanh", rng)
        x = rng.standard_normal((20, 1))
        loss = LossKind("gaussian_nll", 25.0)
        curv = fit_curvature(net, x, loss, "kfac_last_layer")
        monkeypatch.setattr(laplace, "linearize", no_work)
        with pytest.raises(ValueError, match="ood_mmc scores class probabilities"):
            tune_prior_precision(
                net, curv, x, np.sin(x), loss, objective="ood_mmc",
                grid=[0.1, 1.0], out_features=rng.uniform(-8.0, 8.0, (10, 1)),
            )

    @pytest.mark.parametrize("objective", TUNE_OBJECTIVES)
    @pytest.mark.parametrize("kind, subset", POSTERIOR_CASES)
    def test_projects_each_point_once(self, kind, subset, objective, monkeypatch):
        # every candidate reads the same linearized points, so the search
        # projects each point's k Jacobian rows once, not once per candidate
        rng = Rng(16)
        net = Network.init_random([2, 6, 2], "relu", rng)
        x = rng.standard_normal((40, 2))
        labels = (x[:, 0] > 0).astype(np.int64)
        loss = LossKind("categorical_ce")
        curv = fit_curvature(net, x, loss, kind, subset)
        out = Rng(1).uniform(-8.0, 8.0, (30, 2))
        rows, linearized = [], []
        project, linearize = laplace._project, laplace.linearize

        def counting_project(basis, vectors, back=False):
            rows.append(vectors.shape[0])
            return project(basis, vectors, back)

        def counting_linearize(net, curvature, points):
            linearized.append(points.shape[0])
            return linearize(net, curvature, points)

        monkeypatch.setattr(laplace, "_project", counting_project)
        monkeypatch.setattr(laplace, "linearize", counting_linearize)
        _, scores = tune_prior_precision(
            net, curv, x, labels, loss, objective=objective, grid=[0.1, 1.0, 10.0],
            predict_cfg=PredictConfig("mc", 8, 3), out_features=out,
        )
        assert len(scores) == 3
        points = [40] if objective == "val_log_likelihood" else [40, 30]
        assert linearized == points
        # the Kronecker kind projects nothing: it reads (Q_A^T hbar)^2
        projected = 0 if kind == "kfac_last_layer" else 2 * sum(points)
        assert sum(rows) == projected

    def test_last_layer_mean_roundtrip(self):
        net = linear_net([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])
        assert np.array_equal(
            last_layer_mean(net), np.array([1.0, 2.0, 5.0, 3.0, 4.0, 6.0])
        )
