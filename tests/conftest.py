"""Shared helpers: random network factories, and the oracles tests compare
the package against (loop, finite-difference and direct reference forms)."""

import numpy as np
import pytest

from lula_lab import laplace
from lula_lab.laplace import (
    Curvature,
    LaplacePosterior,
    build_posterior,
    fit_curvature,
    linearize,
)
from lula_lab.lula import _as_batches, _centring, _free_block, _Objective
from lula_lab.network import (
    Network,
    _as_batch,
    _write_rows,
    augment_ones,
    backward,
    forward,
    jacobian_factors,
)
from lula_lab.numerics import Rng
from lula_lab.training import LossKind, sigmoid, softmax


def random_network(rng: Rng, max_layers=3, max_units=10, input_dim=None,
                   output_dim=None, activation=None, min_hidden=0) -> Network:
    """Small random net with random layer sizes and nonzero biases."""
    n_hidden = int(rng.integers(min_hidden, max_layers))
    dims = [input_dim or int(rng.integers(1, 6))]
    for _ in range(n_hidden):
        dims.append(int(rng.integers(2, max_units + 1)))
    dims.append(output_dim or int(rng.integers(1, 4)))
    act = activation or ("relu", "selu", "tanh")[int(rng.integers(0, 3))]
    net = Network.init_random(dims, act, rng)
    # random biases exercise more of the affine path than the zero default
    biases = [b + 0.1 * rng.standard_normal(b.shape) for b in net.biases]
    return Network(net.specs, net.weights, biases)


def output_hessians(loss: LossKind, outputs: np.ndarray) -> np.ndarray:
    """Per-example Hessian of the NLL w.r.t. the outputs, shape (m, k, k).

    This is the inner curvature factor of the generalized Gauss-Newton:
    beta * I for the Gaussian, diag(p) - p p^T for the categorical, and
    sigma * (1 - sigma) for the single-logit binary case.
    """
    m, k = outputs.shape
    if loss.kind == "gaussian_nll":
        return np.broadcast_to(
            loss.noise_precision * np.eye(k), (m, k, k)
        ).copy()
    if loss.kind == "categorical_ce":
        p = softmax(outputs)
        h = -p[:, :, None] * p[:, None, :]
        rows = np.arange(k)
        h[:, rows, rows] += p
        return h
    s = sigmoid(outputs[:, 0])
    return (s * (1.0 - s)).reshape(m, 1, 1)


def loop_output_jacobian(net: Network, x: np.ndarray) -> np.ndarray:
    """Oracle (k, d) Jacobian of one input: one one-hot backward pass per output."""
    trace = forward(net, np.asarray(x, dtype=np.float64)[None, :])
    k = net.output_dim
    rows = []
    for i in range(k):
        onehot = np.zeros((1, k))
        onehot[0, i] = 1.0
        grads = backward(net, trace, onehot)
        rows.append(grads.flatten())
    return np.stack(rows, axis=0)


def output_jacobian(
    net: Network, x: np.ndarray, *, seeds: np.ndarray | None = None
) -> np.ndarray:
    """Seed-weighted rows S^T J of the output Jacobian J w.r.t. the
    flattened parameters.

    Without ``seeds`` these are the Jacobians themselves: a single input
    vector gives shape (k, d), a batch of m rows (m, k, d), one (k, d)
    Jacobian per example, whose row i holds the gradient of output i in the
    frozen flattening order (layer-major, weights row-major, then bias).
    ``seeds`` of shape (m, k, r) ((k, r) for a vector) give the r rows
    S_x^T J_x per example instead, shape (m, r, d) ((r, d)), such as the
    GGN rows L_x^T J_x of a loss-Hessian root L_x, without forming J_x.

    ``network._write_rows``, which writes every Jacobian row of the package,
    writes the rows from the factors of one ``jacobian_factors`` sweep.
    Without seeds the sweep starts from the identity, so identity seeds give
    the same bits. Seeds of the wrong shape raise ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("output_jacobian expects an input vector or a batch")
    if seeds is not None and x.ndim == 1:
        seeds = np.asarray(seeds, dtype=np.float64)[None]
    blocks = jacobian_factors(net, _as_batch(x, net.input_dim), seeds)
    m, r = blocks[0].delta.shape[:2]
    jac = _write_rows(blocks, np.empty((m, r, net.num_params)))
    return jac[0] if x.ndim == 1 else jac


def quad_forms(post: LaplacePosterior, vectors: np.ndarray) -> np.ndarray:
    """g^T Sigma g = c |g|^2 + (B g)^2 . t for each row g of ``vectors``,
    from the posterior's own c, t and basis B."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vectors.shape[1] != post.dim:
        raise ValueError("vector dimension does not match posterior")
    proj = laplace._project(post._basis, vectors)
    forms = (proj * proj) @ post._t
    if post._c:
        forms += post._c * np.einsum("ij,ij->i", vectors, vectors)
    return forms


def total_variance_batch(
    net: Network, post: LaplacePosterior, x: np.ndarray, loss: LossKind
) -> np.ndarray:
    """v(x) = tr(K Sigma_f(x)) per input row, shape (m,), with Sigma_f the
    posterior's :meth:`LaplacePosterior.output_cov`, the one prediction
    reads, and K the centring of the ``lula`` module docstring."""
    cov = post.output_cov(linearize(net, post.curvature, x))
    return np.einsum("ij,mji->m", _centring(loss, net.output_dim), cov)


def lula_objective(
    net: Network,
    curv_features: np.ndarray,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
    loss: LossKind,
    prior_precision: float,
) -> float:
    """Oracle LULA objective J, refitting the posterior: mean log v over
    ``in_batch`` minus mean log v over ``out_batch``, v from
    :func:`total_variance_batch` under the Kronecker last-layer posterior
    of ``net`` fit on ``curv_features``."""
    in_batch, out_batch = _as_batches(in_batch, out_batch)
    curv = fit_curvature(net, curv_features, loss, "kfac_last_layer", "last_layer")
    post = build_posterior(curv, prior_precision)
    v_in = total_variance_batch(net, post, in_batch, loss)
    v_out = total_variance_batch(net, post, out_batch, loss)
    return float(np.mean(np.log(v_in)) - np.mean(np.log(v_out)))


def objective_gradient(
    net: Network,
    units: int,
    curv_features: np.ndarray,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
    loss: LossKind,
    prior_precision: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradient of :func:`lula_objective` over the free block,
    through the posterior (``lula._Objective``, the one ``train_lula``
    steps with). Returns the gradients of the free weights (units x fan_in)
    and free biases (units,)."""
    objective = _Objective(net, units, curv_features, in_batch, out_batch, loss,
                           prior_precision)
    grad = objective(_free_block(net, units))[1]
    w_size = units * objective.fan_in
    return grad[:w_size].reshape(units, objective.fan_in), grad[w_size:]


def fd_param_gradient(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of the parameters."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return grad


def fd_free_gradient(net, units, curv_features, in_batch, out_batch, loss,
                     prior_precision) -> np.ndarray:
    """Finite-difference oracle of ``lula_objective`` over the free block.

    The free block is the last ``units`` rows of the final hidden layer's
    weights and biases. ``lula_objective`` refits the Kronecker posterior
    on ``curv_features`` at every perturbed net, so the oracle runs through
    the posterior. Returns the flat gradient: the free weights in row-major
    order, then the free biases.
    """
    top = net.num_layers - 2
    first = net.specs[top].out_dim - units
    w, b = net.weights[top], net.biases[top]
    n_w = units * w.shape[1]

    def objective(values):
        weights, biases = list(net.weights), list(net.biases)
        weights[top] = np.vstack([w[:first], values[:n_w].reshape(units, -1)])
        biases[top] = np.concatenate([b[:first], values[n_w:]])
        moved = Network(net.specs, weights, biases)
        return lula_objective(moved, curv_features, in_batch, out_batch, loss,
                              prior_precision)

    return fd_param_gradient(objective, np.concatenate([w[first:].ravel(), b[first:]]))


def curvature_from_matrix(matrix) -> Curvature:
    """Single-output last-layer full GGN equal to a given symmetric matrix."""
    e, q = np.linalg.eigh(np.asarray(matrix, dtype=np.float64))
    return Curvature("full_ggn", "last_layer", np.zeros(e.size), 1, e, q.T)


def dense_ggn(curv: Curvature) -> np.ndarray:
    """The d x d GGN rebuilt from a curvature's spectrum and basis."""
    spectrum, basis = curv.spectrum, curv.basis
    if basis is None:  # diagonal kind
        return np.diag(spectrum)
    if spectrum.size < curv.dim:  # data space: GGN = W^T W, W = B
        columns = laplace._project(basis, np.eye(curv.dim))  # row j: B e_j
        return columns @ columns.T
    if isinstance(basis, tuple):  # Kronecker kind: B^T = kron(Q_G, Q_A)
        basis = np.kron(*basis).T
    # B^T diag(s) B is symmetric; averaging with the transpose removes the
    # rounding of the product so exact-symmetry checks see the matrix itself
    ggn = (basis.T * spectrum) @ basis
    return 0.5 * (ggn + ggn.T)


def kron_factors(net: Network, x: np.ndarray, loss) -> tuple[np.ndarray, np.ndarray]:
    """Oracle Kronecker factors of a last-layer GGN from the net and the data:
    G = sum_x Lambda_x and A = mean_x hbar hbar^T."""
    trace = forward(net, np.asarray(x, dtype=np.float64))
    hbar = augment_ones(trace.activations[-2])
    return output_hessians(loss, trace.output).sum(axis=0), hbar.T @ hbar / x.shape[0]


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(expected)), 1e-12)
    return float(np.linalg.norm(actual - expected)) / scale


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def sample_calls(monkeypatch):
    """Sample counts of every ``LaplacePosterior.sample`` call, in call order."""
    calls = []
    original = LaplacePosterior.sample

    def counting(self, rng, count):
        calls.append(count)
        return original(self, rng, count)

    monkeypatch.setattr(LaplacePosterior, "sample", counting)
    return calls


@pytest.fixture
def predictive_draws(monkeypatch):
    """Shapes of the standard normal blocks the predictive draws (every
    ``Rng`` that :mod:`lula_lab.laplace` builds), in call order."""
    shapes = []

    class Recording(Rng):
        def standard_normal(self, shape):
            shapes.append(tuple(shape))
            return super().standard_normal(shape)

    monkeypatch.setattr(laplace, "Rng", Recording)
    return shapes
