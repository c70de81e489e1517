"""Shared helpers: random network factories, loop and finite-difference oracles."""

import numpy as np
import pytest

from lula_lab import laplace
from lula_lab.laplace import Curvature, LaplacePosterior
from lula_lab.lula import lula_objective
from lula_lab.network import Network, augment_ones, backward, forward
from lula_lab.numerics import Rng
from lula_lab.training import output_hessians


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
