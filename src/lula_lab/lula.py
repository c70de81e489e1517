"""Uncertainty units: construction and free-block training.

An augmentation adds inactive units to the final hidden layer of a trained
network. Each added unit has trainable incoming weights and bias (the free
block) but structurally zero outgoing weights, so the network function is
preserved exactly while the loss curvature, and hence the Laplace posterior,
gains extra directions. Training minimizes the mean total output variance
over the whole inlier set minus the mean over the whole outlier set, and
steps only the free block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .laplace import (
    LaplacePosterior,
    _last_layer_feature_batch,
    build_posterior,
    fit_curvature,
)
from .network import (
    LayerSpec,
    Network,
    activation_derivative,
    augment_ones,
    forward,
)
from .numerics import Rng
from .training import LossKind, _Adam

__all__ = [
    "LulaTrainConfig",
    "augment",
    "total_variance_batch",
    "lula_objective",
    "objective_gradient",
    "train_lula",
]


@dataclass(frozen=True)
class LulaTrainConfig:
    """Settings for uncertainty training.

    The free-block update is Adam: the gradient spans several orders of
    magnitude across free coordinates (fresh units start with near-zero
    curvature, so their posterior variance is about 1/prior_precision), and
    a plain step either stalls or overshoots.
    """

    learning_rate: float = 0.1
    epochs: int = 20

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


def augment(
    net: Network,
    units: int,
    rng: Rng,
    init_std: float | None = None,
) -> Network:
    """Add ``units`` inactive units to the final hidden layer of a network.

    The final hidden weight matrix gains the rows [W_free] and the output
    layer becomes [W, 0] with its bias untouched, so the forward map is
    preserved exactly. The free weights, then the free biases, are drawn
    from N(0, std^2) with std = init_std, or 0.1 * sqrt(2 / fan_in) when
    init_std is None (a zero draw would silence every relu gradient).
    """
    if units < 0:
        raise ValueError("unit count must be nonnegative")
    if net.num_layers < 2:
        raise ValueError("network has no hidden layer to augment")
    top = net.num_layers - 2
    hidden, out = net.specs[top], net.specs[top + 1]
    width = hidden.out_dim + units
    std = init_std if init_std is not None else 0.1 * np.sqrt(2.0 / hidden.in_dim)
    specs, weights, biases = list(net.specs), list(net.weights), list(net.biases)
    specs[top] = LayerSpec(hidden.in_dim, width, hidden.activation)
    specs[top + 1] = LayerSpec(width, out.out_dim, out.activation)
    weights[top] = np.vstack(
        [net.weights[top], rng.normal(0.0, std, (units, hidden.in_dim))]
    )
    biases[top] = np.concatenate([net.biases[top], rng.normal(0.0, std, units)])
    weights[top + 1] = np.hstack([net.weights[top + 1], np.zeros((out.out_dim, units))])
    return Network(specs, weights, biases)


def _first_free_row(net: Network, units: int) -> int:
    """Row of the final hidden layer where the free block of ``units`` starts.

    Raises ``ValueError`` unless the net has a hidden layer, 0 <= units <=
    its width, and the output layer reads the last ``units`` hidden units
    through exactly zero weights.
    """
    if net.num_layers < 2:
        raise ValueError("network has no hidden layer to augment")
    width = net.specs[-2].out_dim
    if not 0 <= units <= width:
        raise ValueError(f"units must lie in [0, {width}], got {units}")
    first = width - units
    if np.any(net.weights[-1][:, first:] != 0.0):
        raise ValueError(
            f"the last {units} hidden units have nonzero outgoing weights, "
            "so they are not added units"
        )
    return first


def total_variance_batch(
    net: Network, post: LaplacePosterior, x: np.ndarray
) -> np.ndarray:
    """Total linearized output variance per input row, shape (m,).

    The sum over outputs of the exact per-output variances, i.e. the
    quadratic form hbar^T B hbar in the final hidden features, with B the
    sum of the posterior's output covariance blocks. Requires a last-layer
    posterior; any other subset raises ``ValueError``.
    """
    block_sum = post.output_block_cov().sum(axis=0)
    hbar = _last_layer_feature_batch(net, x)
    return ((hbar @ block_sum) * hbar).sum(axis=1)


def _as_batches(in_batch, out_batch) -> tuple[np.ndarray, np.ndarray]:
    in_batch = np.atleast_2d(np.asarray(in_batch, dtype=np.float64))
    out_batch = np.atleast_2d(np.asarray(out_batch, dtype=np.float64))
    if in_batch.shape[0] == 0 or out_batch.shape[0] == 0:
        raise ValueError("both batches must be nonempty")
    return in_batch, out_batch


def lula_objective(
    net: Network,
    post: LaplacePosterior,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
) -> float:
    """Mean total variance over inliers minus mean over outliers."""
    in_batch, out_batch = _as_batches(in_batch, out_batch)
    v_in = total_variance_batch(net, post, in_batch)
    v_out = total_variance_batch(net, post, out_batch)
    return float(np.mean(v_in) - np.mean(v_out))


def _objective_and_gradient(
    net: Network,
    units: int,
    post: LaplacePosterior,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`lula_objective` and :func:`objective_gradient` from one forward
    pass per set and one block sum: both read hbar B, bitwise as each
    computes it alone (2 (hbar B) is exactly (2 hbar) B)."""
    block_sum = post.output_block_cov().sum(axis=0)
    in_batch, out_batch = _as_batches(in_batch, out_batch)
    top = net.num_layers - 2
    first = _first_free_row(net, units)
    grad_w = np.zeros((units, net.specs[top].in_dim))
    grad_b = np.zeros(units)
    means = []
    for batch, sign in ((in_batch, 1.0), (out_batch, -1.0)):
        trace = forward(net, batch)
        hbar = augment_ones(trace.activations[-2])
        hbar_b = hbar @ block_sum
        means.append(np.mean((hbar_b * hbar).sum(axis=1)))
        dnu_dadded = 2.0 * hbar_b[:, first : first + units]
        delta = dnu_dadded * activation_derivative(
            net.specs[top].activation, trace.pre_activations[top][:, first:]
        )
        weight = sign / batch.shape[0]
        grad_w += weight * (delta.T @ trace.activations[top])
        grad_b += weight * delta.sum(axis=0)
    return float(means[0] - means[1]), grad_w, grad_b


def objective_gradient(
    net: Network,
    units: int,
    post: LaplacePosterior,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form gradient of the variance objective over the free block.

    The posterior is held fixed (the training loop refits it once per
    epoch), so each row's total variance is the quadratic form
    hbar^T B hbar of :func:`total_variance_batch`, and its gradient in hbar
    is 2 B hbar, chained through the added units' pre-activations. Returns
    the gradients of the free weights (units x fan_in) and free biases
    (units,). Requires a last-layer posterior; any other subset raises
    ``ValueError``.
    """
    return _objective_and_gradient(net, units, post, in_batch, out_batch)[1:]


def train_lula(
    net: Network,
    units: int,
    in_features: np.ndarray,
    out_features: np.ndarray,
    loss: LossKind,
    prior_precision: float,
    cfg: LulaTrainConfig,
) -> tuple[Network, list[float]]:
    """Tune the free block of a network augmented with ``units`` units.

    Per epoch: refit a diagonal last-layer posterior of the current network
    on the inlier features, evaluate the variance objective on the whole
    inlier and outlier sets, and step the flattened (W_free, b_free) pair
    along the closed-form gradient of :func:`objective_gradient` with Adam;
    the objective and its gradient share one forward pass per set, so each
    history entry is :func:`lula_objective` of that epoch's network. Every
    other parameter is copied unchanged, so original parameters and
    structural zeros are preserved bitwise. Raises ``ValueError`` unless
    the last ``units`` units of the final hidden layer have exactly zero
    outgoing weights. Returns the tuned network and the per-epoch objective
    history.
    """
    in_features = np.atleast_2d(np.asarray(in_features, dtype=np.float64))
    out_features = np.atleast_2d(np.asarray(out_features, dtype=np.float64))
    first = _first_free_row(net, units)
    top = net.num_layers - 2
    current = net
    w_free = net.weights[top][first:]
    theta = np.concatenate([w_free.ravel(), net.biases[top][first:]])
    adam = _Adam(theta.size, cfg.learning_rate)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        curv = fit_curvature(current, in_features, loss, "diag_ggn", "last_layer")
        post = build_posterior(curv, prior_precision)
        value, grad_w, grad_b = _objective_and_gradient(
            current, units, post, in_features, out_features
        )
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite objective at epoch {epoch}")
        history.append(value)
        adam.step(theta, np.concatenate([grad_w.ravel(), grad_b]))
        weights, biases = list(current.weights), list(current.biases)
        weights[top] = np.vstack(
            [net.weights[top][:first], theta[: w_free.size].reshape(w_free.shape)]
        )
        biases[top] = np.concatenate([net.biases[top][:first], theta[w_free.size :]])
        current = Network(net.specs, weights, biases)
    return current, history
