"""Uncertainty units: construction and free-block training.

An augmentation adds inactive units to the final hidden layer of a trained
network. Each added unit has trainable incoming weights and bias (the free
block) but structurally zero outgoing weights, so the network function is
preserved exactly while the loss curvature, and hence the Laplace posterior,
gains extra directions.

Training steps only the free block, against the posterior that predicts:
the Kronecker last-layer posterior (kron(G, A) + lambda I)^-1 of the
current network, fit on the curvature set (the train split in the CLI and
the demo pipelines), with exact draws. With v(x) = tr(K Sigma_f(x)) and
Sigma_f the output covariance that prediction reads, it minimizes the mean
of log v over the whole inlier set minus its mean over the whole outlier
set. K = I - 1 1^T / k under the categorical likelihood with k > 1 classes
and K = I otherwise: the softmax is blind to a shift of every logit, a
direction G cannot see, so its prior-only variance is left out. The log
weighs each point's relative change alike: in the plain variance
difference the outliers' variances, up to 1 / lambda, outweigh the
inliers' by orders of magnitude, so nothing holds the inlier predictive
and the units leak onto held-out inliers. The gradient runs through Sigma
(Kristiadi, Hein & Hennig, UAI 2021).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .laplace import (
    _kfac_curvature,
    _output_factor_eigh,
    _require_proper_prior_precision,
    build_posterior,
    check_curvature_fit,
    last_layer_mean,
)
from .network import (
    LayerSpec,
    Network,
    _pre_activation,
    activation_derivative,
    apply_activation,
    augment_ones,
    forward,
)
from .numerics import Rng
from .training import LossKind, _Adam

__all__ = ["LulaTrainConfig", "augment", "train_lula"]


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


def _centring(loss: LossKind, k: int) -> np.ndarray:
    """K = I - 1 1^T / k under the categorical likelihood with k > 1, else I."""
    centring = np.eye(k)
    if loss.kind == "categorical_ce" and k > 1:
        centring -= 1.0 / k
    return centring


def _as_batches(in_batch, out_batch) -> tuple[np.ndarray, np.ndarray]:
    in_batch = np.atleast_2d(np.asarray(in_batch, dtype=np.float64))
    out_batch = np.atleast_2d(np.asarray(out_batch, dtype=np.float64))
    if in_batch.shape[0] == 0 or out_batch.shape[0] == 0:
        raise ValueError("both batches must be nonempty")
    return in_batch, out_batch


class _Objective:
    """The objective J of an augmented network and its gradient, as
    functions of the flat free block theta = (W_free, b_free): J is the
    mean of log v over the inlier set minus its mean over the outlier set,
    v(x) = tr(K Sigma_f(x)) under the Kronecker last-layer posterior fit on
    the curvature set (module docstring).

    Only the free block moves, so each set's input to the final hidden
    layer is computed once, and so are the output layer (the posterior
    mean) and the eigendecomposition G = sum_z L_z L_z^T = Q_G diag(g)
    Q_G^T from the curvature set's Hessian roots, by the Kronecker fit's
    own :func:`lula_lab.laplace._output_factor_eigh`, taken here alone,
    because the outputs do not move. Each call forwards the added units
    alone and builds the posterior from the curvature set's features with
    the Kronecker fit's own code, which then eigendecomposes only A. With
    A = Q_A diag(a) Q_A^T, d_pq = 1 / (g_p a_q + lambda) and
    kappa_p = (Q_G^T K Q_G)_pp, v(x) = sum_q w_q (Q_A^T hbar)_q^2 with
    w = kappa^T d. Row x of the inlier or outlier set enters J with the
    weight s_x = +-1 / (n_rows v(x)), so with W = sum_x s_x hbar hbar^T
    the objective moves with Sigma as tr(Sigma (K kron W)), and
    dJ/dA = -Q_A [(sum_p g_p kappa_p d_p d_p^T) o (Q_A^T W Q_A)] Q_A^T.
    dJ/dhbar is then 2 s_x Q_A (w * Q_A^T hbar) for each inlier or outlier
    row, plus 2 (dJ/dA) hbar_z / n_curv for each curvature point z, chained
    through the added units' pre-activations.
    """

    def __init__(self, net, units, curv_features, in_features, out_features,
                 loss, prior_precision):
        curv_features = np.atleast_2d(np.asarray(curv_features, dtype=np.float64))
        in_features, out_features = _as_batches(in_features, out_features)
        check_curvature_fit(net, curv_features, loss, "kfac_last_layer", "last_layer")
        _require_proper_prior_precision(prior_precision)
        self.first = _first_free_row(net, units)
        self.units = units
        self.free = slice(self.first, self.first + units)
        self.top = net.num_layers - 2
        self.fan_in = net.specs[self.top].in_dim
        self.activation = net.specs[self.top].activation
        self.lam = float(prior_precision)
        self.mean = last_layer_mean(net)
        # (input of the final hidden layer, hbar whose added columns each
        # call rewrites) for the curvature, inlier and outlier sets
        self.sets = []
        for x in (curv_features, in_features, out_features):
            trace = forward(net, x)
            self.sets.append(
                (trace.activations[self.top], augment_ones(trace.activations[-2]))
            )
            if len(self.sets) == 1:
                self.output_eigh = _output_factor_eigh(loss, trace.output)
        self.g, q_out = self.output_eigh
        centring = _centring(loss, net.output_dim)
        self.kappa = np.einsum("ip,ij,jp->p", q_out, centring, q_out)

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """(J, dJ/dtheta) at the free block ``theta``."""
        free, units = self.free, self.units
        w_free = theta[: units * self.fan_in].reshape(units, self.fan_in)
        b_free = theta[units * self.fan_in :]
        pre = []
        for below, hbar in self.sets:
            pre.append(_pre_activation(below, w_free, b_free))
            hbar[:, free] = apply_activation(self.activation, pre[-1])
        hbar = self.sets[0][1]
        post = build_posterior(_kfac_curvature(self.mean, self.output_eigh, hbar), self.lam)
        q_a = post.curvature.basis[1]
        d = post._t.reshape(self.g.size, -1)
        w = self.kappa @ d
        value = 0.0
        projected_w = np.zeros((q_a.shape[0], q_a.shape[0]))  # Q_A^T W Q_A
        grads = []
        for (_, hbar_x), sign in zip(self.sets[1:], (1.0, -1.0)):
            c = hbar_x @ q_a
            cw = c * w
            v = np.einsum("ij,ij->i", c, cw)
            value += sign * np.mean(np.log(v))
            weight = sign / (hbar_x.shape[0] * v)
            projected_w += (c.T * weight) @ c
            grads.append((2.0 * weight[:, None]) * (cw @ q_a[free].T))
        m = (d.T * (self.g * self.kappa)) @ d
        dj_da = -(q_a @ ((m * projected_w) @ q_a[free].T))
        grads.insert(0, (2.0 / hbar.shape[0]) * (hbar @ dj_da))
        grad_w = np.zeros((units, self.fan_in))
        grad_b = np.zeros(units)
        for (below, _), z, grad in zip(self.sets, pre, grads):
            delta = grad * activation_derivative(self.activation, z)
            grad_w += delta.T @ below
            grad_b += delta.sum(axis=0)
        return float(value), np.concatenate([grad_w.ravel(), grad_b])


def _free_block(net: Network, units: int) -> np.ndarray:
    """The flat free block (W_free row-major, then b_free) of ``net``."""
    top, first = net.num_layers - 2, _first_free_row(net, units)
    return np.concatenate([net.weights[top][first:].ravel(), net.biases[top][first:]])


def train_lula(
    net: Network,
    units: int,
    curv_features: np.ndarray,
    in_features: np.ndarray,
    out_features: np.ndarray,
    loss: LossKind,
    prior_precision: float,
    cfg: LulaTrainConfig,
) -> tuple[Network, list[float]]:
    """Tune the free block of a network augmented with ``units`` units.

    Per epoch: evaluate J, the mean of log v over the whole inlier set
    minus its mean over the whole outlier set, v(x) = tr(K Sigma_f(x))
    under the Kronecker last-layer posterior of the current network fit on
    ``curv_features``, and step the flattened (W_free, b_free)
    pair along its gradient through that posterior with Adam
    (:class:`_Objective`), so each history entry is the objective of that
    epoch's network up to round-off. Every other parameter is copied
    unchanged, so original parameters and structural zeros are preserved
    bitwise. Raises ``ValueError`` unless the last ``units`` units of the
    final hidden layer have exactly zero outgoing weights, and
    ``DivergenceError`` naming the epoch, before its step, when that
    epoch's objective or gradient is not finite. Returns the tuned network
    and the per-epoch objective history.
    """
    objective = _Objective(net, units, curv_features, in_features, out_features,
                           loss, prior_precision)
    theta = _free_block(net, units)
    adam = _Adam(theta.size, cfg.learning_rate)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        value, grad = objective(theta)
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite objective at epoch {epoch}")
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite gradient at epoch {epoch}")
        history.append(value)
        adam.step(theta, grad)
    top, first = objective.top, objective.first
    weights, biases = list(net.weights), list(net.biases)
    w_size = units * objective.fan_in
    weights[top] = np.vstack(
        [net.weights[top][:first], theta[:w_size].reshape(units, objective.fan_in)]
    )
    biases[top] = np.concatenate([net.biases[top][:first], theta[w_size:]])
    return Network(net.specs, weights, biases), history
