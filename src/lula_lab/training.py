"""MAP estimation: negative log-likelihood losses and the Adam fit.

Additive normalization constants (the 0.5*log(2*pi) terms of the Gaussian)
are dropped from every loss, so a perfect regression fit scores exactly zero.
All log-likelihood comparisons inside the package use the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .network import Network, ParamGrads, backward, forward, forward_output
from .numerics import Rng

__all__ = [
    "LossKind",
    "TrainConfig",
    "map_loss",
    "train_map",
]

LOSS_KINDS = ("gaussian_nll", "categorical_ce", "binary_ce")


@dataclass(frozen=True)
class LossKind:
    """Likelihood family used for the data term.

    ``noise_precision`` (beta) only applies to the Gaussian case; targets for
    binary_ce are 0/1 against a single logit output.
    """

    kind: str
    noise_precision: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "gaussian_nll" and self.noise_precision <= 0.0:
            raise ValueError("noise_precision must be positive")


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _as_targets(loss: LossKind, outputs: np.ndarray, targets: np.ndarray):
    if loss.kind == "gaussian_nll":
        y = np.asarray(targets, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != outputs.shape:
            raise ValueError(
                f"target shape {y.shape} does not match outputs {outputs.shape}"
            )
        return y
    y = np.asarray(targets)
    if y.ndim != 1:
        raise ValueError("classification targets must be a 1-d label vector")
    return y.astype(np.int64)


def pointwise_nll(
    loss: LossKind, outputs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per-example negative log-likelihood, constants dropped."""
    y = _as_targets(loss, outputs, targets)
    if loss.kind == "gaussian_nll":
        resid = outputs - y
        return 0.5 * loss.noise_precision * np.sum(resid * resid, axis=1)
    if loss.kind == "categorical_ce":
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        rows = np.arange(outputs.shape[0])
        return log_norm - shifted[rows, y]
    # binary_ce: stable softplus(f) - y * f on a single logit column
    f = outputs[:, 0]
    return np.maximum(f, 0.0) - y * f + np.log1p(np.exp(-np.abs(f)))


def nll_output_grad(
    loss: LossKind, outputs: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Gradient of the summed NLL with respect to the outputs."""
    y = _as_targets(loss, outputs, targets)
    if loss.kind == "gaussian_nll":
        return loss.noise_precision * (outputs - y)
    if loss.kind == "categorical_ce":
        probs = softmax(outputs)
        rows = np.arange(outputs.shape[0])
        probs[rows, y] -= 1.0
        return probs
    g = sigmoid(outputs[:, 0]) - y
    return g[:, None]


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


def hessian_root_width(loss: LossKind, k: int) -> int:
    """Columns r of :func:`output_hessian_roots` for k outputs, the rank of
    Lambda: k (Gaussian), k - 1 (categorical), 1 (binary)."""
    return {"gaussian_nll": k, "categorical_ce": k - 1}.get(loss.kind, 1)


def output_hessian_roots(loss: LossKind, outputs: np.ndarray) -> np.ndarray:
    """Per-example roots L with L L^T = Lambda of :func:`output_hessians`.

    Closed forms, shape (m, k, r) with r the root width, the rank of
    Lambda: sqrt(beta) * I for the Gaussian (r = k) and
    sqrt(sigma * (1 - sigma)) for the binary case (r = 1). The categorical
    Lambda = diag(s) (I - s s^T) diag(s), s = sqrt(p), has rank k - 1: the
    softmax shift direction carries no curvature. With the Householder
    reflection H = I - v v^T / (1 + s_{k-1}), v = s + e_{k-1}, which maps s
    to -e_{k-1}, I - s s^T = H[:, :k-1] H[:, :k-1]^T, so the root is
    L = diag(s) H[:, :k-1], r = k - 1, and L^T 1 = 0. The divisor
    1 + s_{k-1} is at least one, so the form is stable for any p.
    """
    m, k = outputs.shape
    if loss.kind == "gaussian_nll":
        return np.broadcast_to(
            np.sqrt(loss.noise_precision) * np.eye(k), (m, k, k)
        ).copy()
    if loss.kind == "categorical_ce":
        s = np.sqrt(softmax(outputs))
        v = s.copy()
        v[:, -1] += 1.0
        # s_i H[i, j] for j < k - 1, where v_j = s_j
        h = -(s * v)[:, :, None] * (s[:, :-1] / v[:, -1:])[:, None, :]
        cols = np.arange(k - 1)
        h[:, cols, cols] += s[:, :-1]
        return h
    s = sigmoid(outputs[:, 0])
    return np.sqrt(s * (1.0 - s)).reshape(m, 1, 1)


def _map_value(
    net: Network,
    outputs: np.ndarray,
    targets: np.ndarray,
    loss: LossKind,
    weight_decay: float,
) -> float:
    """Summed NLL of ``outputs`` plus (weight_decay / 2) * ||theta||^2."""
    value = float(np.sum(pointwise_nll(loss, outputs, targets)))
    if weight_decay != 0.0:
        theta = net.flatten_params()
        value += 0.5 * weight_decay * float(theta @ theta)
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss value {value}")
    return value


def map_loss(
    net: Network,
    features: np.ndarray,
    targets: np.ndarray,
    loss: LossKind,
    weight_decay: float,
) -> tuple[float, ParamGrads]:
    """Summed NLL plus (weight_decay / 2) * ||theta||^2, with gradients."""
    if features.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    trace = forward(net, features)
    value = _map_value(net, trace.output, targets, loss, weight_decay)
    grads = backward(net, trace, nll_output_grad(loss, trace.output, targets))
    if weight_decay != 0.0:
        grads.flat += weight_decay * net.flatten_params()
    return value, grads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int | None = None
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be nonnegative")


class _Adam:
    """Adam; ``step`` updates theta and the moments in place.

    Each in-place operation repeats one of the out-of-place update
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    theta -= lr m_hat / (sqrt(v_hat) + eps) in its own order, so the
    iterates are bitwise those of that update.
    """

    def __init__(self, dim: int, lr: float, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0
        self._delta = np.empty(dim)
        self._denom = np.empty(dim)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        delta, denom = self._delta, self._denom
        self.m *= self.b1
        np.multiply(grad, 1.0 - self.b1, out=delta)
        self.m += delta
        self.v *= self.b2
        np.multiply(grad, 1.0 - self.b2, out=delta)
        delta *= grad
        self.v += delta
        np.divide(self.v, 1.0 - self.b2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(self.m, 1.0 - self.b1**self.t, out=delta)
        delta *= self.lr
        delta /= denom
        theta -= delta


def train_map(
    net: Network,
    features: np.ndarray,
    targets: np.ndarray,
    loss: LossKind,
    config: TrainConfig,
    history: bool = True,
) -> tuple[Network, list[float]]:
    """Minimize the MAP objective; returns the trained net and loss history.

    Minibatch gradients are averaged over the batch with the weight-decay
    term scaled by 1/m, so the optimized objective is the full MAP loss
    divided by the dataset size (identical minimizer). The history records
    the full summed MAP loss once per epoch, a pass over the whole split
    each epoch; ``history=False`` skips those passes and returns an empty
    history with the same trained net. Deterministic given the seed.

    Adam steps one flat parameter buffer in place, and the loop
    differentiates a network whose weights are views of that buffer, so a
    step allocates no network and no parameter-sized temporary. Each step
    gathers its minibatch rows, runs ``forward`` and ``backward`` (into
    one gradient buffer), and every epoch re-keys one Philox generator for
    its order, bitwise ``rng.derive(epoch)``. The history's pass over the
    full split keeps no trace (``forward_output``).
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)
    m = features.shape[0]
    if m == 0:
        raise ValueError("training data must be nonempty")
    if targets.shape[:1] != (m,):
        raise ValueError(f"{m} feature rows but targets of shape {targets.shape}")
    theta = net.flatten_params()
    current = Network._on_buffer(net.specs, theta)
    grads = ParamGrads.for_network(net)
    g, decay = np.empty_like(theta), np.empty_like(theta)
    opt = _Adam(theta.size, config.learning_rate)
    rng, epoch_rng = Rng(config.seed), None
    batch = min(config.batch_size or m, m)
    losses: list[float] = []
    for epoch in range(config.epochs):
        epoch_rng = rng.derive(epoch, out=epoch_rng)
        order = epoch_rng.permutation(m)
        for start in range(0, m, batch):
            idx = order[start : start + batch]
            trace = forward(current, features[idx])
            out_grad = nll_output_grad(loss, trace.output, targets[idx])
            backward(current, trace, out_grad, grads)
            # g = grads / batch size + (weight_decay / m) * theta
            np.divide(grads.flat, idx.size, out=g)
            np.multiply(theta, config.weight_decay / m, out=decay)
            g += decay
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient at epoch {epoch}")
            opt.step(theta, g)
        if history:
            outputs = forward_output(current, features)
            losses.append(
                _map_value(current, outputs, targets, loss, config.weight_decay)
            )
    return net.with_flat_params(theta), losses
