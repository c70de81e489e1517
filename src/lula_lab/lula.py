"""Uncertainty units: construction, masked training, and unit-count search.

An augmentation adds inactive hidden units to a trained network. Each added
unit has trainable incoming weights (the free parameters) but structurally
zero outgoing weights, so the network function is preserved exactly while
the loss curvature, and hence the Laplace posterior, gains extra directions.
Training minimizes the total output variance on inliers minus the variance
on outliers, touching only the free parameters via gradient masking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NotPositiveDefinite
from .laplace import (
    LaplacePosterior,
    PredictConfig,
    build_posterior,
    fit_curvature,
    mc_predict_sets,
)
from .network import (
    LayerSpec,
    Network,
    ParamGrads,
    activation_derivative,
    augment_ones,
    forward,
)
from .numerics import Rng
from .training import LossKind, _Adam

__all__ = [
    "LulaAugmentation",
    "LulaTrainConfig",
    "augment",
    "mask_gradient",
    "total_variance",
    "total_variance_batch",
    "lula_objective",
    "objective_gradient",
    "train_lula",
    "grid_search_units",
]

DEFAULT_UNIT_GRID = (32, 64, 128, 256, 512)


@dataclass(frozen=True)
class LulaAugmentation:
    """Bookkeeping for added units: per-hidden-layer counts and free masks.

    Masks are boolean arrays shaped like the augmented weight matrices and
    bias vectors, true exactly on the free blocks (incoming weights and
    biases of the added units) and false on every original parameter and on
    the structurally-zero blocks.
    """

    unit_counts: tuple[int, ...]
    weight_masks: tuple[np.ndarray, ...]
    bias_masks: tuple[np.ndarray, ...]
    init_std: float | None

    @property
    def num_free(self) -> int:
        return int(
            sum(m.sum() for m in self.weight_masks)
            + sum(m.sum() for m in self.bias_masks)
        )


@dataclass(frozen=True)
class LulaTrainConfig:
    """Settings for uncertainty training.

    The masked update is Adam: the gradient spans several orders of
    magnitude across free coordinates (fresh units start with near-zero
    curvature, so their posterior variance is about 1/prior_precision), and
    a plain step either stalls or overshoots. ``sample_count`` and ``seed``
    also set the Monte-Carlo predictive that scores each candidate of
    :func:`grid_search_units`.
    """

    learning_rate: float = 0.1
    epochs: int = 20
    sample_count: int = 30
    in_batch: int = 128
    out_batch: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


def _mask_shapes(dims: tuple[int, ...], counts) -> tuple[list, list]:
    """Free-parameter masks for original layer dims and added counts."""
    n_layers = len(dims) - 1
    padded = [0] + list(counts) + [0]  # no additions on input or output
    weight_masks, bias_masks = [], []
    for layer in range(n_layers):
        in_orig, out_orig = dims[layer], dims[layer + 1]
        m_in, m_out = padded[layer], padded[layer + 1]
        w_mask = np.zeros((out_orig + m_out, in_orig + m_in), dtype=bool)
        w_mask[out_orig:, :in_orig] = True
        b_mask = np.zeros(out_orig + m_out, dtype=bool)
        b_mask[out_orig:] = True
        weight_masks.append(w_mask)
        bias_masks.append(b_mask)
    return weight_masks, bias_masks


def augment(
    net: Network,
    counts,
    rng: Rng,
    init_std: float | None = None,
) -> tuple[Network, LulaAugmentation]:
    """Add inactive units to the hidden layers of a trained network.

    ``counts`` gives the number of added units per hidden layer (length
    num_layers - 1; the input and output layers never change size). Each
    augmented weight matrix has the block form [[W, 0], [W_free, 0]] and the
    output layer becomes [W, 0] with its bias untouched, so the forward map
    is preserved exactly. Free blocks are drawn from N(0, std^2) with
    std = init_std, or 0.1 * sqrt(2 / fan_in) per layer when init_std is
    None (a zero draw would silence every relu gradient).

    Returns the augmented network and the mask record.
    """
    counts = [int(c) for c in counts]
    n_hidden = net.num_layers - 1
    if len(counts) != n_hidden:
        raise ValueError(
            f"expected {n_hidden} counts (hidden layers only, additions on the "
            f"input or output layer are not allowed), got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise ValueError("unit counts must be nonnegative")

    dims = net.layer_dims()
    padded = [0] + counts + [0]
    specs, weights, biases = [], [], []
    for layer in range(net.num_layers):
        spec = net.specs[layer]
        m_in, m_out = padded[layer], padded[layer + 1]
        w = net.weights[layer]
        b = net.biases[layer]
        new_w = np.zeros((spec.out_dim + m_out, spec.in_dim + m_in))
        new_w[: spec.out_dim, : spec.in_dim] = w
        new_b = np.zeros(spec.out_dim + m_out)
        new_b[: spec.out_dim] = b
        if m_out > 0:
            std = init_std if init_std is not None else 0.1 * np.sqrt(2.0 / spec.in_dim)
            new_w[spec.out_dim :, : spec.in_dim] = rng.normal(
                0.0, std, (m_out, spec.in_dim)
            )
            new_b[spec.out_dim :] = rng.normal(0.0, std, m_out)
        specs.append(
            LayerSpec(spec.in_dim + m_in, spec.out_dim + m_out, spec.activation)
        )
        weights.append(new_w)
        biases.append(new_b)

    weight_masks, bias_masks = _mask_shapes(dims, counts)
    aug = LulaAugmentation(
        tuple(counts),
        tuple(weight_masks),
        tuple(bias_masks),
        init_std,
    )
    return Network(specs, weights, biases), aug


def mask_gradient(grads: ParamGrads, aug: LulaAugmentation) -> ParamGrads:
    """Zero every gradient entry outside the free blocks, exactly."""
    if len(grads.weights) != len(aug.weight_masks):
        raise ValueError("gradient layer count does not match augmentation")
    out_w, out_b = [], []
    for gw, gb, mw, mb in zip(
        grads.weights, grads.biases, aug.weight_masks, aug.bias_masks
    ):
        if gw.shape != mw.shape or gb.shape != mb.shape:
            raise ValueError("gradient shapes do not match augmentation masks")
        out_w.append(np.where(mw, gw, 0.0))
        out_b.append(np.where(mb, gb, 0.0))
    return ParamGrads(out_w, out_b)


def _variance_matrix(post: LaplacePosterior) -> np.ndarray:
    """F x F matrix B with total variance hbar^T B hbar.

    B is the sum of the k output covariance blocks of a last-layer
    posterior; any other subset raises ``ValueError``.
    """
    if post.subset != "last_layer":
        raise ValueError("LULA variances require a last_layer posterior")
    return post.output_block_cov().sum(axis=0)


def total_variance_batch(
    net: Network, post: LaplacePosterior, x: np.ndarray
) -> np.ndarray:
    """Total linearized output variance per input row, shape (m,).

    The sum over outputs of the exact per-output variances, i.e. the
    quadratic form hbar^T B hbar of :func:`_variance_matrix` in the final
    hidden features. Requires a last-layer posterior; any other subset
    raises ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    block_sum = _variance_matrix(post)
    hbar = augment_ones(forward(net, x).activations[-2])
    return ((hbar @ block_sum) * hbar).sum(axis=1)


def total_variance(net: Network, post: LaplacePosterior, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("total_variance expects a single input vector")
    return float(total_variance_batch(net, post, x[None, :])[0])


def lula_objective(
    net: Network,
    post: LaplacePosterior,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
) -> float:
    """Mean total variance over inliers minus mean over outliers."""
    in_batch = np.atleast_2d(np.asarray(in_batch, dtype=np.float64))
    out_batch = np.atleast_2d(np.asarray(out_batch, dtype=np.float64))
    if in_batch.shape[0] == 0 or out_batch.shape[0] == 0:
        raise ValueError("both batches must be nonempty")
    v_in = total_variance_batch(net, post, in_batch)
    v_out = total_variance_batch(net, post, out_batch)
    return float(np.mean(v_in) - np.mean(v_out))


def objective_gradient(
    net: Network,
    aug: LulaAugmentation,
    post: LaplacePosterior,
    in_batch: np.ndarray,
    out_batch: np.ndarray,
) -> ParamGrads:
    """Closed-form gradient of the variance objective over the free parameters.

    The posterior is held fixed (the training loop refits it once per
    epoch), so each row's total variance is the quadratic form
    hbar^T B hbar with B from :func:`_variance_matrix`, and its gradient in
    hbar is 2 B hbar. Only the added units of the final hidden layer reach
    hbar: units added at deeper layers feed structurally-zero columns
    everywhere downstream, so their free parameters have exactly zero
    gradient. Requires a last-layer posterior; any other subset raises
    ``ValueError``.
    """
    block_sum = _variance_matrix(post)
    in_batch = np.atleast_2d(np.asarray(in_batch, dtype=np.float64))
    out_batch = np.atleast_2d(np.asarray(out_batch, dtype=np.float64))
    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    top = net.num_layers - 2  # final hidden layer
    if top < 0 or aug.unit_counts[top] == 0:
        return ParamGrads(grad_w, grad_b)
    added = aug.unit_counts[top]
    n_out_orig = net.specs[top].out_dim - added
    # free columns span the original input features of the layer only
    n_in_orig = aug.weight_masks[top].shape[1] - (
        aug.unit_counts[top - 1] if top > 0 else 0
    )

    def accumulate(batch, sign):
        trace = forward(net, batch)
        hbar = augment_ones(trace.activations[-2])
        dnu_dhbar = 2.0 * hbar @ block_sum
        dnu_dadded = dnu_dhbar[:, n_out_orig : n_out_orig + added]
        pre_added = trace.pre_activations[top][:, n_out_orig:]
        delta = dnu_dadded * activation_derivative(
            net.specs[top].activation, pre_added
        )
        weight = sign / batch.shape[0]
        h_prev = trace.activations[top][:, :n_in_orig]
        grad_w[top][n_out_orig:, :n_in_orig] += weight * (delta.T @ h_prev)
        grad_b[top][n_out_orig:] += weight * delta.sum(axis=0)

    accumulate(in_batch, 1.0)
    accumulate(out_batch, -1.0)
    return ParamGrads(grad_w, grad_b)


def _draw_batch(features: np.ndarray, size: int, rng: Rng) -> np.ndarray:
    if size >= features.shape[0]:
        return features
    idx = rng.permutation(features.shape[0])[:size]
    return features[idx]


def train_lula(
    net: Network,
    aug: LulaAugmentation,
    in_features: np.ndarray,
    out_features: np.ndarray,
    loss: LossKind,
    prior_precision: float,
    cfg: LulaTrainConfig,
) -> tuple[Network, list[float], LaplacePosterior]:
    """Tune the free parameters of an augmented network.

    Per epoch: refit a diagonal last-layer posterior of the current network
    on the inlier features, evaluate the variance objective on fresh seeded
    batches, and step the flat parameter vector along the masked closed-form
    gradient of :func:`objective_gradient` with Adam. Masked entries have
    exactly zero gradient, so original parameters and structural zeros are
    preserved bitwise throughout. Returns the tuned network, the per-epoch
    objective history, and a final refit posterior.
    """
    in_features = np.atleast_2d(np.asarray(in_features, dtype=np.float64))
    out_features = np.atleast_2d(np.asarray(out_features, dtype=np.float64))
    rng = Rng(cfg.seed)
    current = net
    theta = net.flatten_params()
    adam = _Adam(theta.size, cfg.learning_rate)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        curv = fit_curvature(current, in_features, loss, "diag_ggn", "last_layer")
        post = build_posterior(curv, prior_precision)
        in_batch = _draw_batch(in_features, cfg.in_batch, rng.derive(2 * epoch))
        out_batch = _draw_batch(out_features, cfg.out_batch, rng.derive(2 * epoch + 1))
        value = lula_objective(current, post, in_batch, out_batch)
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite objective at epoch {epoch}")
        history.append(value)
        grad = mask_gradient(
            objective_gradient(current, aug, post, in_batch, out_batch), aug
        ).flatten()
        theta = adam.step(theta, grad)
        current = current.with_flat_params(theta)
    curv = fit_curvature(current, in_features, loss, "diag_ggn", "last_layer")
    return current, history, build_posterior(curv, prior_precision)


def grid_search_units(
    net: Network,
    candidate_counts,
    in_val: np.ndarray,
    out_val: np.ndarray,
    loss: LossKind,
    prior_precision: float,
    cfg: LulaTrainConfig,
    num_classes: int,
    init_std: float | None = None,
) -> tuple[int, dict[int, float]]:
    """Pick the added-unit count minimizing the confidence-distance score.

    Each candidate count (added on the final hidden layer) is trained with
    :func:`train_lula`; the score is |1 - MMC_in| + |1/k - MMC_out| on the
    validation sets using the refit posterior. Ties break toward the smaller
    count; candidates whose posterior fails to factor are skipped with a
    warning. ``candidate_counts=None`` selects :data:`DEFAULT_UNIT_GRID`.
    """
    from .metrics import mmc

    n_hidden = net.num_layers - 1
    if n_hidden < 1:
        raise ValueError("network has no hidden layer to augment")
    if candidate_counts is None:
        candidate_counts = DEFAULT_UNIT_GRID
    candidates = sorted(set(int(c) for c in candidate_counts))
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    predict_cfg = PredictConfig(
        method="mc", sample_count=cfg.sample_count, seed=cfg.seed
    )
    scores: dict[int, float] = {}
    best_count, best_score = None, np.inf
    for count in candidates:
        counts = [0] * n_hidden
        counts[-1] = count
        rng = Rng(cfg.seed).derive(10_000 + count)
        try:
            aug_net, aug = augment(net, counts, rng, init_std)
            trained, _, post = train_lula(
                aug_net, aug, in_val, out_val, loss, prior_precision, cfg
            )
            pred_in, pred_out = mc_predict_sets(
                trained, post, [in_val, out_val], predict_cfg, loss
            )
        except NotPositiveDefinite as exc:
            warnings.warn(f"skipping count {count}: {exc}")
            continue
        mmc_in, mmc_out = mmc(pred_in.probabilities), mmc(pred_out.probabilities)
        score = abs(1.0 - mmc_in) + abs(1.0 / num_classes - mmc_out)
        scores[count] = float(score)
        if score < best_score:
            best_score, best_count = score, count
    if best_count is None:
        raise NotPositiveDefinite("every candidate count failed to factor")
    return best_count, scores
