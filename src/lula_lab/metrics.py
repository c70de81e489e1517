"""Confidence-based evaluation: mean max confidence, AUROC, Brier score."""

from __future__ import annotations

import numpy as np

from .training import read_targets

__all__ = ["mmc", "auroc", "brier"]


def mmc(probabilities: np.ndarray) -> float:
    """Mean over rows of the largest class probability.

    Rows must lie on the probability simplex to within 1e-6; a row with a
    NaN or infinite entry does not.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("probabilities must be a nonempty 2-d array")
    sums = p.sum(axis=1)
    if not (np.all(np.abs(sums - 1.0) <= 1e-6) and np.all(p >= -1e-6)):
        raise ValueError("rows must lie on the probability simplex")
    return float(np.mean(p.max(axis=1)))


def auroc(in_conf: np.ndarray, out_conf: np.ndarray) -> float:
    """Exact area under the ROC for separating in from out by confidence.

    Equals the Mann-Whitney statistic P(in > out) + 0.5 P(in = out), with
    in-distribution as the positive class. Ties get half credit: the
    count of out values below each in value plus the count not above it,
    halved. Both counts are exact integers, so the result matches
    brute-force pairwise counting bit for bit. A NaN or infinite
    confidence raises ``ValueError``.
    """
    a = np.asarray(in_conf, dtype=np.float64).ravel()
    b = np.sort(np.asarray(out_conf, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both confidence vectors must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("confidences must be finite")
    below = int(np.searchsorted(b, a, "left").sum())
    not_above = int(np.searchsorted(b, a, "right").sum())
    return (below + not_above) / (2 * a.size * b.size)


def brier(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared distance between probability rows and one-hot labels.

    ``labels`` are read by :func:`training.read_targets`: one label in
    [0, c) per row of the c-column ``probabilities``; anything else raises
    ``ValueError``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("probabilities must be a 2-d array")
    y = read_targets(labels, p.shape, p.shape[1])
    onehot = np.zeros_like(p)
    onehot[np.arange(y.shape[0]), y] = 1.0
    return float(np.mean(np.sum((p - onehot) ** 2, axis=1)))
