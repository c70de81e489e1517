"""Datasets: synthetic generators, outlier synthesis, splits, standardization.

Every generator is a pure function of its parameters and seed. The toy
generators are shape-matched stand-ins for the usual 1-d regression and
two-moons demonstrations (the regression target is sin(2x) on two disjoint
input clusters); their exact constants live here and nowhere else. So do
those of every outlier set: ``synthesize_ood`` builds each of ``OOD_KINDS``
as a bare feature array, since an outlier has no target. Every uniform
outlier set, LULA's training outliers among them, is one draw of
:func:`uniform_outliers` from ``UNIFORM_BOX``.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .numerics import Rng

__all__ = [
    "Dataset",
    "SplitSpec",
    "gen_two_moons",
    "gen_toy_regression",
    "synthesize_ood",
    "uniform_outliers",
    "standardize",
    "split",
    "load_csv",
]

# Contrast rescaling draws its factor uniformly from this range; blurring
# applies a width-3 box filter twice with edge replication.
CONTRAST_RANGE = (0.05, 0.3)
BLUR_WIDTH = 3
BLUR_PASSES = 2

# Evaluation OOD sets, all built by synthesize_ood in the shape of the
# in-distribution rows: the first three from those rows, uniform from
# UNIFORM_BOX, and asymptotic from the unit box scaled far out by
# ASYMPTOTIC_SCALE.
OOD_KINDS = ("permute", "blur", "contrast", "uniform", "asymptotic")
UNIFORM_BOX = (-10.0, 10.0)
ASYMPTOTIC_SCALE = 5000.0
# The fewest features synthesize_ood's kinds change a row on: blur filters
# BLUR_WIDTH, and on one feature permute and contrast return the row itself.
OOD_MIN_FEATURES = {"permute": 2, "blur": BLUR_WIDTH, "contrast": 2}
GENERATOR_FEATURES = {"two_moons": 2, "toy_regression": 1}  # row widths


class _DatasetFields(NamedTuple):
    features: np.ndarray
    targets: np.ndarray


class Dataset(_DatasetFields):
    """Feature matrix plus targets.

    Classification targets are an int64 label vector; regression targets a
    float column matrix. The dtype is the only record of which they are.
    """

    __slots__ = ()

    def __new__(cls, features: np.ndarray, targets: np.ndarray):
        if features.shape[0] != targets.shape[0]:
            raise ValueError("feature and target row counts differ")
        return super().__new__(cls, features, targets)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


class _SplitSpecFields(NamedTuple):
    fractions: tuple[float, float, float]
    seed: int


class SplitSpec(_SplitSpecFields):
    __slots__ = ()

    def __new__(cls, fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
                seed: int = 0):
        if any(f < 0.0 for f in fractions):
            raise ValueError("fractions must be nonnegative")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        return super().__new__(cls, fractions, seed)

    def counts(self, m: int) -> tuple[int, int, int]:
        """The train, val and test row counts of a split of ``m`` rows."""
        f_train, f_val, _ = self.fractions
        n_train = int(m * f_train)
        n_val = int(m * (f_train + f_val)) - n_train
        return n_train, n_val, m - n_train - n_val


def gen_two_moons(m: int, noise_std: float, seed: int) -> Dataset:
    """Two interleaved half circles with Gaussian noise, balanced labels.

    Class 0 lies on the unit upper half circle, class 1 on a lower half
    circle shifted by (1, -0.5); rows are shuffled deterministically.
    """
    if m < 2:
        raise ValueError("need at least two points")
    rng = Rng(seed)
    n0 = m // 2 + (m % 2)
    n1 = m - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    upper = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    lower = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([upper, lower], axis=0)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    if noise_std > 0.0:
        x = x + rng.normal(0.0, noise_std, x.shape)
    order = rng.permutation(m)
    return Dataset(x[order], y[order])


def gen_toy_regression(
    m: int, x_range: tuple[float, float], noise_std: float, seed: int
) -> Dataset:
    """1-d regression: y = sin(2x) + noise on two disjoint input clusters.

    The clusters cover the lower and upper 35 percent of ``x_range``, leaving
    a central gap.
    """
    if m < 2:
        raise ValueError("need at least two points")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not lo < hi:
        raise ValueError("x_range must be increasing")
    rng = Rng(seed)
    width = hi - lo
    n0 = m // 2 + (m % 2)
    n1 = m - n0
    left = rng.uniform(lo, lo + 0.35 * width, (n0, 1))
    right = rng.uniform(hi - 0.35 * width, hi, (n1, 1))
    x = np.concatenate([left, right], axis=0)
    y = np.sin(2.0 * x)
    if noise_std > 0.0:
        y = y + rng.normal(0.0, noise_std, y.shape)
    order = rng.permutation(m)
    return Dataset(x[order], y[order])


def _box_blur_rows(x: np.ndarray) -> np.ndarray:
    padded = np.concatenate([x[:, :1], x, x[:, -1:]], axis=1)
    return (padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]) / 3.0


def uniform_outliers(count: int, width: int, rng: Rng) -> np.ndarray:
    """``count`` rows of ``width`` features drawn uniformly from UNIFORM_BOX."""
    return rng.uniform(*UNIFORM_BOX, (count, width))


def ood_width_need(kinds, num_features: int) -> str | None:
    """"<kind> needs at least <n> features" for the first of the OOD
    ``kinds`` that rows of ``num_features`` are too narrow for, or None."""
    for kind in kinds:
        if num_features < OOD_MIN_FEATURES.get(kind, 0):
            return f"{kind} needs at least {OOD_MIN_FEATURES[kind]} features"
    return None


def synthesize_ood(features: np.ndarray, kind: str, rng: Rng) -> np.ndarray:
    """Uninformative outliers of the shape of the in-distribution ``features``.

    uniform: draws from UNIFORM_BOX. asymptotic: draws from the unit box
    times ASYMPTOTIC_SCALE, far from any standardized data. permute: an
    independent random permutation of each row's coordinates. blur: a
    width-3 box filter over the feature sequence, applied twice, with
    replicated edges. contrast: each row is pulled toward its own mean by a
    factor drawn from CONTRAST_RANGE. Rows narrower than the kind's
    OOD_MIN_FEATURES raise ``ValueError``.
    """
    x = features
    if x.shape[0] == 0:
        raise ValueError("features must be nonempty")
    if kind not in OOD_KINDS:
        raise ValueError(f"unknown ood kind {kind!r}")
    need = ood_width_need([kind], x.shape[1])
    if need:
        raise ValueError(f"{need}, got {x.shape[1]}")
    if kind == "uniform":
        return uniform_outliers(*x.shape, rng)
    if kind == "asymptotic":
        return rng.uniform(0.0, 1.0, x.shape) * ASYMPTOTIC_SCALE
    if kind == "permute":
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            out[i] = x[i, rng.permutation(x.shape[1])]
        return out
    if kind == "blur":
        out = x
        for _ in range(BLUR_PASSES):
            out = _box_blur_rows(out)
        return out
    c = rng.uniform(CONTRAST_RANGE[0], CONTRAST_RANGE[1], (x.shape[0], 1))
    row_mean = x.mean(axis=1, keepdims=True)
    return c * (x - row_mean) + row_mean


def standardize(
    train: Dataset, others: list[Dataset], include_targets: bool = False
) -> tuple[Dataset, list[Dataset]]:
    """Zero-mean unit-variance features using train statistics only.

    Returns the standardized train and ``others``. Constant columns get
    their std clamped to 1 so they map to zero. With ``include_targets``
    the float regression targets are standardized the same way; integer
    labels raise ``ValueError``. Every other dataset is transformed with the
    train stats, never its own.
    """
    if train.num_rows == 0:
        raise ValueError("train split must be nonempty")
    if include_targets and train.targets.dtype.kind != "f":
        raise ValueError("target standardization only applies to float regression targets")

    def scaler(values):
        mean, std = values.mean(axis=0), values.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return lambda v: (v - mean) / std

    features = scaler(train.features)
    targets = scaler(train.targets) if include_targets else (lambda t: t)

    def transform(ds: Dataset) -> Dataset:
        return Dataset(features(ds.features), targets(ds.targets))

    return transform(train), [transform(d) for d in others]


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seed-deterministic shuffle into disjoint train/val/test datasets."""
    m = data.num_rows
    order = Rng(spec.seed).permutation(m)
    n_train, n_val, _ = spec.counts(m)
    idx_train = order[:n_train]
    idx_val = order[n_train : n_train + n_val]
    idx_test = order[n_train + n_val :]

    def take(idx):
        return Dataset(data.features[idx], data.targets[idx])

    return take(idx_train), take(idx_val), take(idx_test)


def load_csv(path: str, target_column, header: bool = True) -> Dataset:
    """Rectangular numeric CSV into a regression dataset.

    ``target_column`` is a column name (requires a header row) or a 0-based
    index. Features keep the remaining columns in file order. Parse failures
    and non-finite cells (``nan``, ``inf``) report the offending 1-based row
    and column, the header counted. Classification use casts the target
    column to labels downstream.

    The body is parsed in bulk by ``np.loadtxt``; any file it rejects, or
    whose width disagrees with the header, goes through the cell-by-cell
    reader instead, which gives the same values and reports the error.
    """
    bulk = _load_csv_bulk(path, header)
    if bulk is None:
        return _load_csv_cells(path, target_column, header)
    names, parsed = bulk
    return _csv_dataset(
        path, header, parsed, _target_index(names, parsed.shape[1], target_column)
    )


def _load_csv_bulk(path: str, header: bool):
    """(header names or None, values), or None where the cell reader must decide.

    Only the header line goes through ``csv.reader``. A body that does not
    parse, has no rows, or is not as wide as the header is left to the cell
    reader; so is a blank first line, whose empty header fits no width.
    """
    import csv

    names = None
    try:
        if header:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                names = [c.strip() for c in next(csv.reader(handle), [])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on an empty body
            parsed = np.loadtxt(
                path, delimiter=",", skiprows=int(header), ndmin=2,
                comments=None, encoding="utf-8",
            )
    except (ValueError, OSError, csv.Error):
        return None
    if parsed.shape[0] == 0 or (names is not None and len(names) != parsed.shape[1]):
        return None
    return names, parsed


def _load_csv_cells(path: str, target_column, header: bool) -> Dataset:
    """The cell-by-cell reader: every row and column error names its place."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = None
    if header:
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if names is not None and len(names) != width:
        raise ValueError(
            f"{path}: header has {len(names)} columns, "
            f"first data row has {width} cells"
        )
    target_idx = _target_index(names, width, target_column)

    parsed = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {i + 1 + int(header)} has {len(row)} cells, "
                f"expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: cannot parse {cell!r} at row "
                    f"{i + 1 + int(header)}, column {j + 1}"
                ) from None
    return _csv_dataset(path, header, parsed, target_idx)


def _target_index(names: list[str] | None, width: int, target_column) -> int:
    if isinstance(target_column, str):
        if names is None:
            raise ValueError("column names require header=True")
        if target_column not in names:
            raise ValueError(f"target column {target_column!r} not found")
        return names.index(target_column)
    target_idx = int(target_column)
    if not 0 <= target_idx < width:
        raise ValueError(f"target column index {target_idx} out of range")
    return target_idx


def _csv_dataset(
    path: str, header: bool, parsed: np.ndarray, target_idx: int
) -> Dataset:
    """The parsed cells as a regression dataset; a NaN or infinite cell is
    a ``ValueError`` naming the first one's row and column."""
    bad = np.argwhere(~np.isfinite(parsed))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"{path}: non-finite value {parsed[i, j]} at row "
            f"{i + 1 + int(header)}, column {j + 1}"
        )
    feature_cols = [j for j in range(parsed.shape[1]) if j != target_idx]
    return Dataset(parsed[:, feature_cols], parsed[:, [target_idx]])
