"""Curvature estimation, Laplace posteriors, and predictive approximations.

Curvature is always the generalized Gauss-Newton (GGN): the indefinite exact
Hessian is replaced by sum_x J_x^T Lambda_x J_x with J_x the output Jacobian
and Lambda_x the output-space Hessian of the negative log-likelihood. The
posterior precision is the data-term curvature plus prior_precision * I,
and the prior precision lambda must be finite and positive with a finite
reciprocal, so that the prior N(0, I / lambda) is proper with a finite
variance and every precision is positive definite.

Parameter subsets:

* ``all_layers``: the full flattened parameter vector (frozen layer-major
  ordering from :mod:`lula_lab.network`).
* ``last_layer``: only the output layer, with biases folded into the weight
  matrix through a constant-1 feature. Ordering is row-major over the
  augmented matrix [W | b], i.e. index (i, c) -> i * F + c with F the
  augmented feature count.

With Lambda_x = L_x L_x^T in closed form
(:func:`lula_lab.training.output_hessian_roots`), both subsets hold the
rows L_x^T J_x of R (Dangel, Kunstner & Hennig 2020) as per-layer factors,
never the Jacobian J_x: all layers' from one backward sweep seeded with
L_x, the linear last layer's as the one block L_x^T kron hbar_x
(Daxberger et al. 2021). In parameter space each chunk of examples has
its rows written, which add R^T R to the full GGN (below); a fixed byte
budget for a chunk's rows bounds the chunk. The diagonal writes no row: a
block's squared rows sum to (sum_a delta^2)^T feat^2 over its weights and
sum_a delta^2 over its bias (BackPACK's DiagGGN), read one chunk of
examples' factors at a time under the same budget, so it costs n r out_l +
n out_l in_l per layer, not n r d. In data space the factors are kept
(below).

Every curvature kind is a spectrum s in a basis B fixed at fit time. A GGN
is positive semidefinite, so the fit clips every eigenvalue at 0 (a
negative one is round-off) and s >= 0. The posterior of every prior
precision lambda > 0 then has one covariance form,

    Sigma = c I + B^T diag(t) B,  with symmetric root  c' I + B^T diag(t') B,

and no d x d precision is ever factored. The kinds differ only in B:

* full: the full GGN is R^T R with R the (n r, d) stack of every example's
  rows L_x^T J_x, r the root width (the rank of Lambda_x: k - 1 for the
  categorical likelihood, 1 for the binary one, k for the Gaussian). It is
  eigendecomposed once per curvature, in the smaller of its two spaces.
  In data space, n r < d (Khan et al. 2019; Immer, Korzepa & Bauer 2021),
  eigh(R R^T) = U diag(e) U^T and B = W = U^T R, so GGN = W^T W and
  W W^T = diag(e). In parameter space, n r >= d, the d x d GGN is formed
  and eigh(GGN) = Q diag(e) Q^T gives B = Q^T.

  Data space holds R in kernel form: a linear layer's rows are outer
  products delta kron h, so with Delta_l (n, r, out_l) the pre-activation
  gradients of the sweep seeded with L_x and H_l (n, in_l) the layer
  inputs, K = R R^T = sum_l (Delta_l Delta_l^T) o (H_l H_l^T + 1), the
  H-Gram repeated over each point's r rows (Delta = L_x^T and H = hbar
  for the last layer, whose bias column is in hbar). The basis
  (:class:`DataBasis`) keeps only these factors and U, never R or W: B v
  = U^T (R v) and B^T w = R^T (U w) write R's rows from the factors one
  chunk of curvature points at a time, by the same row writer as every
  other Jacobian row, so no whole R is held. FULL_GGN_CAP still counts
  min(n r, d) * d floats there, the rows the form no longer holds, so
  that the fits it admits do not depend on the form.
* diagonal: B = I and s the GGN's diagonal, the column sums of R * R
  read from the factors.
* Kronecker (last layer only): G = sum over data of Lambda_x (k x k) and
  A = average over data of the augmented feature outer products (F x F),
  so that kron(G, A) targets the data-term GGN. The fit keeps only their
  eigendecompositions G = Q_G diag(g) Q_G^T, taken once per fit (and once
  per LULA training run, whose outputs do not move), and
  A = Q_A diag(a) Q_A^T: B = (Q_G kron Q_A)^T and s = g_p a_q (Ritter,
  Botev & Barber 2018; Daxberger et al. 2021). B maps the row-major
  (k, F) view V of a vector to Q_G^T V Q_A, so no kF x kF matrix is ever
  formed.

Data space is exactly a spectrum shorter than d. There c = 1 / lambda and
t = -1 / (lambda (e + lambda)), that is
Sigma = (I - W^T diag(1 / (e + lambda)) W) / lambda with no division by e:
the directions outside the rows of W carry the prior alone. The basis keeps
only the Gram's range, the eigenpairs with e > n r eps max(e): a smaller e
is round-off of a direction that R does not span, whose W row of round-off
size, weighted by t = -1 / lambda^2, would blow up at a small lambda; the
prior alone is its exact variance. Every other case has c = 0,
t = 1 / (s + lambda) and t' = sqrt(t). Every eigenvalue s + lambda of the
precision is at least lambda, so these are read directly. A variance is
g^T Sigma g = c |g|^2 + (B g)^2 . t and a draw is
mean + c' z + B^T (t' * B z), for the Kronecker kind too: its draw is the
exact inverse of kron(G, A) + lambda I.

Both predictives use the network linearized at its parameters theta*,
f(x; theta*) + J(x) (theta - theta*), because the GGN posterior is the exact
Laplace posterior of that model; pushing parameter draws through the
nonlinear network instead underfits (Immer, Korzepa & Bauer 2021). Under
that model the outputs at a point are exactly Gaussian,
N(f(x), Sigma_f(x)) with Sigma_f = J Sigma J^T (k x k), so no parameter
vector is ever drawn to predict. :func:`linearize` computes the lambda-free
pieces of a point set once per curvature: f, the projections P = B J^T of
each point's Jacobian rows (one batched Jacobian per chunk of points, never
a whole set's J) and, in data space, the Gram J J^T; for the Kronecker kind
only u = (Q_A^T hbar)^2. In data space no Jacobian row is formed either:
the same factor sweep, seeded with I_k, gives the points' Delta_l(X) and
H_l(X), so that P = (sum_l (Delta_l(X) Delta_l^T) o (H_l(X) H_l^T + 1)) U
and J J^T = sum_l delta delta^T (|h|^2 + 1) per point. Each prior precision
then reads
Sigma_f = c J J^T + P diag(t) P^T, for the Kronecker kind
Q_G diag(u t^T) Q_G^T with t as its (k, F) grid.

* probit_linearized integrates the Gaussian in closed form from the
  diagonal of Sigma_f (binary and regression).
* mc, classification: each point's logits are f + R eps_s, with R R^T the
  output covariance (a batched k x k eigh clipped at 0; for the Kronecker
  kind Q_G diag(sqrt(u t^T)) read from the basis) and one standard normal
  block eps of shape (count, k) shared by every point and set.
* mc, regression: exact, mean f and variance diag(Sigma_f) + 1 / beta; no
  draws, so repeated runs give the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    Network,
    _as_batch,
    _Block,
    _pre_activation,
    _write_rows,
    apply_activation,
    augment_ones,
    forward_output,
    jacobian_factors,
)
from .numerics import Rng
from .training import (
    LossKind,
    hessian_root_width,
    output_hessian_roots,
    output_hessians,
    sigmoid,
)

__all__ = [
    "CURVATURE_KINDS",
    "SUBSETS",
    "PREDICT_METHODS",
    "TUNE_OBJECTIVES",
    "Curvature",
    "DataBasis",
    "LaplacePosterior",
    "Linearization",
    "PredictConfig",
    "Predictive",
    "check_curvature_fit",
    "proper_prior_precision",
    "fit_curvature",
    "build_posterior",
    "linearize",
    "linearized_variance_batch",
    "probit_predict_binary",
    "predict_linearized",
    "mc_predict",
    "mc_predict_sets",
    "predictive_log_likelihood",
    "tune_prior_precision",
]

CURVATURE_KINDS = ("full_ggn", "diag_ggn", "kfac_last_layer")
SUBSETS = ("all_layers", "last_layer")
PREDICT_METHODS = ("mc", "probit_linearized")
TUNE_OBJECTIVES = ("val_log_likelihood", "ood_mmc")

# A full GGN is built only when min(n r, dim) * dim, r the root width, is at
# most FULL_GGN_CAP**2 floats: the dim x dim matrix in parameter space, and
# in data space (n r < dim) the size the n r stacked rows would have. Data
# space holds only their per-layer factors and (n r)^2 floats, but keeps the
# same cap so that the fits a config admits do not depend on the form.
FULL_GGN_CAP = 5000
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-4.0, 4.0, 17))
# Bytes of the per-point rows of one chunk of m points: (m, w, d) Jacobian
# rows of width d (w = r for the parameter-space full GGN, k for
# linearize), in data space linearize's (m, k, n r) kernel rows, or for the
# diagonal twice its row factors; bounds memory for long datasets and
# large d.
_JACOBIAN_CHUNK_BYTES = 8 * 2**20
# Bytes of sampled (samples, k, c) logits of c points held at once by the MC
# predictive.
_MC_CHUNK_BYTES = 2 * 2**20


def proper_prior_precision(lam) -> bool:
    """Whether each prior precision lambda in ``lam`` (a number or an
    array) and its reciprocal, the variance of the prior N(0, I / lambda),
    are finite and positive: a subnormal such as 1e-310 is not."""
    lam = np.asarray(lam, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        recip = 1.0 / lam
    return bool(np.all((lam > 0.0) & (lam < np.inf) & (recip < np.inf)))


def _require_proper_prior_precision(lam) -> None:
    """``ValueError`` unless :func:`proper_prior_precision` holds."""
    if not proper_prior_precision(lam):
        raise ValueError(
            "prior_precision must be a finite positive number with a "
            f"finite reciprocal, got {lam!r}"
        )


def _subset_dim(net: Network, subset: str) -> int:
    """The parameter count of ``net``'s ``subset``: every parameter, or the
    last layer's k (F + 1) augmented weights."""
    if subset == "all_layers":
        return net.num_params
    return net.output_dim * (net.specs[-1].in_dim + 1)


def check_curvature_fit(
    net: Network, features: np.ndarray, loss: LossKind, kind: str, subset: str
) -> None:
    """Raise ``ValueError`` for a fit that :func:`fit_curvature` refuses,
    from shapes alone: an unknown kind or subset, the Kronecker kind off
    the last layer, no data, features that are not a batch of the
    network's input width, or a full kind for which min(n r, d) x d
    floats, r the root width, would exceed FULL_GGN_CAP**2: the
    parameter-space matrix, or in data space the rows R that the factored
    form never holds, counted alike on purpose."""
    if kind not in CURVATURE_KINDS:
        raise ValueError(f"unknown curvature kind {kind!r}")
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}")
    if kind == "kfac_last_layer" and subset != "last_layer":
        raise ValueError("kfac_last_layer requires the last_layer subset")
    features = np.asarray(features)
    if features.shape[0] == 0:
        raise ValueError("curvature data must be nonempty")
    if features.ndim != 2 or features.shape[1] != net.input_dim:
        raise ValueError(
            f"input batch must have {net.input_dim} columns, got shape "
            f"{features.shape}"
        )
    if kind != "full_ggn":
        return
    dim = _subset_dim(net, subset)
    stored = min(features.shape[0] * hessian_root_width(loss, net.output_dim), dim)
    if stored * dim > FULL_GGN_CAP**2:
        raise ValueError(
            f"full_ggn array of {stored} x {dim} floats exceeds cap "
            f"{FULL_GGN_CAP}**2"
        )


def _point_chunks(num_points: int, width: int):
    """Consecutive slices of ``num_points`` points, ``width`` floats per
    point, each holding at most _JACOBIAN_CHUNK_BYTES."""
    step = max(1, _JACOBIAN_CHUNK_BYTES // (8 * max(width, 1)))
    for start in range(0, num_points, step):
        yield slice(start, min(start + step, num_points))


def _jacobian_chunks(num_points: int, width: int, dim: int):
    """Yield (points, buffer) over :func:`_point_chunks` of ``num_points``
    points, ``width`` Jacobian rows of ``dim`` floats per point.

    ``buffer`` is a flat, contiguous array of len(points) * width * dim
    floats, reshaped by the caller as (m, width, dim) for the row writer
    :func:`lula_lab.network._write_rows`: the leading part of one scratch
    array of the first (largest) chunk's size. The parameter-space full
    GGN, linearize outside data space, and B v and B^T w of a
    :class:`DataBasis` take Jacobian rows this way; the diagonal, the
    data-space fit and linearize read the factors alone.
    """
    size = width * dim
    scratch = None
    for points in _point_chunks(num_points, size):
        rows = (points.stop - points.start) * size
        if scratch is None:
            scratch = np.empty(rows)
        yield points, scratch[:rows]


def _gram(rows: list[_Block], cols: list[_Block]) -> np.ndarray:
    """R_rows R_cols^T of two stacks held as factors, shape (n r, n' r'):
    the sum over layers of (Delta Delta'^T) o (H H'^T + 1), the feature
    Gram repeated over each point's rows (no + 1 where the bias is in H)."""
    (n, r), (n2, r2) = rows[0].delta.shape[:2], cols[0].delta.shape[:2]
    total = np.zeros((n * r, n2 * r2))
    prod = np.empty_like(total)  # one buffer for every layer's product
    for a, b in zip(rows, cols):
        width = a.delta.shape[2]
        feat = a.feat @ b.feat.T
        if a.bias:
            feat += 1.0
        np.matmul(
            a.delta.reshape(n * r, width), b.delta.reshape(n2 * r2, width).T, out=prod
        )
        per_point = prod.reshape(n, r, n2, r2)
        per_point *= feat[:, None, :, None]
        total += prod
    return total


@dataclass
class DataBasis:
    """The data-space basis B = W = U^T R of a full GGN, with R the
    (n r, d) stack of every curvature point's rows L_x^T J_x, r the root
    width, held as per-layer factors and never formed whole.

    ``blocks`` are R's :class:`lula_lab.network._Block` factors: one per
    layer for all layers, one with delta = L_x^T and the augmented features
    for the last layer. ``u`` holds the eigenvectors U of the Gram
    K = R R^T = U diag(e) U^T that span its range, (n r, S) with S <= n r,
    so that GGN = W^T W and W W^T = diag(e). B v and B^T w write R's rows one
    :func:`_jacobian_chunks` chunk of curvature points at a time.
    """

    blocks: list[_Block]
    u: np.ndarray

    @property
    def dim(self) -> int:
        top = self.blocks[-1]
        out, inn = top.delta.shape[2], top.feat.shape[1]
        return top.start + out * (inn + top.bias)

    def _row_chunks(self):
        """Yield (rows, R[rows]) over chunks of curvature points: the slice
        of R's n r rows and those rows, (len, d), written from the factors
        into one reused buffer."""
        n, r = self.blocks[0].delta.shape[:2]
        for points, buf in _jacobian_chunks(n, r, self.dim):
            m = points.stop - points.start
            part = [b._replace(delta=b.delta[points], feat=b.feat[points])
                    for b in self.blocks]
            _write_rows(part, buf.reshape(m, r, self.dim))
            yield slice(points.start * r, points.stop * r), buf.reshape(m * r, self.dim)

    def project(self, vectors: np.ndarray) -> np.ndarray:
        """B v = U^T (R v) for each row v of ``vectors``."""
        cols = np.empty((vectors.shape[0], self.u.shape[0]))
        for rows, chunk in self._row_chunks():
            cols[:, rows] = vectors @ chunk.T
        return cols @ self.u

    def back(self, coeffs: np.ndarray) -> np.ndarray:
        """B^T w = R^T (U w) for each row w of ``coeffs``."""
        y = coeffs @ self.u.T
        result = np.zeros((coeffs.shape[0], self.dim))
        for rows, chunk in self._row_chunks():
            result += y[:, rows] @ chunk
        return result


def _psd_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, Q) from eigh(matrix) = Q diag(e) Q^T of a positive semidefinite
    matrix, with e clipped at 0: a negative eigenvalue is round-off."""
    e, q = np.linalg.eigh(matrix)
    return np.maximum(e, 0.0, out=e), q


def _data_basis(blocks: list[_Block]) -> tuple[np.ndarray, DataBasis]:
    """(e, B) from eigh(K) = U diag(e) U^T of the Gram K = R R^T of the
    rows held as ``blocks``, keeping only the eigenpairs of K's range,
    e > n r eps max(e): a smaller e is round-off of a null direction."""
    gram = _gram(blocks, blocks)
    e, u = np.linalg.eigh(gram)
    keep = e > gram.shape[0] * np.finfo(float).eps * e.max(initial=0.0)
    return e[keep], DataBasis(blocks, u[:, keep])


@dataclass
class Curvature:
    """Data-term GGN over a parameter subset (prior term not included), as
    a ``spectrum`` in a ``basis`` fixed at fit time. A fitted spectrum has
    no negative entry: the fit clips round-off at 0.

    ``basis`` is the full kind's Q^T (parameter space) or
    :class:`DataBasis` (data space), ``None`` for the diagonal kind
    (B = I), or ``(Q_G, Q_A)`` for the Kronecker kind, whose spectrum is
    ``np.outer(g, a).ravel()``. With one spectrum entry per parameter, B
    is orthonormal and GGN = B^T diag(spectrum) B. A shorter spectrum is
    data space: the n r rows of W = U^T R (r the root width) have
    W W^T = diag(spectrum) and GGN = W^T W, and the basis holds only R's
    per-layer factors and U, no d-wide row.
    """

    kind: str
    subset: str
    mean: np.ndarray
    num_outputs: int
    spectrum: np.ndarray
    basis: np.ndarray | DataBasis | tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def last_layer_mean(net: Network) -> np.ndarray:
    """Last-layer parameters in the augmented row-major ordering."""
    w, b = net.weights[-1], net.biases[-1]
    return np.concatenate([w, b[:, None]], axis=1).ravel(order="C")


def _output_factor_eigh(loss: LossKind, outputs: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(g, Q_G) of the Kronecker output factor G = sum_x Lambda_x (k x k)
    at the network ``outputs`` (n, k), eigendecomposed and clipped at 0."""
    return _psd_eigh(output_hessians(loss, outputs).sum(axis=0))


def _kfac_curvature(mean: np.ndarray, output_eigh: tuple[np.ndarray, np.ndarray],
                    hbar: np.ndarray) -> Curvature:
    """The Kronecker last-layer curvature around ``mean`` with G's
    eigenpairs ``output_eigh`` = (g, Q_G) from :func:`_output_factor_eigh`,
    taken once by the caller, and A = hbar^T hbar / n from the augmented
    final hidden features ``hbar`` (n, F), eigendecomposed here and clipped
    at 0."""
    g, q_out = output_eigh
    a, q_feat = _psd_eigh((hbar.T @ hbar) / hbar.shape[0])
    return Curvature("kfac_last_layer", "last_layer", mean, g.size,
                     np.outer(g, a).ravel(), (q_out, q_feat))


def _final_layer(net: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f(x), hbar) for the batch ``x``: the network's outputs, bitwise
    those of :func:`lula_lab.network.forward`, and the augmented final
    hidden features (m, F) that the output layer reads."""
    h = forward_output(net, x, net.num_layers - 1)
    top, w, b = net.specs[-1], net.weights[-1], net.biases[-1]
    return apply_activation(top.activation, _pre_activation(h, w, b)), augment_ones(h)


def _row_factors(net: Network, subset: str, x: np.ndarray, hbar: np.ndarray,
                 seeds: np.ndarray, points: slice) -> list[_Block]:
    """The factors of the rows S_x^T J_x over ``subset`` of the examples
    ``points``, S_x = ``seeds[x]`` (k, r): every layer's from one
    :func:`lula_lab.network.jacobian_factors` sweep, or for the linear last
    layer, whose row a is sum_i S_x[i, a] (e_i kron hbar_x), one block."""
    if subset == "all_layers":
        return jacobian_factors(net, x[points], seeds[points])
    return [_Block(seeds[points].transpose(0, 2, 1), hbar[points], 0, False)]


def _factor_diagonal(net: Network, subset: str, x: np.ndarray, hbar: np.ndarray,
                     roots: np.ndarray, dim: int) -> np.ndarray:
    """The diagonal of R^T R over ``subset``, R the rows of the
    :func:`_row_factors` seeded with ``roots`` (n, k, r), read from the
    factors with no row written (BackPACK's DiagGGN; Dangel, Kunstner &
    Hennig 2020): a block's weight entries add (sum_a delta^2)^T feat^2 and
    its bias entries the sum over points of sum_a delta^2. The chunk of
    points is budgeted on twice the factor floats per point, r out + in
    summed over the blocks, for the sweep's forward pass and the squares
    held beside the factors."""
    n, _, r = roots.shape
    if subset == "all_layers":
        width = sum(r * spec.out_dim + spec.in_dim for spec in net.specs)
    else:
        width = r * net.output_dim + hbar.shape[1]
    diag = np.zeros(dim)
    for points in _point_chunks(n, 2 * width):
        for blk in _row_factors(net, subset, x, hbar, roots, points):
            out, inn = blk.delta.shape[2], blk.feat.shape[1]
            stop = blk.start + out * inn
            squares = np.einsum("mro,mro->mo", blk.delta, blk.delta)
            diag[blk.start : stop] += (squares.T @ np.square(blk.feat)).ravel()
            if blk.bias:
                diag[stop : stop + out] += squares.sum(axis=0)
    return diag


def fit_curvature(
    net: Network,
    features: np.ndarray,
    loss: LossKind,
    kind: str,
    subset: str = "last_layer",
) -> Curvature:
    """Accumulate the data-term GGN over the given dataset.

    Targets are not needed: the inner factor is the output-space Hessian of
    the negative log-likelihood, a function of the outputs alone. The
    Kronecker kind keeps only the eigendecompositions of its two factors.
    Every other fit, of either subset, reads R, the stack of L_x^T J_x with
    L_x L_x^T = Lambda_x, as the factors of :func:`_row_factors` seeded
    with the roots; L_x is (k, r), r the root width, so each example adds r
    rows. The full kind is eigendecomposed once, and every eigenvalue, the
    Kronecker factors' too, is clipped at 0: a GGN is positive
    semidefinite, so a negative one is round-off. In data space, fewer rows
    (n r) than parameters, it is eigh of the Gram K = R R^T of the factors,
    of which only K's range is kept (:func:`_data_basis`), and the
    :class:`DataBasis` keeps those factors and U, no d-wide row. In
    parameter space each chunk of examples has its rows written by
    :func:`lula_lab.network._write_rows` and summed as R^T R. The diagonal
    writes no row: :func:`_factor_diagonal` sums R * R's columns from each
    chunk's factors. Every refusal
    of :func:`check_curvature_fit`, a full kind for which min(n r, d) x d
    floats would exceed FULL_GGN_CAP**2 among them (in data space too,
    though it holds only the factors and (n r)^2 floats), raises
    ``ValueError`` before any forward pass.
    """
    features = np.asarray(features, dtype=np.float64)
    check_curvature_fit(net, features, loss, kind, subset)
    k = net.output_dim
    outputs, hbar = _final_layer(net, features)
    mean = net.flatten_params() if subset == "all_layers" else last_layer_mean(net)
    if kind == "kfac_last_layer":
        return _kfac_curvature(mean, _output_factor_eigh(loss, outputs), hbar)

    roots = output_hessian_roots(loss, outputs)
    (n, _, r), dim = roots.shape, mean.size
    if kind == "diag_ggn":
        return Curvature(kind, subset, mean, k,
                         _factor_diagonal(net, subset, features, hbar, roots, dim))
    if n * r < dim:
        # copies, so that the basis holds no caller's array
        factors = _row_factors(net, subset, features, hbar, roots, slice(0, n))
        e, basis = _data_basis(
            [b._replace(delta=np.array(b.delta), feat=np.array(b.feat)) for b in factors]
        )
        return Curvature(kind, subset, mean, k, e, basis)
    full = np.zeros((dim, dim))
    for chunk, buf in _jacobian_chunks(n, r, dim):
        m = chunk.stop - chunk.start
        blocks = _row_factors(net, subset, features, hbar, roots, chunk)
        rows = _write_rows(blocks, buf.reshape(m, r, dim)).reshape(m * r, dim)
        full += rows.T @ rows  # numpy's syrk path: exactly symmetric
    e, q = _psd_eigh(full)
    return Curvature(kind, subset, mean, k, e, q.T)


def _project(basis, vectors: np.ndarray, back: bool = False) -> np.ndarray:
    """B v for each row v of ``vectors``, or B^T v with ``back``, for a
    curvature's ``basis``; the identity basis returns ``vectors`` itself."""
    if basis is None:
        return vectors
    if isinstance(basis, DataBasis):
        return basis.back(vectors) if back else basis.project(vectors)
    if isinstance(basis, tuple):
        # B v is the flattened Q_G^T V Q_A of the row-major (k, F) view V
        # of v, and B^T v is Q_G V Q_A^T
        q_out, q_feat = basis
        mats = vectors.reshape(-1, q_out.shape[0], q_feat.shape[0])
        if back:
            return (q_out @ mats @ q_feat.T).reshape(vectors.shape)
        return (q_out.T @ mats @ q_feat).reshape(vectors.shape)
    return vectors @ basis if back else vectors @ basis.T


class LaplacePosterior:
    """Gaussian over a parameter subset with precision H_data + lambda * I.

    Construction computes everything needed for sampling and variance
    queries; instances are immutable afterwards. Every kind holds
    Sigma = c I + B^T diag(t) B and its symmetric square root
    c' I + B^T diag(t') B, with B the curvature's basis: c = 1 / lambda and
    t = -1 / (lambda (e + lambda)) in data space (a spectrum shorter than
    the dimension), otherwise c = 0, t = 1 / (s + lambda) and t' = sqrt(t).
    ``curvature`` is the curvature it was built from. Raises
    ``ValueError`` for a prior precision that is not finite and positive or
    whose reciprocal, the prior variance, overflows, and for a curvature
    whose spectrum has a negative or NaN entry, so every precision eigenvalue s + lambda is at least lambda.
    """

    def __init__(self, curvature: Curvature, prior_precision: float):
        _require_proper_prior_precision(prior_precision)
        if not np.all(curvature.spectrum >= 0.0):
            raise ValueError("curvature spectrum has a negative or NaN entry")
        self.curvature = curvature
        self.kind = curvature.kind
        self.subset = curvature.subset
        self.prior_precision = float(prior_precision)
        self.num_outputs = curvature.num_outputs
        self.mean = np.array(curvature.mean, dtype=np.float64)
        self._basis = curvature.basis
        self._c = self._c_root = 0.0
        lam, s = self.prior_precision, curvature.spectrum
        if s.size < self.dim:
            # data space: the complement of the rows has eigenvalue 0, so
            # the precision there is lam alone
            shifted = s + lam
            root_lam, root_shifted = np.sqrt(lam), np.sqrt(shifted)
            self._c, self._c_root = 1.0 / lam, 1.0 / root_lam
            # row j of W has squared norm s_j, so these are
            # (1/u - 1/lam) / s and (1/sqrt(u) - 1/sqrt(lam)) / s with
            # u = s + lam, written without dividing by s
            self._t = -1.0 / (lam * shifted)
            self._t_root = -1.0 / (root_lam * root_shifted * (root_shifted + root_lam))
        else:
            self._t = 1.0 / (s + lam)
            self._t_root = np.sqrt(self._t)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: Rng, count: int) -> np.ndarray:
        """Draw parameter vectors, shape (count, dim), around the mean:
        mean + c' z + B^T (t' * B z) for standard normal z."""
        count = int(count)
        z = rng.standard_normal((count, self.dim))
        proj = _project(self._basis, z)
        proj *= self._t_root
        if not self._c_root:  # z is not zeroed: for the identity basis it is proj
            draws = _project(self._basis, proj, back=True)
            draws += self.mean
            return draws
        # the mean goes in before B^T proj exists: numpy's broadcast add
        # takes a scratch buffer, which would raise the peak beside it
        z *= self._c_root
        z += self.mean
        z += _project(self._basis, proj, back=True)
        return z

    def quad_forms(self, vectors: np.ndarray) -> np.ndarray:
        """g^T Sigma g = c |g|^2 + (B g)^2 . t for each row g of ``vectors``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dim:
            raise ValueError("vector dimension does not match posterior")
        proj = _project(self._basis, vectors)
        forms = (proj * proj) @ self._t
        if self._c:
            forms += self._c * np.einsum("ij,ij->i", vectors, vectors)
        return forms

    def _kron_spread(self, lin: Linearization) -> np.ndarray:
        """u t^T (m, k) of the Kronecker kind, with t as its (k, F) grid:
        the eigenvalues of Sigma_f in Q_G, since B g_i is
        Q_G[i, :] kron Q_A^T hbar for output i's gradient g_i."""
        return lin.proj @ self._t.reshape(self.num_outputs, -1).T

    def output_cov(self, lin: Linearization) -> np.ndarray:
        """Sigma_f = J Sigma J^T at each point of ``lin``, shape (m, k, k):
        c J J^T + P diag(t) P^T, for the Kronecker kind
        Q_G diag(u t^T) Q_G^T."""
        if isinstance(self._basis, tuple):
            q_out = self._basis[0]
            return (q_out * self._kron_spread(lin)[:, None, :]) @ q_out.T
        cov = (lin.proj * self._t) @ lin.proj.transpose(0, 2, 1)
        if self._c:
            cov += self._c * lin.gram
        return cov

    def output_root(self, lin: Linearization) -> np.ndarray:
        """R, shape (m, k, k), with R R^T = Sigma_f at each point of ``lin``:
        through a batched eigh clipped at 0, or for the Kronecker kind
        Q_G diag(sqrt(u t^T)) read from the basis."""
        if isinstance(self._basis, tuple):
            return self._basis[0] * np.sqrt(self._kron_spread(lin))[:, None, :]
        e, v = np.linalg.eigh(self.output_cov(lin))
        return v * np.sqrt(np.maximum(e, 0.0))[:, None, :]


def build_posterior(curvature: Curvature, prior_precision: float) -> LaplacePosterior:
    """Gaussian posterior with covariance (H_data + prior_precision I)^-1."""
    return LaplacePosterior(curvature, prior_precision)


@dataclass
class Linearization:
    """The prior-precision-free pieces of the output Gaussian at m points.

    ``mean`` is f (m, k). ``proj`` is P = B J^T per point (m, k, S), S the
    curvature's spectrum length, or for the Kronecker kind
    u = (Q_A^T hbar)^2 (m, F). ``gram`` is J J^T (m, k, k), held in data
    space only (a spectrum shorter than the dimension), where c != 0.
    """

    mean: np.ndarray
    proj: np.ndarray
    gram: np.ndarray | None = None


def linearize(net: Network, curvature: Curvature, x: np.ndarray) -> Linearization:
    """The pieces of :class:`Linearization` for the points ``x``.

    Each chunk of points takes the factors of its Jacobian rows from
    :func:`_row_factors` seeded with I_k, as the fit takes R's with the
    roots. In data space (:class:`DataBasis`) the kernel rows
    J R^T = sum_l (Delta_l(X) Delta_l^T) o (H_l(X) H_l^T + 1) give
    P = (J R^T) U and J J^T = sum_l delta delta^T (|h|^2 + 1) per point,
    with no Jacobian row. Otherwise the row writer writes the chunk's
    Jacobian rows, which one projection onto the curvature's basis turns
    into P. No whole set's J is held. The Kronecker kind needs only hbar.
    A curvature of another output count or subset size than the network's
    raises ``ValueError``.
    """
    x = _as_batch(x, net.input_dim)
    k, basis = curvature.num_outputs, curvature.basis
    dim = _subset_dim(net, curvature.subset)
    if (k, curvature.dim) != (net.output_dim, dim):
        raise ValueError(
            f"curvature of {k} outputs and {curvature.dim} {curvature.subset} "
            f"parameters does not fit the network's {net.output_dim} outputs "
            f"and {dim} {curvature.subset} parameters"
        )
    mean, hbar = _final_layer(net, x)
    if isinstance(basis, tuple):
        u = hbar @ basis[1]
        return Linearization(mean, np.square(u, out=u))
    m, width = x.shape[0], curvature.spectrum.size
    proj = np.empty((m, k, width))
    eye = np.broadcast_to(np.eye(k), (m, k, k))
    if isinstance(basis, DataBasis):
        # J R^T from the factors of both stacks, so P = (J R^T) U and
        # J J^T = sum over layers of delta delta^T (|h|^2 + 1)
        gram = np.zeros((m, k, k))
        for points in _point_chunks(m, k * basis.u.shape[0]):
            blocks = _row_factors(net, curvature.subset, x, hbar, eye, points)
            cross = _gram(blocks, basis.blocks)
            np.matmul(cross, basis.u, out=proj[points].reshape(len(cross), width))
            for blk in blocks:
                norms = np.einsum("mc,mc->m", blk.feat, blk.feat) + blk.bias
                grams = blk.delta @ blk.delta.transpose(0, 2, 1)
                gram[points] += grams * norms[:, None, None]
        return Linearization(mean, proj, gram)
    for points, buf in _jacobian_chunks(m, k, dim):
        n = points.stop - points.start
        blocks = _row_factors(net, curvature.subset, x, hbar, eye, points)
        _write_rows(blocks, buf.reshape(n, k, dim))
        proj[points] = _project(basis, buf.reshape(n * k, dim)).reshape(n, k, width)
    return Linearization(mean, proj)


def _diagonals(cov: np.ndarray) -> np.ndarray:
    """The (m, k) diagonals of a stack of (m, k, k) matrices, as a new array."""
    return cov.diagonal(axis1=1, axis2=2).copy()


def linearized_variance_batch(
    net: Network, post: LaplacePosterior, x: np.ndarray
) -> np.ndarray:
    """Per-output linearized predictive variances, shape (m, k): the
    diagonal of Sigma_f = J Sigma J^T, J the output Jacobian restricted to
    the posterior subset at the network's current parameters."""
    return _diagonals(post.output_cov(linearize(net, post.curvature, x)))


def probit_predict_binary(f_map, v):
    """Binary predictive sigma(f / sqrt(1 + pi/8 * v)); v may be an array."""
    f_map = np.asarray(f_map, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(v < 0.0):
        raise ValueError("variance must be nonnegative")
    scaled = f_map / np.sqrt(1.0 + (np.pi / 8.0) * v)
    result = sigmoid(np.atleast_1d(scaled))
    return float(result[0]) if scaled.ndim == 0 else result.reshape(scaled.shape)


@dataclass(frozen=True)
class PredictConfig:
    method: str = "mc"
    sample_count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.method not in PREDICT_METHODS:
            raise ValueError(f"unknown predict method {self.method!r}")
        if self.method == "mc" and self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


@dataclass
class Predictive:
    """Predictive summary; classification fills probabilities, regression the rest.

    Regression variance is reported both without (epistemic) and with
    (total) the aleatoric 1/beta term.
    """

    probabilities: np.ndarray | None = None
    mean: np.ndarray | None = None
    var_epistemic: np.ndarray | None = None
    var_total: np.ndarray | None = None


def _points_major(acc: np.ndarray, n: int) -> np.ndarray:
    """A (r, m) sum over n samples as a C-ordered (m, r) mean."""
    return np.ascontiguousarray(acc.T) / n


def _sampled_probabilities(
    post: LaplacePosterior, lin: Linearization, eps: np.ndarray, loss: LossKind
) -> Predictive:
    """Sample-average softmax (or sigmoid) of the logits f + R eps_s.

    The logits come as (samples, k, points) chunks of at most
    _MC_CHUNK_BYTES, so the softmax reduces across k contiguous point
    vectors; each chunk's sum over samples fills its points' columns of a
    (k, points) accumulator, transposed once at the end.
    """
    n, k = eps.shape
    root = post.output_root(lin)
    acc = np.zeros((2 if loss.kind == "binary_ce" else k, root.shape[0]))
    step = max(1, _MC_CHUNK_BYTES // (8 * k * n))
    for start in range(0, root.shape[0], step):
        points = slice(start, start + step)
        chunk = root[points]
        # z[s, i, p] = f[p, i] + sum_j R[p, i, j] eps[s, j], as one GEMM
        z = eps @ chunk.transpose(2, 1, 0).reshape(k, -1)
        z = z.reshape(n, k, -1)
        z += lin.mean[points].T
        if loss.kind == "binary_ce":
            p1 = sigmoid(z[:, 0, :])
            acc[0, points] = (1.0 - p1).sum(axis=0)
            acc[1, points] = p1.sum(axis=0)
        else:
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
            acc[:, points] = z.sum(axis=0)
    return Predictive(probabilities=_points_major(acc, n))


def predict_linearized(
    post: LaplacePosterior,
    sets: list[Linearization],
    cfg: PredictConfig,
    loss: LossKind,
) -> list[Predictive]:
    """Posterior predictive of each linearized point set in ``sets``.

    probit_linearized: the closed form from diag(Sigma_f), exact for
    regression, the probit approximation for single-logit binary
    classification (no multi-class closed form is provided). mc,
    classification: ``cfg.sample_count`` logit draws f + R eps_s per point,
    R from :meth:`LaplacePosterior.output_root`, with one standard normal
    block eps (sample_count, k) drawn from ``Rng(cfg.seed)`` and shared by
    every point and set, so each result is bit-identical to scoring its set
    alone. mc, regression: the exact moments of the same output Gaussian,
    mean f and variance diag(Sigma_f), with no draws. Regression variance is reported
    without and with the aleatoric 1 / beta.
    """
    if cfg.method == "mc" and loss.kind != "gaussian_nll":
        eps = Rng(cfg.seed).standard_normal((cfg.sample_count, post.num_outputs))
        return [_sampled_probabilities(post, lin, eps, loss) for lin in sets]
    if loss.kind == "categorical_ce":
        raise ValueError(
            "probit_linearized supports binary (single-logit) or regression "
            "models only"
        )
    preds = []
    for lin in sets:
        v = _diagonals(post.output_cov(lin))
        if loss.kind == "binary_ce":
            p1 = probit_predict_binary(lin.mean[:, 0], v[:, 0])
            preds.append(Predictive(probabilities=np.stack([1.0 - p1, p1], axis=1)))
        else:
            preds.append(
                Predictive(
                    mean=lin.mean, var_epistemic=v, var_total=v + 1.0 / loss.noise_precision
                )
            )
    return preds


def mc_predict_sets(
    net: Network,
    post: LaplacePosterior,
    xs: list[np.ndarray],
    cfg: PredictConfig,
    loss: LossKind,
) -> list[Predictive]:
    """Posterior predictive for each batch in ``xs``:
    :func:`predict_linearized` on each batch's :func:`linearize`."""
    sets = [linearize(net, post.curvature, x) for x in xs]
    return predict_linearized(post, sets, cfg, loss)


def mc_predict(
    net: Network,
    post: LaplacePosterior,
    x: np.ndarray,
    cfg: PredictConfig,
    loss: LossKind,
) -> Predictive:
    """Posterior predictive for one batch: :func:`mc_predict_sets` on ``[x]``."""
    return mc_predict_sets(net, post, [x], cfg, loss)[0]


def predictive_log_likelihood(pred: Predictive, targets: np.ndarray) -> float:
    """Summed log-likelihood of labelled targets under a predictive.

    Classification scores log of the predictive probability of the true
    class; regression scores the full Gaussian density with the total
    (epistemic plus aleatoric) predictive variance. Targets of another row
    count than the predictions raise ``ValueError``.
    """
    rows = (pred.mean if pred.probabilities is None else pred.probabilities).shape[0]
    if np.shape(targets)[:1] != (rows,):
        raise ValueError(
            f"targets of shape {np.shape(targets)} do not fit {rows} predictions"
        )
    if pred.probabilities is not None:
        labels = np.asarray(targets).astype(np.int64)
        p = pred.probabilities[np.arange(labels.shape[0]), labels]
        return float(np.sum(np.log(np.maximum(p, 1e-300))))
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    var = np.maximum(pred.var_total, 1e-300)
    dens = -0.5 * np.log(2.0 * np.pi * var) - (y - pred.mean) ** 2 / (2.0 * var)
    return float(np.sum(dens))


def tune_prior_precision(
    net: Network,
    curvature: Curvature,
    features: np.ndarray,
    targets: np.ndarray,
    loss: LossKind,
    objective: str = "val_log_likelihood",
    grid=None,
    predict_cfg: PredictConfig | None = None,
    out_features: np.ndarray | None = None,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the prior precision over a candidate grid.

    ``val_log_likelihood`` maximizes the predictive log-likelihood on the
    given validation data. ``ood_mmc`` minimizes
    |1 - MMC_in| + |1/k - MMC_out|, both from one shared draw per
    candidate, with k the class count (2 under binary_ce, else the
    network's output count); it needs ``out_features`` and a
    classification loss. Each point set is linearized once, and every
    candidate reads those pieces. Every candidate must be a finite
    positive number (``ValueError`` from :func:`build_posterior`
    otherwise). Returns (best, [(lambda, score), ...]) with score in the
    objective's native orientation; the first of equal best scores wins.
    """
    from .metrics import mmc  # local import to avoid a cycle

    if objective not in TUNE_OBJECTIVES:
        raise ValueError(f"unknown tuning objective {objective!r}")
    if len(features) == 0:
        raise ValueError("features must be nonempty")
    cand = list(DEFAULT_LAMBDA_GRID if grid is None else grid)
    if not cand:
        raise ValueError("candidate grid must be nonempty")
    cfg = predict_cfg or PredictConfig()
    if objective == "ood_mmc" and out_features is None:
        raise ValueError("ood_mmc needs out_features")
    if objective == "ood_mmc" and loss.kind == "gaussian_nll":
        raise ValueError("ood_mmc scores class probabilities; gaussian_nll has none")
    num_classes = 2 if loss.kind == "binary_ce" else net.output_dim

    points = [features] if objective == "val_log_likelihood" else [features, out_features]
    sets = [linearize(net, curvature, x) for x in points]
    scores: list[tuple[float, float]] = []
    best_lam = best_key = None
    for lam in cand:
        post = build_posterior(curvature, lam)
        preds = predict_linearized(post, sets, cfg, loss)
        if objective == "val_log_likelihood":
            score = key = predictive_log_likelihood(preds[0], targets)
        else:
            mmc_in, mmc_out = (mmc(pred.probabilities) for pred in preds)
            score = abs(1.0 - mmc_in) + abs(1.0 / num_classes - mmc_out)
            key = -score
        scores.append((float(lam), float(score)))
        if best_key is None or key > best_key:
            best_key, best_lam = key, float(lam)
    return best_lam, scores
