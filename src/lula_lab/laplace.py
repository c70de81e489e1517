"""Curvature estimation, Laplace posteriors, and predictive approximations.

Curvature is always the generalized Gauss-Newton (GGN): the indefinite exact
Hessian is replaced by sum_x J_x^T Lambda_x J_x with J_x the output Jacobian
and Lambda_x the output-space Hessian of the negative log-likelihood. The
posterior precision is the data-term curvature plus prior_precision * I.

Parameter subsets:

* ``all_layers``: the full flattened parameter vector (frozen layer-major
  ordering from :mod:`lula_lab.network`). The GGN is accumulated over
  chunks of examples: with Lambda_x = L_x L_x^T in closed form
  (:func:`lula_lab.training.output_hessian_roots`), one backward sweep
  seeded with L_x writes the rows L_x^T J_x of R directly (Dangel,
  Kunstner & Hennig 2020), never the Jacobian J_x, and the chunk adds its
  rows to the full GGN (below) or the column sums of R * R to the
  diagonal. A fixed byte budget for a chunk's rows bounds the chunk, so
  the diagonal's memory stays flat however long the data, and the full GGN
  never holds more than one d x d array.
* ``last_layer``: only the output layer, with biases folded into the weight
  matrix through a constant-1 feature. Ordering is row-major over the
  augmented matrix [W | b], i.e. index (i, c) -> i * F + c with F the
  augmented feature count.

Every curvature kind is a spectrum s in a basis B fixed at fit time, so the
posterior of every prior precision lambda has one covariance form,

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
* diagonal: B = I and s the GGN's diagonal.
* Kronecker (last layer only): G = sum over data of Lambda_x (k x k) and
  A = average over data of the augmented feature outer products (F x F),
  so that kron(G, A) targets the data-term GGN. The fit keeps only their
  eigendecompositions G = Q_G diag(g) Q_G^T and A = Q_A diag(a) Q_A^T:
  B = (Q_G kron Q_A)^T and s = g_p a_q (Ritter, Botev & Barber 2018;
  Daxberger et al. 2021). B maps the row-major (k, F) view V of a vector
  to Q_G^T V Q_A, so no kF x kF matrix is ever formed.

Data space is exactly a spectrum shorter than d. There c = 1 / lambda and
t = -1 / (lambda (e + lambda)), that is
Sigma = (I - W^T diag(1 / (e + lambda)) W) / lambda with no division by e:
the d - n r directions outside the rows of W carry the prior alone. Every
other case has c = 0, t = 1 / (s + lambda) and t' = sqrt(t), exact at
lambda = 0 as well. The jitter ladder runs over the whole spectrum of the
precision (s plus lambda, and in data space lambda alone for each
complement direction), so its base is the mean eigenvalue,
mean(diag(precision)). A variance is g^T Sigma g = c |g|^2 + (B g)^2 . t and
a draw is mean + c' z + B^T (t' * B z).

The one exception is the Kronecker draw, which uses the standard per-factor
damped approximation, covariance
(G + sqrt(lambda) I)^-1 kron (A + sqrt(lambda) I)^-1, documented as an
approximation. Its damped factors are diagonal in the same eigenbases, so
the draw is M_G Z M_A^T with M_G = Q_G diag(g + sqrt(lambda))^-1/2 and
M_A = Q_A diag(a + sqrt(lambda))^-1/2, each factor spectrum through the
jitter ladder; nothing is factored per prior precision.

Both predictives use the network linearized at its parameters theta*,
f(x; theta*) + J(x) (theta - theta*), because the GGN posterior is the exact
Laplace posterior of that model; pushing its draws through the nonlinear
network instead underfits (Immer, Korzepa & Bauer 2021). The
probit_linearized method integrates it in closed form from the variances
J Sigma J^T; the mc method samples it. For the last layer the outputs are
linear in the weights, so the sampled outputs are W_s hbar(x); for all
layers they are f(x; theta*) + J(x) (theta_s - theta*), one batched
Jacobian per chunk of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .network import (
    Network,
    augment_ones,
    forward,
    forward_output,
    output_jacobian,
)
from .numerics import Rng, positive_diagonal
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
    "LaplacePosterior",
    "PredictConfig",
    "Predictive",
    "check_curvature_fit",
    "fit_curvature",
    "build_posterior",
    "probit_predict_binary",
    "mc_predict",
    "mc_predict_sets",
    "predictive_log_likelihood",
    "tune_prior_precision",
]

CURVATURE_KINDS = ("full_ggn", "diag_ggn", "kfac_last_layer")
SUBSETS = ("all_layers", "last_layer")
PREDICT_METHODS = ("mc", "probit_linearized")
TUNE_OBJECTIVES = ("val_log_likelihood", "ood_mmc")

# A full GGN stores a min(n r, dim) x dim array, r the root width (in
# parameter space the dim x dim matrix, in data space the n r stacked rows
# when n r < dim); it is built only when that array holds at most
# FULL_GGN_CAP**2 floats.
FULL_GGN_CAP = 5000
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-4.0, 4.0, 17))
# Bytes of the (m, w, d) Jacobian rows of one chunk of m points, w rows of
# width d per point (w = r for the all-layers curvature fit, k for the
# variances and the MC predictive); bounds memory for long datasets and
# large d.
_JACOBIAN_CHUNK_BYTES = 8 * 2**20
# Columns of R turned into W = U^T R per product in the data-space fit.
_EIGH_COLUMN_BLOCK = 256
# Bytes of sampled (c, k, m) logits held at once by the MC predictive.
_MC_CHUNK_BYTES = 2 * 2**20


def check_curvature_fit(
    net: Network, features: np.ndarray, loss: LossKind, kind: str, subset: str
) -> None:
    """Raise ``ValueError`` for a fit that :func:`fit_curvature` refuses,
    from shapes alone: an unknown kind or subset, the Kronecker kind off
    the last layer, no data, features that are not a batch of the
    network's input width, or a full kind whose stored array,
    min(n r, d) x d with r the root width, would exceed FULL_GGN_CAP**2
    floats."""
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
    k = net.output_dim
    if subset == "all_layers":
        dim = net.num_params
    else:
        dim = k * (net.specs[-1].in_dim + 1)
    stored = min(features.shape[0] * hessian_root_width(loss, k), dim)
    if stored * dim > FULL_GGN_CAP**2:
        raise ValueError(
            f"full_ggn array of {stored} x {dim} floats exceeds cap "
            f"{FULL_GGN_CAP}**2"
        )


def _jacobian_chunks(
    num_points: int, width: int, dim: int, out: np.ndarray | None = None
):
    """Yield (points, buffer) over consecutive slices of ``num_points``
    points, each holding at most _JACOBIAN_CHUNK_BYTES of Jacobian rows,
    ``width`` rows of ``dim`` floats per point.

    ``buffer`` is a flat, contiguous array of len(points) * width * dim
    floats for :func:`output_jacobian`'s ``out``, reshaped by the caller
    as (m, width, dim) or (width, m, dim). With ``out``, a flat array of
    num_points * width * dim floats, the buffers are its consecutive
    pieces, so the rows land in place; otherwise they are the leading part
    of one scratch array of the first (largest) chunk's size.
    """
    size = width * dim
    rows = max(1, _JACOBIAN_CHUNK_BYTES // (8 * max(size, 1)))
    if out is None:
        out = np.empty(min(rows, num_points) * size)
        step = 0
    else:
        step = size
    for start in range(0, num_points, rows):
        stop = min(start + rows, num_points)
        base = start * step
        yield slice(start, stop), out[base : base + (stop - start) * size]


@dataclass
class Curvature:
    """Data-term GGN over a parameter subset (prior term not included), as
    a ``spectrum`` in a ``basis`` fixed at fit time.

    ``basis`` is the full kind's rows, ``None`` for the diagonal kind
    (B = I), or ``(Q_G, Q_A)`` for the Kronecker kind, whose spectrum is
    ``np.outer(g, a).ravel()``. With one spectrum entry per parameter, B
    is orthonormal and GGN = B^T diag(spectrum) B. A shorter spectrum is
    data space: the n r rows W (r the root width) have
    W W^T = diag(spectrum) and GGN = W^T W. ``factor_spectra = (g, a)``,
    the Kronecker factors' own eigenvalues, serve only the damped draw.
    """

    kind: str
    subset: str
    mean: np.ndarray
    num_outputs: int
    spectrum: np.ndarray
    basis: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None
    feature_dim: int | None = None
    factor_spectra: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _data_space_eigh(root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, W = U^T R) from eigh(R R^T) = U diag(e) U^T, so GGN = W^T W.

    R is the (n r, d) stack, r the root width. W overwrites R one block of
    columns at a time, so only one (n r, d) array is ever held.
    """
    e, u = np.linalg.eigh(root @ root.T)
    u_t = u.T
    for start in range(0, root.shape[1], _EIGH_COLUMN_BLOCK):
        cols = root[:, start : start + _EIGH_COLUMN_BLOCK]
        cols[...] = u_t @ cols
    return e, root


def _parameter_space_eigh(ggn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, Q^T) from eigh(GGN) = Q diag(e) Q^T."""
    e, q = np.linalg.eigh(ggn)
    return e, q.T


def last_layer_mean(net: Network) -> np.ndarray:
    """Last-layer parameters in the augmented row-major ordering."""
    w, b = net.weights[-1], net.biases[-1]
    return np.concatenate([w, b[:, None]], axis=1).ravel(order="C")


def fit_curvature(
    net: Network,
    features: np.ndarray,
    loss: LossKind,
    kind: str,
    subset: str = "last_layer",
) -> Curvature:
    """Accumulate the data-term GGN over the given dataset.

    Targets are not needed: the inner factor is the output-space Hessian of
    the negative log-likelihood, a function of the outputs alone. For the
    last-layer subset the exact per-example structure
    Lambda_x kron (hbar hbar^T) is used directly; the Kronecker kind keeps
    only the eigendecompositions of its two factors. For all layers, each
    chunk of examples contributes its rows of R, the stacked L_x^T J_x with
    L_x L_x^T = Lambda_x, or the column sums of R * R (diagonal). L_x is
    (k, r), r the root width of
    :func:`lula_lab.training.output_hessian_roots`, so each example adds r
    rows; one backward sweep seeded with the roots
    (:func:`lula_lab.network.output_jacobian`'s ``seeds``) writes them, and
    no (k, d) Jacobian is formed. The full kind is eigendecomposed once, in
    data space from the whole R when it has fewer rows (n r) than
    parameters, otherwise in parameter space from the summed R^T R (last
    layer: the Kronecker-structured einsum). Every refusal of
    :func:`check_curvature_fit`, a full kind whose stored array,
    min(n r, d) x d, would exceed FULL_GGN_CAP**2 floats among them, raises
    ``ValueError`` before any forward pass.
    """
    features = np.asarray(features, dtype=np.float64)
    check_curvature_fit(net, features, loss, kind, subset)
    k = net.output_dim

    if subset == "last_layer":
        trace = forward(net, features)
        hbar = augment_ones(trace.activations[-2])
        lambdas = output_hessians(loss, trace.output)
        feat = hbar.shape[1]
        dim = k * feat
        mean = last_layer_mean(net)
        if kind == "kfac_last_layer":
            g, q_out = np.linalg.eigh(lambdas.sum(axis=0))
            a, q_feat = np.linalg.eigh((hbar.T @ hbar) / features.shape[0])
            return Curvature(
                kind,
                subset,
                mean,
                k,
                np.outer(g, a).ravel(),
                (q_out, q_feat),
                feature_dim=feat,
                factor_spectra=(g, a),
            )
        if kind == "full_ggn":
            roots = output_hessian_roots(loss, trace.output)
            if features.shape[0] * roots.shape[2] < dim:
                # row a of L_x^T J_x is sum_i L_x[i, a] (e_i kron hbar_x)
                root = np.einsum("mia,mc->maic", roots, hbar).reshape(-1, dim)
                e, rows = _data_space_eigh(root)
            else:
                h = np.einsum("mij,mc,md->icjd", lambdas, hbar, hbar, optimize=True)
                e, rows = _parameter_space_eigh(h.reshape(dim, dim))
            return Curvature(kind, subset, mean, k, e, rows, feature_dim=feat)
        lam_diag = np.einsum("mii->mi", lambdas)
        diag = np.einsum("mi,mc->ic", lam_diag, hbar * hbar).ravel(order="C")
        return Curvature(kind, subset, mean, k, diag, feature_dim=feat)

    # all_layers: stacked L_x^T J_x rows over chunks of examples, swept
    # straight from the roots into R itself (data space) or into one chunk
    # buffer summed as R^T R (parameter space) or as column sums of R * R
    # (diagonal)
    dim = net.num_params
    n = features.shape[0]
    roots = output_hessian_roots(loss, forward_output(net, features))
    r = roots.shape[2]
    root = np.empty((n * r, dim)) if kind == "full_ggn" and n * r < dim else None
    full = np.zeros((dim, dim)) if kind == "full_ggn" and root is None else None
    diag = np.zeros(dim) if kind == "diag_ggn" else None
    flat = None if root is None else root.reshape(-1)
    for chunk, buf in _jacobian_chunks(n, r, dim, flat):
        m = chunk.stop - chunk.start
        output_jacobian(
            net, features[chunk], seeds=roots[chunk], out=buf.reshape(m, r, dim)
        )
        rows = buf.reshape(m * r, dim)
        if full is not None:
            full += rows.T @ rows  # numpy's syrk path: exactly symmetric
        elif diag is not None:
            diag += np.multiply(rows, rows, out=rows).sum(axis=0)
    mean = net.flatten_params()
    if diag is not None:
        return Curvature(kind, subset, mean, k, diag)
    e, rows = _parameter_space_eigh(full) if root is None else _data_space_eigh(root)
    return Curvature(kind, subset, mean, k, e, rows)


class LaplacePosterior:
    """Gaussian over a parameter subset with precision H_data + lambda * I.

    Construction computes everything needed for sampling and variance
    queries; instances are immutable afterwards. Every kind holds
    Sigma = c I + B^T diag(t) B and its symmetric square root
    c' I + B^T diag(t') B, with B the curvature's basis: c = 1 / lambda and
    t = -1 / (lambda (e + lambda)) in data space (a spectrum shorter than
    the dimension), otherwise c = 0, t = 1 / (s + lambda) and t' = sqrt(t).
    The Kronecker kind also holds its damped per-factor draw. Raises
    ``ValueError`` for a prior precision that is negative or NaN, and
    :class:`NotPositiveDefinite` when the jitter ladder cannot make the
    precision's spectrum positive.
    """

    def __init__(self, curvature: Curvature, prior_precision: float):
        if not prior_precision >= 0.0:
            raise ValueError(
                f"prior_precision must be a nonnegative number, got {prior_precision!r}"
            )
        self.kind = curvature.kind
        self.subset = curvature.subset
        self.prior_precision = float(prior_precision)
        self.num_outputs = curvature.num_outputs
        self.feature_dim = curvature.feature_dim
        self.mean = np.array(curvature.mean, dtype=np.float64)
        self._basis = curvature.basis
        self._c = self._c_root = 0.0
        lam, s = self.prior_precision, curvature.spectrum
        if s.size < self.dim:
            # data space: the complement of the rows has eigenvalue 0, so
            # the ladder runs over s padded with zeros, and its one shift
            # lam (lambda plus any jitter) applies in every direction
            spectrum = positive_diagonal(
                np.concatenate([s, np.zeros(self.dim - s.size)]) + lam
            )
            shifted, lam = spectrum[: s.size], spectrum[-1]
            root_lam, root_shifted = np.sqrt(lam), np.sqrt(shifted)
            self._c, self._c_root = 1.0 / lam, 1.0 / root_lam
            # row j of W has squared norm s_j, so these are
            # (1/u - 1/lam) / s and (1/sqrt(u) - 1/sqrt(lam)) / s with
            # u = s + lam, written without dividing by s
            self._t = -1.0 / (lam * shifted)
            self._t_root = -1.0 / (root_lam * root_shifted * (root_shifted + root_lam))
        else:
            self._t = 1.0 / positive_diagonal(s + lam)
            self._t_root = np.sqrt(self._t)
        self._damped = None
        if curvature.factor_spectra is not None:
            # the per-factor damped precisions F + sqrt(lambda) I are diagonal
            # in the factor bases, so M = Q_F diag(f + sqrt(lambda))^-1/2 has
            # M M^T = (F + sqrt(lambda) I)^-1
            damp = np.sqrt(self.prior_precision)
            self._damped = tuple(
                q / np.sqrt(positive_diagonal(f + damp))
                for f, q in zip(curvature.factor_spectra, self._basis)
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def _project(self, vectors: np.ndarray, back: bool = False) -> np.ndarray:
        """B v for each row v of ``vectors``, or B^T v with ``back``; the
        identity basis returns ``vectors`` itself."""
        basis = self._basis
        if basis is None:
            return vectors
        if isinstance(basis, tuple):
            # B v is the flattened Q_G^T V Q_A of the row-major (k, F) view V
            # of v, and B^T v is Q_G V Q_A^T
            q_out, q_feat = basis
            if back:
                q_out, q_feat = q_out.T, q_feat.T
            mats = vectors.reshape(-1, self.num_outputs, self.feature_dim)
            return (q_out.T @ mats @ q_feat).reshape(vectors.shape)
        return vectors @ basis if back else vectors @ basis.T

    def sample(self, rng: Rng, count: int) -> np.ndarray:
        """Draw parameter vectors, shape (count, dim), around the mean:
        mean + c' z + B^T (t' * B z) for standard normal z (the Kronecker
        kind: its damped per-factor draw)."""
        count = int(count)
        if self._damped is not None:
            # Matrix-normal draw S = M_G Z M_A^T; row-major flattening makes
            # the flat covariance the Kronecker product of the factor inverses.
            m_out, m_feat = self._damped
            z = rng.standard_normal((count, self.num_outputs, self.feature_dim))
            return self.mean[None, :] + (m_out @ z @ m_feat.T).reshape(count, self.dim)
        z = rng.standard_normal((count, self.dim))
        proj = self._project(z)
        proj *= self._t_root
        if not self._c_root:  # z is not zeroed: for the identity basis it is proj
            draws = self._project(proj, back=True)
            draws += self.mean
            return draws
        # the mean goes in before B^T proj exists: numpy's broadcast add
        # takes a scratch buffer, which would raise the peak beside it
        z *= self._c_root
        z += self.mean
        z += self._project(proj, back=True)
        return z

    def quad_forms(self, vectors: np.ndarray) -> np.ndarray:
        """g^T Sigma g = c |g|^2 + (B g)^2 . t for each row g of ``vectors``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dim:
            raise ValueError("vector dimension does not match posterior")
        proj = self._project(vectors)
        forms = (proj * proj) @ self._t
        if self._c:
            forms += self._c * np.einsum("ij,ij->i", vectors, vectors)
        return forms

    def output_block_cov(self) -> np.ndarray:
        """Per-output diagonal covariance blocks, shape (k, F, F).

        Only defined for last-layer posteriors; block i is the covariance of
        the augmented weight row feeding output i.
        """
        if self.subset != "last_layer":
            raise ValueError("output blocks only defined for last_layer subset")
        k, feat = self.num_outputs, self.feature_dim
        basis = self._basis
        if basis is None:
            return self._t.reshape(k, feat)[:, :, None] * np.eye(feat)
        if isinstance(basis, tuple):
            # block i = Q_A diag(sum_p Q_G[i, p]^2 t[p, :]) Q_A^T
            q_out, q_feat = basis
            weights = (q_out * q_out) @ self._t.reshape(k, feat)
            return (q_feat * weights[:, None, :]) @ q_feat.T
        # block i = c I + B_i^T diag(t) B_i, with B_i the columns of the
        # rows that belong to output i
        cols = basis.reshape(-1, k, feat).transpose(1, 0, 2)
        blocks = (cols.transpose(0, 2, 1) * self._t) @ cols
        return blocks + self._c * np.eye(feat)


def build_posterior(curvature: Curvature, prior_precision: float) -> LaplacePosterior:
    """Gaussian posterior with covariance (H_data + prior_precision I)^-1."""
    return LaplacePosterior(curvature, prior_precision)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[None, :] if x.ndim == 1 else x


def _last_layer_feature_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Augmented final hidden features, bitwise those of :func:`forward`."""
    return augment_ones(forward_output(net, x, net.num_layers - 1))


def linearized_variance_batch(
    net: Network, post: LaplacePosterior, x: np.ndarray
) -> np.ndarray:
    """Per-output linearized predictive variances, shape (m, k).

    v_i(x) = g_i^T Sigma g_i with g_i the output-i gradient restricted to the
    posterior subset, evaluated at the network's current parameters. For
    all layers, the stacked output Jacobians of each chunk of points go
    through one ``quad_forms`` call.
    """
    x = _as_batch(x)
    if post.subset == "last_layer":
        hbar = _last_layer_feature_batch(net, x)
        blocks = post.output_block_cov()
        return ((hbar @ blocks) * hbar).sum(axis=2).T
    k, dim = post.num_outputs, post.dim
    out = np.empty((x.shape[0], k))
    for points, buf in _jacobian_chunks(x.shape[0], k, dim):
        m = points.stop - points.start
        output_jacobian(net, x[points], out=buf.reshape(m, k, dim))
        out[points] = post.quad_forms(buf.reshape(m * k, dim)).reshape(m, k)
    return out


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


def _sampled_logits(
    net: Network, post: LaplacePosterior, x: np.ndarray, samples: np.ndarray
):
    """Yield (points, z): the outputs z, shape (c, k, len(points)), of
    consecutive samples at the rows ``points`` of ``x``.

    Both subsets sample the network linearized at its parameters theta*,
    z_s(x) = f(x; theta*) + J(x) (theta_s - theta*). Last layer: the outputs
    are linear in those weights, so this is one GEMM per chunk of samples,
    the chunk's (c k, F) weight rows times the transposed features of every
    point. All layers: each chunk of points takes one batched output
    Jacobian, which the sweep writes in (k, m, d) order so that its
    (d, k m) transpose is a view, and one forward pass, then one GEMM per
    chunk of samples, the centred draws times that transpose. The sample chunk
    size c depends only on k and on the point count m of the chunk, so a
    set's outputs do not depend on any other set. An empty set is sized as
    one point (last layer) or yields nothing (all layers).
    """
    k = post.num_outputs
    if post.subset == "last_layer":
        m = max(x.shape[0], 1)
        hbar_t = _last_layer_feature_batch(net, x).T
        rows = max(1, _MC_CHUNK_BYTES // (8 * k * m))
        for start in range(0, samples.shape[0], rows):
            chunk = samples[start : start + rows].reshape(-1, post.feature_dim)
            yield slice(None), (chunk @ hbar_t).reshape(-1, k, m)
        return
    theta = net.flatten_params()
    for points, buf in _jacobian_chunks(x.shape[0], k, post.dim):
        m = points.stop - points.start
        jac = buf.reshape(k, m, post.dim)
        output_jacobian(net, x[points], out=jac.transpose(1, 0, 2))
        f_map = forward_output(net, x[points]).T
        jac_t = jac.reshape(k * m, post.dim).T
        rows = max(1, _MC_CHUNK_BYTES // (8 * k * m))
        for start in range(0, samples.shape[0], rows):
            z = ((samples[start : start + rows] - theta) @ jac_t).reshape(-1, k, m)
            z += f_map
            yield points, z


def _points_major(acc: np.ndarray, n: int) -> np.ndarray:
    """A (r, m) sum over n samples as a C-ordered (m, r) mean."""
    return np.ascontiguousarray(acc.T) / n


def _probit_predict(
    net: Network, post: LaplacePosterior, x: np.ndarray, loss: LossKind
) -> Predictive:
    if loss.kind == "categorical_ce":
        raise ValueError(
            "probit_linearized supports binary (single-logit) or regression "
            "models only"
        )
    f_map = forward_output(net, x)
    v = linearized_variance_batch(net, post, x)
    if loss.kind == "binary_ce":
        p1 = probit_predict_binary(f_map[:, 0], v[:, 0])
        return Predictive(probabilities=np.stack([1.0 - p1, p1], axis=1))
    return Predictive(
        mean=f_map,
        var_epistemic=v,
        var_total=v + 1.0 / loss.noise_precision,
    )


def mc_predict_sets(
    net: Network,
    post: LaplacePosterior,
    xs: list[np.ndarray],
    cfg: PredictConfig,
    loss: LossKind,
) -> list[Predictive]:
    """Posterior predictive for each batch in ``xs``, from one posterior draw.

    The mc method draws ``cfg.sample_count`` parameter samples once from
    ``Rng(cfg.seed)`` and scores every batch against that same draw, so each
    result is bit-identical to scoring its batch alone with the same
    posterior and seed. Each sample's outputs are those of the network
    linearized at its parameters, the model of the probit_linearized
    method too. Classification returns the sample average of softmax (or
    sigmoid) outputs; regression returns the MC moments of the sampled
    outputs. The sampled outputs come in (samples, k, points) chunks, so the
    softmax reduces across k contiguous point vectors; each chunk's sum over
    samples goes into its points' columns of (k, points) accumulators,
    transposed once at the end. The probit_linearized method is the closed-form
    alternative, computed per batch: exact linearization for regression,
    the probit approximation for single-logit binary classification (no
    multi-class closed form is provided).
    """
    xs = [_as_batch(x) for x in xs]
    if cfg.method == "probit_linearized":
        return [_probit_predict(net, post, x, loss) for x in xs]

    k, n = net.output_dim, cfg.sample_count
    samples = post.sample(Rng(cfg.seed), n)
    preds = []
    for x in xs:
        if loss.kind == "categorical_ce":
            acc = np.zeros((k, x.shape[0]))
            for points, z in _sampled_logits(net, post, x, samples):
                z -= z.max(axis=1, keepdims=True)
                np.exp(z, out=z)
                z /= z.sum(axis=1, keepdims=True)
                acc[:, points] += z.sum(axis=0)
            preds.append(Predictive(probabilities=_points_major(acc, n)))
        elif loss.kind == "binary_ce":
            acc = np.zeros((2, x.shape[0]))
            for points, z in _sampled_logits(net, post, x, samples):
                p1 = sigmoid(z[:, 0, :])
                acc[0, points] += (1.0 - p1).sum(axis=0)
                acc[1, points] += p1.sum(axis=0)
            preds.append(Predictive(probabilities=_points_major(acc, n)))
        else:
            total = np.zeros((k, x.shape[0]))
            total_sq = np.zeros_like(total)
            for points, z in _sampled_logits(net, post, x, samples):
                total[:, points] += z.sum(axis=0)
                total_sq[:, points] += (z * z).sum(axis=0)
            mean = _points_major(total, n)
            var = np.maximum(_points_major(total_sq, n) - mean * mean, 0.0)
            preds.append(
                Predictive(
                    mean=mean,
                    var_epistemic=var,
                    var_total=var + 1.0 / loss.noise_precision,
                )
            )
    return preds


def mc_predict(
    net: Network,
    post: LaplacePosterior,
    x: np.ndarray,
    cfg: PredictConfig,
    loss: LossKind,
) -> Predictive:
    """Posterior predictive for one batch: :func:`mc_predict_sets` on ``[x]``.

    Scoring several batches with the same posterior and seed through
    :func:`mc_predict_sets` draws the samples once instead of once per batch.
    """
    return mc_predict_sets(net, post, [x], cfg, loss)[0]


def predictive_log_likelihood(pred: Predictive, targets: np.ndarray) -> float:
    """Summed log-likelihood of labelled targets under a predictive.

    Classification scores log of the predictive probability of the true
    class; regression scores the full Gaussian density with the total
    (epistemic plus aleatoric) predictive variance.
    """
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
    num_classes: int | None = None,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the prior precision over a candidate grid.

    ``val_log_likelihood`` maximizes the predictive log-likelihood on the
    given validation data. ``ood_mmc`` minimizes
    |1 - MMC_in| + |1/k - MMC_out|, both from one posterior draw per
    candidate, and additionally needs ``out_features`` and
    ``num_classes``. Candidates whose precision spectrum the jitter ladder
    cannot make positive are skipped; returns
    (best, [(lambda, score), ...]) with score in the objective's native
    orientation.
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
    if objective == "ood_mmc" and (out_features is None or num_classes is None):
        raise ValueError("ood_mmc needs out_features and num_classes")

    scores: list[tuple[float, float]] = []
    best_lam, best_key = None, -np.inf
    for lam in cand:
        try:
            post = build_posterior(curvature, lam)
            if objective == "val_log_likelihood":
                pred = mc_predict(net, post, features, cfg, loss)
                score = predictive_log_likelihood(pred, targets)
                key = score
            else:
                pred_in, pred_out = mc_predict_sets(
                    net, post, [features, out_features], cfg, loss
                )
                mmc_in = mmc(pred_in.probabilities)
                mmc_out = mmc(pred_out.probabilities)
                score = abs(1.0 - mmc_in) + abs(1.0 / num_classes - mmc_out)
                key = -score
        except NotPositiveDefinite:
            continue
        scores.append((float(lam), float(score)))
        if key > best_key:
            best_key, best_lam = key, float(lam)
    if best_lam is None:
        raise NotPositiveDefinite(
            "no prior-precision candidate produced a positive-definite posterior"
        )
    return best_lam, scores
