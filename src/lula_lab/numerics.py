"""Dense linear algebra and seeded random sampling.

All arrays are 64-bit floats. Randomness goes through :class:`Rng`, a thin
wrapper around NumPy's Philox counter-based bit generator, so that a given
seed produces the identical stream on every platform and run. No operation
here touches a global random state.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

__all__ = [
    "Rng",
    "add_to_diagonal",
    "cholesky_psd",
    "inverse_cholesky_factor",
    "kron",
    "positive_diagonal",
]

# Escalating diagonal jitter used when factoring curvature matrices: attempt
# a clean factorization first (keeps exact cases exact), then retry with
# 1e-8 and 1e-6 times the mean diagonal added to the diagonal.
JITTER_SCALES = (0.0, 1e-8, 1e-6)

# Triangular blocks up to this order are inverted directly; larger ones are
# halved recursively so that the work is done by matrix products.
_TRIANGULAR_BLOCK = 128

# Tile edge of the symmetry check in cholesky_psd: small enough that a tile
# and its mirror stay in cache, large enough that the loop costs little.
_SYMMETRY_TILE = 128

_MASK64 = (1 << 64) - 1


def _mix64(seed: int, stream: int) -> int:
    """SplitMix64 finalizer over (seed, stream), used to derive child seeds."""
    z = (seed + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Rng:
    """Deterministic random stream with explicit seeding.

    Backed by ``numpy.random.Philox`` (a counter-based generator), so the
    stream for a given seed is reproducible bit-for-bit across platforms.
    An instance is stateful and must be used from one thread at a time;
    use :meth:`derive` to obtain independent child streams for parallel or
    structurally separate work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, stream: int) -> "Rng":
        """Child stream with a seed mixed from (self.seed, stream)."""
        return Rng(_mix64(self.seed, int(stream)))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def normal(self, loc, scale, shape) -> np.ndarray:
        return self._gen.normal(loc=loc, scale=scale, size=shape)

    def uniform(self, low, high, shape) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape)

    def integers(self, low, high, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed})"


def _as_square_matrix(a: np.ndarray, name: str = "a") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def add_to_diagonal(a: np.ndarray, value: float) -> np.ndarray:
    """Copy of the square matrix a with value added to its diagonal."""
    out = np.array(a, dtype=np.float64)
    out.flat[:: out.shape[0] + 1] += value
    return out


def _jitter_base(diag: np.ndarray) -> float:
    """Mean of the diagonal, or 1 when that is not a finite positive number."""
    base = float(np.mean(diag)) if diag.size else 1.0
    return base if np.isfinite(base) and base > 0.0 else 1.0


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a - a.T| of a square matrix, without an n x n temporary.

    Each tile on or above the diagonal is compared with the transpose of its
    mirror tile below it, which covers every pair (i, j) once.
    """
    n, t = a.shape[0], _SYMMETRY_TILE
    worst = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            diff = np.abs(a[i : i + t, j : j + t] - a[j : j + t, i : i + t].T)
            worst = max(worst, float(diff.max()))
    return worst


def cholesky_psd(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a, tolerating near-PSD input.

    The input must be symmetric to within 1e-10 relative. Factorization is
    attempted with the jitter ladder in :data:`JITTER_SCALES`; each retry adds
    ``scale * mean(diag(a))`` to the diagonal. Raises
    :class:`NotPositiveDefinite` when all attempts fail.
    """
    a = _as_square_matrix(a)
    scale = max(float(a.max()), -float(a.min()), 1.0)
    if _max_asymmetry(a) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    base = _jitter_base(np.diag(a))
    for jitter in JITTER_SCALES:
        try:
            return np.linalg.cholesky(
                add_to_diagonal(a, jitter * base) if jitter else a
            )
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite(
        f"Cholesky failed for {a.shape[0]}x{a.shape[0]} matrix after jitter "
        f"ladder {JITTER_SCALES}"
    )


def positive_diagonal(entries: np.ndarray) -> np.ndarray:
    """Diagonal precision made positive by the jitter ladder of cholesky_psd.

    Each rung of :data:`JITTER_SCALES` adds ``scale * mean(entries)`` to every
    entry; the first rung with all entries positive is returned. Raises
    :class:`NotPositiveDefinite` when all rungs fail.
    """
    base = _jitter_base(entries)
    for jitter in JITTER_SCALES:
        candidate = entries + jitter * base if jitter else entries
        if np.all(candidate > 0.0):
            return candidate
    raise NotPositiveDefinite("diagonal precision has non-positive entries")


def _lower_triangular_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, itself lower.

    With low = [[A, 0], [B, C]] the inverse is
    [[inv(A), 0], [-inv(C) B inv(A), inv(C)]]; np.tril clears the rounding
    that a general inverse leaves above the diagonal of a small block.
    """
    n = low.shape[0]
    if n <= _TRIANGULAR_BLOCK:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    out = np.zeros_like(low)
    out[:h, :h] = _lower_triangular_inverse(low[:h, :h])
    out[h:, h:] = _lower_triangular_inverse(low[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ low[h:, :h]) @ out[:h, :h]
    return out


def inverse_cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Upper-triangular M with M @ M.T == inv(a), for PD a.

    Computed as inv(chol(a)).T, so sampling with M draws from the Gaussian
    whose precision is a.
    """
    return _lower_triangular_inverse(cholesky_psd(a)).T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the standard block layout.

    Entry [(i * b.rows + k), (j * b.cols + l)] equals a[i, j] * b[k, l].
    With column-major vec this satisfies kron(a, b) @ vec(x) = vec(b @ x @ a.T);
    with row-major (C-order) flattening of a matrix s it satisfies
    kron(a, b) @ s.ravel() = (a @ s @ b.T).ravel().
    """
    return np.kron(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
