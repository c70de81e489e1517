"""Seeded random sampling, and the posterior vocabulary every command reads.

Randomness goes through :class:`Rng`, a thin wrapper around NumPy's Philox
counter-based bit generator, so that a given seed produces the identical
stream on every platform and run. No operation here touches a global random
state.

The curvature kinds, parameter subsets and predictive methods live here
rather than in ``laplace``, which re-exports them: ``config`` checks its
keys against them, and so ``train``, which fits no posterior, never loads
``laplace``. :func:`proper_prior_precision` is the rule every posterior
holds; ``config`` asks more of a loaded value (its
``PRIOR_PRECISION_FLOOR``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CURVATURE_KINDS",
    "SUBSETS",
    "PREDICT_METHODS",
    "Rng",
    "proper_prior_precision",
]

CURVATURE_KINDS = ("full_ggn", "diag_ggn", "kfac_last_layer")
SUBSETS = ("all_layers", "last_layer")
PREDICT_METHODS = ("mc", "probit_linearized")

_MASK64 = (1 << 64) - 1


def proper_prior_precision(lam) -> bool:
    """Whether each prior precision lambda in ``lam`` (a number or an
    array) and its reciprocal, the variance of the prior N(0, I / lambda),
    are finite and positive: a subnormal such as 1e-310 is not."""
    lam = np.asarray(lam, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        recip = 1.0 / lam
    return bool(np.all((lam > 0.0) & (lam < np.inf) & (recip < np.inf)))


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

    def derive(self, stream: int, out: "Rng | None" = None) -> "Rng":
        """Child stream with a seed mixed from (self.seed, stream).

        ``out``, an :class:`Rng` the caller owns, is restarted as that child
        and returned in place of a new one: its Philox generator gets the
        child's key through the documented ``bit_generator.state`` setter,
        with counter zero and an empty buffer, so it draws bitwise what a
        new child draws, at about a quarter of the cost of building one.
        """
        seed = _mix64(self.seed, int(stream))
        if out is None:
            return Rng(seed)
        out.seed = seed
        out._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, 0], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return out

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

