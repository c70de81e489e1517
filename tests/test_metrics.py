import numpy as np
import pytest

from lula_lab.metrics import auroc, brier, mmc
from lula_lab.numerics import Rng


def brute_force_auroc(in_conf, out_conf):
    total = 0.0
    for a in in_conf:
        for b in out_conf:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(in_conf) * len(out_conf))


class TestMmc:
    def test_uniform_rows(self):
        probs = np.full((7, 10), 0.1)
        assert mmc(probs) == pytest.approx(0.1, abs=1e-15)

    def test_one_hot_rows(self):
        probs = np.eye(4)[[0, 2, 3, 1, 0]]
        assert mmc(probs) == 1.0

    def test_hand_mean(self):
        assert mmc(np.array([[0.7, 0.3], [0.6, 0.4]])) == pytest.approx(0.65)

    def test_row_permutation_invariance(self):
        rng = Rng(1)
        raw = rng.uniform(0.1, 1.0, (20, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        perm = rng.permutation(20)
        assert mmc(probs) == pytest.approx(mmc(probs[perm]), abs=1e-15)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            mmc(np.array([[0.7, 0.7]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        # a NaN row sum fails no test for |sum - 1| > tol
        with pytest.raises(ValueError, match="simplex"):
            mmc(np.array([[0.5, 0.5], [bad, 0.5]]))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8], [0.2, 0.1]) == 1.0

    def test_identical_multisets(self):
        values = [0.3, 0.5, 0.9]
        assert auroc(values, values) == 0.5

    def test_half_credit_ties(self):
        assert auroc([0.9, 0.5], [0.5, 0.1]) == 0.875

    def test_symmetry_identity(self):
        rng = Rng(2)
        a = rng.uniform(0.0, 1.0, 30)
        b = rng.uniform(0.0, 1.0, 40)
        assert auroc(a, b) + auroc(b, a) == 1.0

    def test_monotone_transform_invariance(self):
        rng = Rng(3)
        a = rng.uniform(0.0, 1.0, 25)
        b = rng.uniform(0.0, 1.0, 35)
        transform = lambda v: np.exp(3.0 * np.asarray(v)) + 1.0
        assert auroc(a, b) == auroc(transform(a), transform(b))

    def test_matches_brute_force_exactly(self):
        rng = Rng(4)
        for trial in range(200):
            n_in = int(rng.integers(1, 12))
            n_out = int(rng.integers(1, 12))
            # quantized confidences force plenty of ties
            a = np.round(rng.uniform(0.0, 1.0, n_in), 1)
            b = np.round(rng.uniform(0.0, 1.0, n_out), 1)
            assert auroc(a, b) == brute_force_auroc(a.tolist(), b.tolist()), (
                f"trial {trial}"
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [0.5])

    @pytest.mark.parametrize("side", ["in", "out"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence_rejected(self, side, bad):
        # searchsorted sorts NaN last, so a NaN in-confidence ranked above
        # every out value and scored 1.0
        good, worse = [0.9, 0.8], [0.2, 0.1]
        args = ([bad, *good], worse) if side == "in" else (good, [bad, *worse])
        with pytest.raises(ValueError, match="confidences must be finite"):
            auroc(*args)


class TestBrier:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(3)[[0, 1, 2, 1]]
        labels = np.array([0, 1, 2, 1])
        assert brier(probs, labels) == 0.0

    def test_uniform_binary(self):
        probs = np.full((5, 2), 0.5)
        labels = np.array([0, 1, 0, 1, 0])
        assert brier(probs, labels) == pytest.approx(0.5, abs=1e-15)

    def test_constant_wrong_one_hot(self):
        probs = np.tile(np.array([[1.0, 0.0]]), (4, 1))
        labels = np.ones(4, dtype=np.int64)
        assert brier(probs, labels) == pytest.approx(2.0, abs=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            brier(np.array([[0.5, 0.5]]), np.array([2]))
