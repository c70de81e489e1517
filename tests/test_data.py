import numpy as np
import pytest

from lula_lab import data as data_mod
from lula_lab.data import (
    Dataset,
    SplitSpec,
    gen_toy_regression,
    gen_two_moons,
    load_csv,
    split,
    standardize,
    synthesize_ood,
)
from lula_lab.numerics import Rng


class TestTwoMoons:
    def test_noiseless_points_on_loci(self):
        data = gen_two_moons(200, 0.0, seed=1)
        x, y = data.features, data.targets
        upper = x[y == 0]
        lower = x[y == 1]
        assert np.allclose(np.hypot(upper[:, 0], upper[:, 1]), 1.0, atol=1e-12)
        assert np.allclose(
            np.hypot(lower[:, 0] - 1.0, lower[:, 1] - 0.5), 1.0, atol=1e-12
        )
        assert np.all(upper[:, 1] >= -1e-12)
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_balanced_labels(self):
        data = gen_two_moons(1000, 0.1, seed=2)
        counts = np.bincount(data.targets)
        assert counts.tolist() == [500, 500]

    def test_odd_size_balanced_within_one(self):
        data = gen_two_moons(11, 0.1, seed=3)
        counts = np.bincount(data.targets)
        assert abs(counts[0] - counts[1]) <= 1

    def test_seed_determinism(self):
        a = gen_two_moons(50, 0.2, seed=9)
        b = gen_two_moons(50, 0.2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)


class TestToyRegression:
    def test_noiseless_function(self):
        data = gen_toy_regression(100, (-4.0, 4.0), 0.0, seed=1)
        assert np.allclose(data.targets, np.sin(2.0 * data.features), atol=1e-12)

    def test_inputs_inside_range_with_gap(self):
        data = gen_toy_regression(300, (-4.0, 4.0), 0.1, seed=2)
        x = data.features[:, 0]
        assert np.all(x >= -4.0) and np.all(x <= 4.0)
        # the middle 30 percent of the range stays empty
        assert not np.any((x > -1.2) & (x < 1.2))

    def test_seed_determinism(self):
        a = gen_toy_regression(40, (-2.0, 2.0), 0.3, seed=7)
        b = gen_toy_regression(40, (-2.0, 2.0), 0.3, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)


def test_generator_features_match_the_generators():
    assert data_mod.GENERATOR_FEATURES == {
        "two_moons": gen_two_moons(10, 0.1, seed=0).num_features,
        "toy_regression": gen_toy_regression(10, (-1.0, 1.0), 0.1, seed=0).num_features,
    }


class TestSynthesizeOod:
    def _dataset(self, n_features=5, rows=20, seed=4):
        return Rng(seed).standard_normal((rows, n_features))

    def test_permute_preserves_row_multisets(self):
        data = self._dataset()
        out = synthesize_ood(data, "permute", Rng(1))
        assert np.array_equal(np.sort(out, axis=1), np.sort(data, axis=1))

    def test_blur_preserves_constant_rows(self):
        out = synthesize_ood(np.full((3, 6), 2.5), "blur", Rng(2))
        assert np.allclose(out, 2.5, atol=1e-12)

    def test_blur_requires_three_features(self):
        narrow = self._dataset(n_features=2)
        with pytest.raises(ValueError):
            synthesize_ood(narrow, "blur", Rng(0))

    @pytest.mark.parametrize("kind", ["permute", "contrast"])
    def test_one_feature_is_too_narrow(self, kind):
        # a permutation of one coordinate, or a pull toward the row's own
        # mean, would return the in-distribution row itself
        narrow = self._dataset(n_features=1)
        with pytest.raises(ValueError, match=f"{kind} needs at least 2 features, got 1"):
            synthesize_ood(narrow, kind, Rng(0))

    @pytest.mark.parametrize("kind", sorted(data_mod.OOD_MIN_FEATURES))
    def test_each_kind_changes_rows_at_its_fewest_features(self, kind):
        width = data_mod.OOD_MIN_FEATURES[kind]
        data = self._dataset(n_features=width)
        out = synthesize_ood(data, kind, Rng(7))
        assert not np.array_equal(out, data)
        assert data_mod.ood_width_need([kind], width) is None
        assert data_mod.ood_width_need(["uniform", kind], width - 1) == (
            f"{kind} needs at least {width} features"
        )

    def test_blur_smooths(self):
        data = self._dataset(n_features=9)
        out = synthesize_ood(data, "blur", Rng(3))
        assert np.all(np.var(out, axis=1) <= np.var(data, axis=1))

    def test_contrast_shrinks_toward_row_mean(self):
        data = self._dataset()
        out = synthesize_ood(data, "contrast", Rng(5))
        row_mean = data.mean(axis=1, keepdims=True)
        orig_dev = np.abs(data - row_mean)
        new_dev = np.abs(out - row_mean)
        assert np.all(new_dev <= 0.3 * orig_dev + 1e-12)
        assert out.shape == data.shape

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synthesize_ood(self._dataset(), "sharpen", Rng(0))

    def test_outputs_finite_and_shaped(self):
        data = self._dataset()
        for kind in ("permute", "blur", "contrast"):
            out = synthesize_ood(data, kind, Rng(6))
            assert out.shape == data.shape
            assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("kind", data_mod.OOD_KINDS)
    def test_every_kind_has_the_input_shape(self, kind):
        data = self._dataset(n_features=4, rows=7)
        out = synthesize_ood(data, kind, Rng(8))
        assert isinstance(out, np.ndarray)
        assert out.shape == data.shape

    def test_uniform_and_asymptotic_are_plain_uniform_draws(self):
        data = self._dataset(n_features=3, rows=11)
        assert np.array_equal(
            synthesize_ood(data, "uniform", Rng(12)),
            Rng(12).uniform(-10, 10, data.shape),
        )
        assert np.array_equal(
            synthesize_ood(data, "asymptotic", Rng(13)),
            Rng(13).uniform(0, 1, data.shape) * 5000,
        )


class TestUniformNoise:
    """The uniform and asymptotic outliers, drawn by synthesize_ood."""

    def test_asymptotic_scale(self):
        data = synthesize_ood(np.zeros((100, 4)), "asymptotic", Rng(1))
        assert np.all(data >= 0.0)
        assert np.all(data <= data_mod.ASYMPTOTIC_SCALE)
        assert data.max() > 4000.0

    def test_plain_range(self):
        data = synthesize_ood(np.zeros((100, 3)), "uniform", Rng(2))
        low, high = data_mod.UNIFORM_BOX
        assert data.shape == (100, 3)
        assert np.all(data >= low)
        assert np.all(data <= high)

    def test_seed_determinism(self):
        a = synthesize_ood(np.zeros((20, 2)), "uniform", Rng(3))
        b = synthesize_ood(np.zeros((20, 2)), "uniform", Rng(3))
        assert np.array_equal(a, b)

    def test_one_uniform_draw(self):
        # eval's uniform set and LULA's training outliers are one draw
        drawn = data_mod.uniform_outliers(20, 2, Rng(4))
        assert np.array_equal(
            drawn, synthesize_ood(np.zeros((20, 2)), "uniform", Rng(4))
        )
        assert np.array_equal(drawn, Rng(4).uniform(*data_mod.UNIFORM_BOX, (20, 2)))


class TestStandardize:
    def test_train_becomes_standard(self):
        rng = Rng(7)
        train = Dataset(
            3.0 + 2.0 * rng.standard_normal((50, 4)), np.zeros(50, dtype=np.int64)
        )
        std_train, _ = standardize(train, [])
        assert np.all(np.abs(std_train.features.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(std_train.features.std(axis=0) - 1.0) <= 1e-10)

    def test_already_standard_unchanged(self):
        rng = Rng(8)
        x = rng.standard_normal((2000, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        train = Dataset(x, np.zeros(2000, dtype=np.int64))
        std_train, _ = standardize(train, [])
        assert np.allclose(std_train.features, x, atol=1e-10)

    def test_constant_column_clamped(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10)
        train = Dataset(x, np.zeros(10, dtype=np.int64))
        std_train, _ = standardize(train, [])
        assert np.array_equal(std_train.features[:, 0], np.zeros(10))
        assert np.allclose(std_train.features[:, 1], (x[:, 1] - 4.5) / x[:, 1].std())

    def test_others_use_train_stats(self):
        rng = Rng(9)
        train = Dataset(
            rng.standard_normal((40, 2)) * 3.0, np.zeros(40, dtype=np.int64)
        )
        val = Dataset(
            rng.standard_normal((10, 2)) + 100.0, np.zeros(10, dtype=np.int64)
        )
        _, (std_val,) = standardize(train, [val])
        mean, std = train.features.mean(axis=0), train.features.std(axis=0)
        assert np.allclose(std_val.features, (val.features - mean) / std, atol=1e-12)
        # val is nowhere near zero mean under train stats
        assert np.abs(std_val.features.mean()) > 5.0

    def test_float_targets_use_train_stats(self):
        rng = Rng(10)
        train = Dataset(rng.standard_normal((30, 1)), 5.0 + 2.0 * rng.standard_normal((30, 1)))
        val = Dataset(rng.standard_normal((6, 1)), rng.standard_normal((6, 1)))
        std_train, (std_val,) = standardize(train, [val], include_targets=True)
        mean, std = train.targets.mean(axis=0), train.targets.std(axis=0)
        assert np.allclose(std_train.targets, (train.targets - mean) / std, atol=1e-12)
        assert np.allclose(std_val.targets, (val.targets - mean) / std, atol=1e-12)

    def test_target_standardization_regression_only(self):
        rng = Rng(11)
        train = Dataset(rng.standard_normal((20, 1)), np.zeros(20, dtype=np.int64))
        with pytest.raises(ValueError):
            standardize(train, [], include_targets=True)


class TestSplit:
    def _dataset(self, m=10):
        return Dataset(np.arange(m, dtype=float)[:, None], np.arange(m, dtype=np.int64))

    def test_exact_division(self):
        train, val, test = split(self._dataset(10), SplitSpec((0.6, 0.2, 0.2), 0))
        assert (train.num_rows, val.num_rows, test.num_rows) == (6, 2, 2)

    def test_degenerate_split(self):
        train, val, test = split(self._dataset(7), SplitSpec((1.0, 0.0, 0.0), 1))
        assert (train.num_rows, val.num_rows, test.num_rows) == (7, 0, 0)

    def test_disjoint_union(self):
        data = self._dataset(23)
        train, val, test = split(data, SplitSpec((0.6, 0.2, 0.2), 2))
        combined = np.concatenate(
            [train.targets, val.targets, test.targets]
        )
        assert sorted(combined.tolist()) == list(range(23))

    def test_seed_determinism(self):
        data = self._dataset(20)
        a = split(data, SplitSpec((0.5, 0.25, 0.25), 5))
        b = split(data, SplitSpec((0.5, 0.25, 0.25), 5))
        for left, right in zip(a, b):
            assert np.array_equal(left.features, right.features)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.2, 0.2), 0)


class TestLoadCsv:
    def test_hand_written_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1.0,2.0,3.0\n4.0,5.0,6.0\n-1.5,0.25,9.0\n")
        data = load_csv(str(path), "target")
        assert np.array_equal(
            data.features, np.array([[1.0, 2.0], [4.0, 5.0], [-1.5, 0.25]])
        )
        assert np.array_equal(data.targets, np.array([[3.0], [6.0], [9.0]]))

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,oops\n")
        with pytest.raises(ValueError, match="row 3, column 3"):
            load_csv(str(path), "c")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(str(path), "target")

    def test_index_target_without_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n4,5,6\n")
        data = load_csv(str(path), 2, header=False)
        assert np.array_equal(data.targets, np.array([[3.0], [6.0]]))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(str(path), "b")

    def test_bulk_parse_matches_cell_loop_bitwise(self, tmp_path):
        rng = Rng(11)
        values = rng.standard_normal((200, 6)) * np.exp(
            rng.uniform(-40.0, 40.0, (200, 6))
        )
        values[0, :] = [-0.0, 5e-324, -1e300, 2.2250738585072014e-308, 1.0 / 3.0, -7.0]
        lines = ["a,b,c,d,e,target"] + [
            ",".join(format(float(v), ".17g") for v in row) for row in values
        ]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        assert data_mod._load_csv_bulk(str(path), True) is not None
        bulk = load_csv(str(path), "target")
        cells = data_mod._load_csv_cells(str(path), "target", True)
        assert bulk.features.tobytes() == cells.features.tobytes()
        assert bulk.targets.tobytes() == cells.targets.tobytes()
        assert bulk.features.tobytes() == np.ascontiguousarray(values[:, :5]).tobytes()

    @pytest.mark.parametrize(
        "text,header,target,features,targets",
        [
            # csv.reader strips the quotes; the bulk parse cannot
            ('a,b,c\n"1.5",2,3\n4,"5e-1",6\n', True, "c",
             [[1.5, 2.0], [4.0, 0.5]], [3.0, 6.0]),
            # blank lines are skipped by both readers
            ("a,b\n1,2\n\n3,4\n\n", True, "b", [[1.0], [3.0]], [2.0, 4.0]),
            ("\na,b\n1,2\n", True, "a", [[2.0]], [1.0]),
            ("1,2,3\n4,5,6\n", False, 0, [[2.0, 3.0], [5.0, 6.0]], [1.0, 4.0]),
        ],
    )
    def test_fallback_and_edge_values(
        self, tmp_path, text, header, target, features, targets
    ):
        path = tmp_path / "data.csv"
        path.write_text(text)
        data = load_csv(str(path), target, header=header)
        assert np.array_equal(data.features, np.array(features))
        assert np.array_equal(data.targets, np.array(targets)[:, None])

    @pytest.mark.parametrize(
        "text,header,target,message",
        [
            ("a,b\n1#2,3\n", True, "b", r"cannot parse '1#2' at row 2, column 1"),
            ("a,b\n1,2\n# note\n", True, "b", r"row 3 has 1 cells, expected 2"),
            ("a,b\n1,2\n3\n", True, "b", r"row 3 has 1 cells, expected 2"),
            ("a,b,c\n1,2,3\n4,5,oops\n", True, "c",
             r"cannot parse 'oops' at row 3, column 3"),
            ("a,b\n1,2\n  \n", True, "b", r"row 3 has 1 cells, expected 2"),
            ("1,2\n3,x\n", False, 1, r"cannot parse 'x' at row 2, column 2"),
            ("1,2\n3,4\n", False, 2, r"target column index 2 out of range"),
            ("a,b\n", True, "b", r"no data rows"),
            ("a,b,c\n1,2\n3,4\n", True, "c",
             r"header has 3 columns, first data row has 2 cells"),
            ("a,b\n1,2,3\n4,5,6\n", True, "b",
             r"header has 2 columns, first data row has 3 cells"),
        ],
    )
    def test_errors_name_row_and_column(self, tmp_path, text, header, target, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(str(path), target, header=header)

    @pytest.mark.parametrize(
        "text,header,target,bulk,message",
        [
            ("a,b,c\n1,2,3\n4,nan,6\n", True, "c", True,
             "non-finite value nan at row 3, column 2"),
            ("1,2\n-inf,4\n", False, 1, True,
             "non-finite value -inf at row 2, column 1"),
            # the target column is checked too
            ("a,b\n1,inf\n", True, "b", True,
             "non-finite value inf at row 2, column 2"),
            # the first in file order wins
            ("a,b\n1,2\n3,inf\nnan,4\n", True, "a", True,
             "non-finite value inf at row 3, column 2"),
            # quoted cells go through the cell reader
            ('a,b\n"1",2\n3,"NaN"\n', True, "a", False,
             "non-finite value nan at row 3, column 2"),
            ('1,"2"\n\n"Infinity",4\n', False, 0, False,
             "non-finite value inf at row 2, column 1"),
        ],
    )
    def test_non_finite_cells_name_row_and_column(
        self, tmp_path, text, header, target, bulk, message
    ):
        path = tmp_path / "data.csv"
        path.write_text(text)
        assert (data_mod._load_csv_bulk(str(path), header) is not None) == bulk
        with pytest.raises(ValueError) as caught:
            load_csv(str(path), target, header=header)
        assert str(caught.value) == f"{path}: {message}"
