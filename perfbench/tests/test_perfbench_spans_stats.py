"""Self-tests: span self-time arithmetic and the order statistics."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402
import stats  # noqa: E402


def span(sid, name, start, end, parent=None, run="r", attrs=None):
    row = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": run}
    if attrs:
        row["attrs"] = attrs
    return row


# cmd [0, 10] -> fit [1, 6] -> chol [2, 3], chol [4, 5.5]
#            -> sample [7, 9]
TREE = [
    span(1, "cli.cmd_eval", 0.0, 10.0),
    span(2, "laplace.fit_curvature", 1.0, 6.0, parent=1),
    span(3, "numerics.cholesky_psd", 2.0, 3.0, parent=2, attrs={"attempts": 1.0}),
    span(4, "numerics.cholesky_psd", 4.0, 5.5, parent=2, attrs={"attempts": 3.0}),
    span(5, "laplace.LaplacePosterior.sample", 7.0, 9.0, parent=1),
]


def test_self_time_subtracts_children():
    selfs = spans.self_times(TREE)
    assert selfs[("r", 1)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[("r", 2)] == pytest.approx(5.0 - 1.0 - 1.5)
    assert selfs[("r", 3)] == pytest.approx(1.0)
    assert selfs[("r", 5)] == pytest.approx(2.0)


def test_self_time_clips_and_merges_overlapping_children():
    tree = [
        span(1, "a", 0.0, 4.0),
        span(2, "b", 1.0, 3.0, parent=1),
        span(3, "c", 2.0, 5.0, parent=1),  # overlaps b and overhangs a
    ]
    assert spans.self_times(tree)[("r", 1)] == pytest.approx(1.0)


def test_aggregate_counts_calls_times_and_attrs():
    agg = spans.aggregate(TREE)
    chol = agg["numerics.cholesky_psd"]
    assert chol["calls"] == 2
    assert chol["s"] == pytest.approx(2.5)
    assert chol["attrs"]["attempts"] == pytest.approx(4.0)
    assert agg["cli.cmd_eval"]["self_s"] == pytest.approx(3.0)


def test_aggregate_counts_a_recursive_name_once():
    tree = [span(1, "f", 0.0, 4.0), span(2, "f", 1.0, 2.0, parent=1)]
    agg = spans.aggregate(tree)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == pytest.approx(4.0)
    assert agg["f"]["self_s"] == pytest.approx(4.0)


def test_runs_keep_equal_ids_apart():
    tree = [span(1, "f", 0.0, 1.0, run="a"), span(1, "f", 0.0, 2.0, run="b")]
    assert spans.aggregate(tree)["f"]["s"] == pytest.approx(3.0)


def test_breakdown_under_a_command():
    shares = spans.breakdown(TREE, "cli.cmd_eval")
    assert list(shares) == [
        "laplace.fit_curvature",
        "numerics.cholesky_psd",
        "laplace.LaplacePosterior.sample",
    ]
    assert shares["laplace.fit_curvature"] == pytest.approx(5.0)
    assert "cli.cmd_eval" not in shares


def test_median_and_nearest_rank_percentile():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([5.0], 50) == 5.0


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_supported_percentile(1) is None
    assert stats.highest_supported_percentile(39) is None
    assert stats.highest_supported_percentile(40) == 75.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(200) == 95.0
    assert stats.highest_supported_percentile(1000) == 99.0


def test_summarize_and_describe_state_the_count():
    one = stats.summarize([2.5])
    assert one == {"median": 2.5, "n": 1}
    line = stats.describe("wall_s", "s", one)
    assert "wall_s = 2.5 s" in line and "n=1" in line and "no percentile" in line
    many = stats.summarize([float(i) for i in range(1, 101)])
    assert many["n"] == 100 and many["p90"] == 90.0
    assert "p90=90" in stats.describe("wall_s", "s", many)
