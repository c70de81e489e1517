"""Self-tests: every correctness check on fabricated passing and failing output."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


SUMMARY = """lula-lab-demo v1
moons.map.ring_confidence 0.99
moons.laplace.ring_confidence 0.96
moons.lula.ring_confidence 0.91
moons.label_agreement 1
regression.laplace.far_field_std 0.5
regression.lula.far_field_std 1.5
"""


def fake_demo(root, summary=SUMMARY, p1="0.25", std="0.1"):
    write(os.path.join(root, "summary.txt"), summary)
    for stage in checks.MOONS_STAGES:
        write(os.path.join(root, f"moons_{stage}.csv"),
              f"x1,x2,p0,p1,confidence\n0,0,0.75,{p1},0.75\n1,1,0.5,0.5,0.5\n")
        write(os.path.join(root, f"regression_{stage}.csv"),
              f"x,mean,std_epistemic,std_total\n0,1,{std},0.2\n")
    return root


def failed(results):
    return [label for label, ok, _ in results if not ok]


def test_demo_passes_on_good_output(tmp_path):
    results = checks.check_demo(fake_demo(str(tmp_path)))
    assert len(results) == 8
    assert failed(results) == []


@pytest.mark.parametrize(
    "kwargs, bad",
    [
        ({"summary": SUMMARY.replace("label_agreement 1", "label_agreement 0.99")},
         "demo.label_agreement"),
        ({"summary": SUMMARY + "moons.map.test_confidence nan\n"}, "demo.summary_finite"),
        ({"p1": "0.2500001"}, "demo.moons_map.csv"),
        ({"std": "-0.1"}, "demo.regression_map.csv"),
    ],
)
def test_demo_fails_on_bad_output(tmp_path, kwargs, bad):
    assert bad in failed(checks.check_demo(fake_demo(str(tmp_path), **kwargs)))


def test_demo_fails_when_files_are_missing(tmp_path):
    assert failed(checks.check_demo(str(tmp_path))) == ["demo.summary"]
    root = fake_demo(str(tmp_path))
    os.remove(os.path.join(root, "moons_lula.csv"))
    assert failed(checks.check_demo(root)) == ["demo.moons_lula.csv"]


EVAL = """lula-lab-eval v1
model lula.txt
prior_precision 10000
runs 10
test.brier.mean 0.2
test.mmc.mean 0.8
uniform.auroc.mean 0.7
uniform.mmc.mean 0.5
"""


def test_eval_summary_passes_and_fails(tmp_path):
    path = str(tmp_path / "eval_summary.txt")
    write(path, EVAL)
    assert failed(checks.check_eval_summary(path, "w")) == []
    for bad in ("uniform.auroc.mean 1.2", "test.mmc.mean 0.05", "test.brier.mean inf"):
        key = bad.split()[0]
        text = "\n".join(bad if line.startswith(key + " ") else line
                         for line in EVAL.splitlines())
        write(path, text + "\n")
        assert failed(checks.check_eval_summary(path, "w")) == ["w.eval_summary"], bad
    assert failed(checks.check_eval_summary(str(tmp_path / "none.txt"), "w")) == [
        "w.eval_summary"
    ]


def test_preservation_residual():
    good = "output-preservation check: max relative difference 0.000e+00\nwrote x"
    assert failed(checks.check_preservation(good, "w")) == []
    bad = "output-preservation check: max relative difference 3.100e-11\n"
    assert failed(checks.check_preservation(bad, "w")) == ["w.output_preservation"]
    assert failed(checks.check_preservation("no residual printed", "w")) == [
        "w.output_preservation"
    ]


def test_argmax_agreement():
    assert failed(checks.check_argmax({"agree": 1000, "total": 1000}, "w")) == []
    assert failed(checks.check_argmax({"agree": 999, "total": 1000}, "w")) == [
        "w.argmax_agreement"
    ]
    assert failed(checks.check_argmax({}, "w")) == ["w.argmax_agreement"]


def test_digests_detect_any_changed_byte(tmp_path):
    root = fake_demo(str(tmp_path / "a"))
    first = checks.digests(root)
    assert failed(checks.compare_digests(first, checks.digests(root), "d")) == []
    write(os.path.join(root, "summary.txt"), SUMMARY + " ")
    assert failed(checks.compare_digests(first, checks.digests(root), "d")) == ["d"]
    os.remove(os.path.join(root, "moons_map.csv"))
    label, ok, detail = checks.compare_digests(first, checks.digests(root), "d")[0]
    assert not ok and "moons_map.csv" in detail


def test_reported_values(tmp_path):
    quality = checks.demo_quality(fake_demo(str(tmp_path / "demo")))
    assert quality["ring_conf_drop"] == pytest.approx(0.05)
    assert quality["far_std_ratio"] == pytest.approx(3.0)
    posterior = str(tmp_path / "map_laplace.txt")
    write(posterior, "lula-lab-posterior v1\nprior_precision 10000\n"
                     "grid_point 0.0001 -9\ngrid_point 1 -2\ngrid_point 10000 -1\n")
    assert checks.tuned_lambda(posterior) == {"lambda": 10000.0, "at_grid_edge": 1.0}
    history = str(tmp_path / "lula_history.csv")
    write(history, "epoch,objective\n0,-5\n1,-4\n2,-2\n")
    assert checks.history_delta(history) == pytest.approx(3.0)


def test_per_layer_metrics_cover_the_table():
    agg = {
        "cli.startup": {"calls": 1, "s": 0.5, "self_s": 0.5, "attrs": {}},
        "numerics.cholesky_psd": {"calls": 2, "s": 1.0, "self_s": 1.0,
                                  "attrs": {"attempts": 3.0}},
        "lula.train_lula": {"calls": 2, "s": 4.0, "self_s": 1.0,
                            "attrs": {"epochs": 40.0, "delta": 6.0}},
    }
    values = layers.compute(agg, traced_wall=11.0, untraced_wall=10.0, span_count=5)
    assert list(values) == [name for name, _, _, _ in layers.PER_LAYER]
    assert values["cli.startup_s"] == 0.5
    assert values["numerics.cholesky_psd.attempts_per_call"] == 1.5
    assert values["lula.objective_delta"] == 3.0
    assert values["lula.train_lula.epochs"] == 40.0
    assert values["trace.overhead_share"] == pytest.approx(0.1)
    assert values["network.output_jacobian.calls"] == 0.0


def test_benchmark_json_matches_the_code():
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
