"""Self-tests: span recording by the tracer, read back by the aggregation."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402
import tracer  # noqa: E402


def test_wrapped_calls_become_nested_spans(tmp_path):
    rec = tracer.Tracer("run-1")

    def inner(x):
        return x + 1

    inner_w = rec.wrap("m.inner", inner, attrs_of=lambda a, k, r: {"seen": float(r)})

    def outer(x):
        return inner_w(x) + inner_w(x)

    outer_w = rec.wrap("m.outer", outer)
    assert outer_w(1) == 4
    assert outer_w.__name__ == "outer"

    path = str(tmp_path / "spans.jsonl")
    rec.write(path)
    rows = spans.read_jsonl(path)
    assert [r["name"] for r in rows] == ["m.inner", "m.inner", "m.outer"]
    outer_row = rows[-1]
    assert outer_row["parent"] is None
    assert all(r["parent"] == outer_row["id"] for r in rows[:2])
    assert {r["run"] for r in rows} == {"run-1"}
    agg = spans.aggregate(rows)
    assert agg["m.inner"]["calls"] == 2
    assert agg["m.inner"]["attrs"]["seen"] == pytest.approx(4.0)
    assert agg["m.outer"]["self_s"] <= agg["m.outer"]["s"]


def test_a_raising_call_still_closes_its_span():
    rec = tracer.Tracer("r")

    def boom():
        raise ValueError("no")

    wrapped = rec.wrap("m.boom", boom, attrs_of=lambda a, k, r: {"never": 1.0})
    with pytest.raises(ValueError):
        wrapped()
    assert rec.stack == []
    (name, start, end, _, parent, attrs), = rec.spans
    assert name == "m.boom" and end >= start and parent is None and attrs is None


def test_every_target_is_a_public_name():
    for module, names in tracer.TARGETS.items():
        for name in names:
            assert not name.rpartition(".")[2].startswith("_"), f"{module}.{name}"
