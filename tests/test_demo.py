"""The toy pipelines that demo-toy and acceptance criteria 7-8 share."""

import numpy as np
import pytest

from lula_lab import demo
from lula_lab.data import UNIFORM_BOX
from lula_lab.network import forward_output
from lula_lab.numerics import Rng

UNITS = 4


@pytest.mark.parametrize(
    "pipeline",
    [
        lambda seeds: demo.moons(30, 0.1, 3, UNITS, 2, 20, seeds),
        lambda seeds: demo.regression(30, 0.1, 25.0, 3, UNITS, 2, 20, seeds),
    ],
    ids=["moons", "regression"],
)
def test_seed_wiring(pipeline):
    seeds = demo.Seeds(1, 2, 3, 4, 5, 7)
    run = pipeline(seeds)
    x = Rng(0).uniform(-10.0, 10.0, (50, run.map_net.input_dim))
    a = forward_output(run.map_net, x)
    b = forward_output(run.lula_net, x)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
    for post in (run.post_la, run.post_lula):
        assert (post.kind, post.subset, post.prior_precision) == (
            "kfac_last_layer", "last_layer", 1e-3
        )

    # the augmentation seed reaches only the free block
    other = pipeline(seeds._replace(augment=8))
    assert other.map_net.flatten_params().tobytes() == (
        run.map_net.flatten_params().tobytes()
    )
    assert not np.array_equal(
        other.lula_net.weights[-2][-UNITS:], run.lula_net.weights[-2][-UNITS:]
    )


@pytest.mark.parametrize(
    "pipeline,width",
    [
        (lambda seeds: demo.moons(30, 0.1, 1, UNITS, 0, 20, seeds), 2),
        (lambda seeds: demo.regression(30, 0.1, 25.0, 1, UNITS, 0, 20, seeds), 1),
    ],
    ids=["moons", "regression"],
)
def test_lula_trains_against_the_uniform_box(pipeline, width, monkeypatch):
    calls = []
    original = demo.train_lula

    def recording(net, units, curv_features, in_features, out_features, *rest):
        calls.append(out_features)
        return original(net, units, curv_features, in_features, out_features, *rest)

    monkeypatch.setattr(demo, "train_lula", recording)
    pipeline(demo.Seeds(1, 2, 3, 4, 5, 7))
    expected = Rng(7).uniform(*UNIFORM_BOX, (20, width))
    assert len(calls) == 1 and calls[0].tobytes() == expected.tobytes()
