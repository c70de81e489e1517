"""The package's records are NamedTuples: immutable, equal to a copy rebuilt
from their fields (``Network.specs`` comparisons rely on that), and equal to
the plain tuple of those fields. The checked ones keep their constructor
checks; ``_replace`` skips them."""

import numpy as np
import pytest

from lula_lab.config import default_config
from lula_lab.data import Dataset, SplitSpec
from lula_lab.laplace import PredictConfig
from lula_lab.lula import LulaTrainConfig
from lula_lab.network import LayerSpec, Network, forward
from lula_lab.numerics import Rng
from lula_lab.training import LossKind, TrainConfig

NET = Network.init_random([2, 3, 1], "tanh", Rng(0))

# the nine records that were frozen dataclasses
RECORDS = {
    "LayerSpec": lambda: LayerSpec(2, 3, "tanh"),
    "ForwardTrace": lambda: forward(NET, np.ones((4, 2))),
    "LossKind": lambda: LossKind("gaussian_nll", 2.0),
    "TrainConfig": lambda: TrainConfig(learning_rate=0.01, epochs=3, batch_size=8),
    "Dataset": lambda: Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64)),
    "SplitSpec": lambda: SplitSpec((0.5, 0.25, 0.25), 4),
    "ExperimentConfig": default_config,
    "LulaTrainConfig": lambda: LulaTrainConfig(0.5, 7),
    "PredictConfig": lambda: PredictConfig("mc", 10, 3),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable_and_equals_its_rebuilt_copy(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    rebuilt = type(record)(**{f: getattr(record, f) for f in record._fields})
    assert rebuilt == record
    assert tuple(record) == record


def test_replace_skips_the_constructor_checks():
    with pytest.raises(ValueError, match="learning_rate must be positive"):
        TrainConfig(learning_rate=0.0)
    assert TrainConfig()._replace(learning_rate=0.0).learning_rate == 0.0
