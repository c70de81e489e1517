"""The paper's MAP -> LA -> LA+LULA pipeline on each toy task.

``demo-toy`` and the acceptance criteria 7-8 run these functions with
different seeds. Each trains a MAP net, fits an untuned Kronecker last-layer
Laplace posterior on the train split whose prior precision is the training
weight decay, adds LULA units to the final hidden layer, and trains them on
the whole val split against the whole set of uniform outliers that
``data.uniform_outliers`` draws, through that same posterior of the
augmented net, which the tuned net then predicts with.
"""

from __future__ import annotations

from typing import NamedTuple

from . import data as data_mod
from .laplace import LaplacePosterior, build_posterior, fit_curvature
from .lula import LulaTrainConfig, augment, train_lula
from .network import Network
from .numerics import Rng
from .training import LossKind, TrainConfig, train_map

__all__ = ["Seeds", "Pipeline", "moons", "regression"]

SPLIT = (0.6, 0.2, 0.2)
WEIGHT_DECAY = 1e-3  # also the prior precision of both posteriors
MOONS_DIMS, REG_DIMS = (2, 64, 64, 2), (1, 50, 1)  # relu nets
MOONS_LR, REG_LR = 1e-3, 1e-2  # MAP Adam step sizes
MOONS_BATCH, REG_BATCH = 64, None  # MAP minibatch; None is full batch
MOONS_LULA_LR, REG_LULA_LR = 0.5, 1.0
REG_X_RANGE = (-4.0, 4.0)
LULA_INIT_STD = 0.2


class Seeds(NamedTuple):
    """One seed for each random draw of a pipeline: data, split, network
    initialization, MAP minibatches, the added units and the outliers. LULA
    training reads whole sets and draws nothing."""

    data: int
    split: int
    init: int
    train: int
    augment: int
    ood: int


class Pipeline(NamedTuple):
    """The MAP and LULA nets, their posteriors, the test split and the loss."""

    map_net: Network
    lula_net: Network
    post_la: LaplacePosterior
    post_lula: LaplacePosterior
    test: data_mod.Dataset
    loss: LossKind


def moons(size: int, noise: float, train_epochs: int, lula_units: int,
          lula_epochs: int, ood_size: int, seeds: Seeds) -> Pipeline:
    """The two-moons classification pipeline."""
    full = data_mod.gen_two_moons(size, noise, seeds.data)
    splits = data_mod.split(full, data_mod.SplitSpec(SPLIT, seed=seeds.split))
    return _pipeline(
        splits, LossKind("categorical_ce"), MOONS_DIMS, MOONS_LR, MOONS_BATCH,
        train_epochs, MOONS_LULA_LR, lula_units, lula_epochs, ood_size, seeds,
    )


def regression(size: int, noise: float, noise_precision: float,
               train_epochs: int, lula_units: int, lula_epochs: int,
               ood_size: int, seeds: Seeds) -> Pipeline:
    """The 1-d regression pipeline, standardized (targets too) on train."""
    full = data_mod.gen_toy_regression(size, REG_X_RANGE, noise, seeds.data)
    train, val, test = data_mod.split(
        full, data_mod.SplitSpec(SPLIT, seed=seeds.split)
    )
    train, (val, test) = data_mod.standardize(
        train, [val, test], include_targets=True
    )
    return _pipeline(
        (train, val, test), LossKind("gaussian_nll", noise_precision), REG_DIMS,
        REG_LR, REG_BATCH, train_epochs, REG_LULA_LR, lula_units, lula_epochs,
        ood_size, seeds,
    )


def _pipeline(
    splits, loss, dims, lr, batch_size, train_epochs, lula_lr, units,
    lula_epochs, ood_size, seeds,
) -> Pipeline:
    """MAP net, LA, and LULA units trained on val through the LA of train."""
    train, val, test = splits
    net0 = Network.init_random(dims, "relu", Rng(seeds.init))
    tcfg = TrainConfig(
        learning_rate=lr, epochs=train_epochs, batch_size=batch_size,
        weight_decay=WEIGHT_DECAY, seed=seeds.train,
    )
    net, _ = train_map(
        net0, train.features, train.targets, loss, tcfg, history=False
    )

    def posterior(network):
        curv = fit_curvature(
            network, train.features, loss, "kfac_last_layer", "last_layer"
        )
        return build_posterior(curv, WEIGHT_DECAY)

    aug_net = augment(net, units, Rng(seeds.augment), LULA_INIT_STD)
    lcfg = LulaTrainConfig(learning_rate=lula_lr, epochs=lula_epochs)
    out_train = data_mod.uniform_outliers(ood_size, dims[0], Rng(seeds.ood))
    tuned, _ = train_lula(
        aug_net, units, train.features, val.features, out_train, loss,
        WEIGHT_DECAY, lcfg,
    )
    return Pipeline(net, tuned, posterior(net), posterior(tuned), test, loss)
