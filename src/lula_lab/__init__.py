"""Laplace-approximated networks with trainable uncertainty units.

The package turns a point-estimated feedforward network into a Gaussian
posterior over (a subset of) its parameters and then tunes the resulting
predictive uncertainty post hoc by adding inactive hidden units whose only
effect is on the loss curvature.
"""

from .errors import (
    ConfigError,
    DivergenceError,
    LulaLabError,
    ModelFormatError,
)
from .numerics import Rng
from .network import (
    ForwardTrace,
    LayerSpec,
    Network,
    backward,
    forward,
    load,
    output_jacobian,
    save,
)
from .training import LossKind, TrainConfig, map_loss, train_map
from .laplace import (
    Curvature,
    LaplacePosterior,
    PredictConfig,
    Predictive,
    build_posterior,
    fit_curvature,
    mc_predict,
    mc_predict_sets,
    probit_predict_binary,
    tune_prior_precision,
)
from .lula import (
    LulaTrainConfig,
    augment,
    lula_objective,
    train_lula,
)
from .data import (
    Dataset,
    SplitSpec,
    gen_toy_regression,
    gen_two_moons,
    load_csv,
    split,
    standardize,
    synthesize_ood,
)
from .metrics import auroc, brier, mmc

__version__ = "0.1.0"
