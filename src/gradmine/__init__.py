"""Importance-sampled SGD for recurrent sequence models.

The package mines a per-sample importance value by training a private
model copy on each sample from a shared initialization, turns the mined
norms into a sampling distribution, and trains with unbiased
importance-weighted SGD. An analysis suite makes the variance-reduction
quantities (estimator variance, optimal and supremum-based distributions,
benefit ratio) computable exactly on small instances.
"""

from .analysis import (
    bound_ratio,
    gradient_variance,
    lipschitz_distribution,
    optimal_distribution,
    variance_report,
)
from .data import (
    Dataset,
    FrameSequence,
    SequenceSample,
    chunk_frames,
    gen_pianoroll,
    gen_seqclass,
    load_dataset,
    save_dataset,
)
from .errors import (
    ConfigError,
    DistributionError,
    DivergenceError,
    GradmineError,
    InvalidInputError,
    ParseError,
    ShapeError,
)
from .fim import (
    FimConfig,
    ImportanceMiner,
    ImportanceTable,
    default_epsilon,
    load_importance,
    mine_importance,
    save_importance,
)
from .models import ModelSpec, get_model
from .optimizer import (
    MetricsLog,
    MetricsRow,
    TrainConfig,
    Trainer,
    is_sgd_step,
    load_metrics,
    save_metrics,
    sgd_step,
    train,
)
from .sampling import SamplingDistribution, build_alias, generate_sequence
from .tensor import frobenius_norm, matrix_norm, sigmoid, spectral_norm

__version__ = "0.1.0"
