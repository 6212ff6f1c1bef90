"""Shared model plumbing: specs, parameter-block math, seeded streams.

Every model stores its learned state in a dataclass whose fields are
float64 arrays. Gradients reuse the same dataclass (block-for-block shape
match), so update rules and norms are generic over models.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..tensor import matrix_norm

RNN = "rnn"
LSTM = "lstm"
RNNRBM = "rnnrbm"
MODEL_KINDS = (RNN, LSTM, RNNRBM)

# Sub-stream tags so every consumer of randomness owns an independent
# generator derived from one master seed.
STREAM_INIT = 0
STREAM_DRAW = 1
STREAM_MODEL = 2
STREAM_EVAL = 3
STREAM_MINE = 4


def stream_rng(seed, stream, extra=None):
    """Independent generator for (seed, stream[, extra])."""
    key = [int(seed), int(stream)]
    if extra is not None:
        key.append(int(extra))
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions and knobs that fully determine a model's architecture.

    ``vocab`` is the token-id space for the token models and the frame
    width for the frame model. ``context`` is the conditioning-state width
    of the frame model; ``cd_k`` its Gibbs-chain length.
    """

    kind: str
    vocab: int
    embed: int = 8
    hidden: int = 8
    classes: int = 2
    context: int = 8
    cd_k: int = 1

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        for name in ("vocab", "embed", "hidden", "classes", "context", "cd_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def to_dict(self):
        return dataclasses.asdict(self)


def param_blocks(params):
    """name -> array view of every block in a parameter dataclass."""
    return {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}


def param_block(params, name):
    blocks = param_blocks(params)
    if name not in blocks:
        raise ConfigError(
            f"unknown parameter block {name!r}; have {sorted(blocks)}"
        )
    return blocks[name]


def map_blocks(fn, params, *others):
    """Apply ``fn`` blockwise across aligned parameter dataclasses."""
    kwargs = {}
    for f in dataclasses.fields(params):
        args = [getattr(params, f.name)] + [getattr(o, f.name) for o in others]
        kwargs[f.name] = fn(*args)
    return type(params)(**kwargs)


def copy_params(params):
    return map_blocks(np.copy, params)


def params_to_vector(params):
    """All blocks flattened and concatenated, in field order."""
    return np.concatenate([b.ravel() for b in param_blocks(params).values()])


def grad_norm(grads, selector, norm_kind="frobenius"):
    """Norm of one gradient block, selected by parameter name."""
    return matrix_norm(param_block(grads, selector), kind=norm_kind)
