"""Shared model plumbing: specs, the parameter format, seeded streams.

Every model stores its learned state in one ``Params``: a float64 vector
``vec`` with a named, reshaped view per block (``params.w_x`` …), laid out
by the model module's ``layout(spec)``. Gradients use the same layout, so
an update is ``params.vec - lr * grads.vec``, a copy is ``vec.copy()``, and
the flattened gradient is ``vec``; norms pick one block by name. A (B, P)
``vec`` holds B gradients, or B parameter sets, one per row. ``pack`` lays
validated samples out for the batched passes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..base import check_ranges
from ..errors import ConfigError, InvalidInputError
from ..tensor import transpose

RNN = "rnn"
LSTM = "lstm"
RNNRBM = "rnnrbm"
MODEL_KINDS = (RNN, LSTM, RNNRBM)
MAX_PARAMS = 10**7  # the most parameters a model may have: 80 MB a row
CHUNK_ELEMENTS = 1 << 15  # the most terms that one chunk of sum_over_time holds

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
        check_ranges({"ModelSpec.vocab": self.vocab, **{k: getattr(self, k) for k in (
            "embed", "hidden", "classes", "context", "cd_k")}})


def check_ids(ids, size, what):
    """Reject an array of ids with an entry outside [0, size)."""
    if np.any(ids < 0) or np.any(ids >= size):
        raise InvalidInputError(f"{what} index out of range [0, {size})")


@functools.lru_cache(maxsize=256)  # one entry per model spec in use
def _spans(layout):
    """name -> (start, stop, shape) of each block, and the total size."""
    spans, start = {}, 0
    for name, shape in layout:
        stop = start + math.prod(shape)
        spans[name] = (start, stop, shape)
        start = stop
    if start > MAX_PARAMS:
        raise ConfigError(f"the model has {start} parameters, more than {MAX_PARAMS}")
    return spans, start


class Params:
    """``vec`` (zeros when not given) holds the blocks of ``layout``, a tuple
    of ``(name, shape)`` pairs, flattened in order; each block is an
    attribute viewing ``vec``, and assigning one writes into ``vec``. A
    (B, P) ``vec`` holds one such vector per row, and each block is then a
    (B, *shape) view."""

    def __init__(self, layout, vec=None):
        spans, size = _spans(layout)
        vec = np.ascontiguousarray(
            np.zeros(size) if vec is None else vec, dtype=np.float64)
        if vec.ndim not in (1, 2) or vec.shape[-1] != size:
            raise ConfigError(
                f"parameter vector has shape {vec.shape}, layout needs ({size},)")
        self.__dict__.update(layout=layout, vec=vec)
        self.__dict__.update(
            (name, vec[..., start:stop].reshape(vec.shape[:-1] + shape))
            for name, (start, stop, shape) in spans.items())

    def __setattr__(self, name, value):
        if name not in self.__dict__:
            raise AttributeError(f"no parameter block {name!r}")
        if value is not self.__dict__[name]:  # ``p.w += g`` assigns w back
            self.__dict__[name][...] = value

    def __reduce__(self):  # copies and unpickled blocks view their own vec
        return Params, (self.layout, self.vec)

    def like(self, vec=None):
        """The same layout over ``vec``, zeros when not given."""
        return Params(self.layout, vec)

    def span(self, first, last):
        """Blocks ``first`` through ``last``, adjacent in the layout and
        equal in trailing shape, as one view stacked along their first
        axis (per row, when ``vec`` has rows)."""
        spans = _spans(self.layout)[0]
        start, _, shape = spans[first]
        return self.vec[..., start:spans[last][1]].reshape(
            self.vec.shape[:-1] + (-1,) + shape[1:])


@dataclass(frozen=True)
class Batch:
    """Validated samples of one kind packed along a leading axis B and
    zero-padded at the end of time to the longest, T: ``tokens`` (B, T) or
    ``frames`` (B, T, n_v), each sample's true length, ``mask`` (B, T), True
    on a sample's own steps, and either the classes of labelled samples,
    ``labels`` (B,), or the per-step ``targets`` (B, T) of the others."""

    lengths: np.ndarray
    mask: np.ndarray
    tokens: np.ndarray = None
    frames: np.ndarray = None
    labels: np.ndarray = None
    targets: np.ndarray = None


def pack(samples):
    """One ``Batch`` of samples that ``validate_dataset`` has passed."""
    lengths = np.array([s.length for s in samples])
    mask = np.arange(lengths.max()) < lengths[:, None]

    def padded(rows):
        out = np.zeros(mask.shape + rows[0].shape[1:], rows[0].dtype)
        out[mask] = np.concatenate(rows)
        return out

    if hasattr(samples[0], "frames"):
        return Batch(lengths, mask, frames=padded([s.frames for s in samples]))
    tokens = padded([s.tokens for s in samples])
    if samples[0].is_classification:
        return Batch(lengths, mask, tokens=tokens,
                     labels=np.array([s.label for s in samples]))
    return Batch(lengths, mask, tokens=tokens,
                 targets=padded([s.targets for s in samples]))


def check_trace(batch, states):
    """Reject a trace whose (B, T+1, ...) ``states`` do not fit ``batch``."""
    if states.shape[:2] != (batch.mask.shape[0], batch.mask.shape[1] + 1):
        raise InvalidInputError("trace does not match the batch")


def add_rows_backwards(out, rows, values):
    """``out[b, rows[b, t]] += values[b, t]`` for t from last to first, the
    order in which a backward pass over time accumulates them."""
    np.add.at(out, (np.arange(len(rows))[:, None], rows[:, ::-1]),
              values[:, ::-1])


def sum_over_time(terms, t_len, shape, ufunc=np.add):
    """``acc = ufunc(acc, term_t)`` from +0.0 for t < t_len, where ``terms(steps,
    out)`` writes the time-major terms of a slice of steps: one sequential
    reduce over time per chunk of at most ``CHUNK_ELEMENTS`` terms, after the
    sum carried in. With ``np.add``, ``shape`` must hold two or more terms:
    along a lone axis numpy adds pairwise."""
    step = max(1, CHUNK_ELEMENTS // math.prod(shape))
    whole = np.zeros((min(step, t_len) + 1, *shape))  # the sum, then a chunk
    for start in range(0, t_len, step):
        buf = whole[:min(step, t_len - start) + 1]
        terms(slice(start, start + len(buf) - 1), buf[1:])
        buf[0] = ufunc.reduce(buf, axis=0)
    return whole[0]


def tanh_forward(w_rec, s0, first, second):
    """The states s_0 … s_T of ``s_t = tanh((W s_{t-1} + first_t) + second_t)``
    from ``s0``, as a (B, T+1, H) view of time-major (T+1, B, H, 1) steps. An
    addend is a time-major (T, B, H, 1) array of per-step terms or a constant,
    such as a bias (..., H, 1); ``b + W s`` is ``W s + b``, but no sum regroups."""
    t_len, n = (first if first.ndim == 4 else second).shape[:2]
    states = np.empty((t_len + 1, n, w_rec.shape[-1], 1))
    states[0, ..., 0] = s0
    a, b = (x if x.ndim == 4 else [x] * t_len for x in (first, second))
    for prev, s, a_t, b_t in zip(states, states[1:], a, b):
        np.add(np.add(np.matmul(w_rec, prev, out=s), a_t, out=s), b_t, out=s)
        np.tanh(s, out=s)
    return states[..., 0].swapaxes(0, 1)


def tanh_backward(w_rec, states, inputs, ext, mask):
    """Backpropagate through ``s_t = tanh(W s_{t-1} + V x_t + b)``, over
    (B, T+1, H) ``states`` and (B, T, ·) ``inputs``, from ``ext``, the
    gradient reaching each s_t from outside the recurrence. Returns the (W,
    V, b) gradient rows, each step's d loss / d pre-activation, and the
    gradient of s_0. A padded step carries nothing back. Each step's outer
    product with (s_{t-1}, x_t, 1) fills the three sums, each accumulated
    from the last step to the first (x * 1.0 is x). All runs time-major."""
    n, t_len, hidden = ext.shape
    tm = states.swapaxes(0, 1)
    stacked = np.concatenate([tm[:-1], inputs.swapaxes(0, 1), np.ones((t_len, n, 1))], -1)
    one_s2 = (1.0 - tm[1:] ** 2)[..., None]
    das = np.empty((t_len, n, hidden, 1))
    carry = np.zeros((n, hidden, 1))
    w_t = transpose(w_rec)
    steps = zip(das, ext.swapaxes(0, 1)[..., None], one_s2, mask.T, ~mask.all(axis=0))
    for da, e, o, live, padded in list(steps)[::-1]:
        np.matmul(w_t, np.multiply(np.add(e, carry, out=da), o, out=da), out=carry)
        if padded:
            carry[~live] = 0.0
    d, x = das[::-1], stacked[::-1, :, None]  # last step first
    sums = sum_over_time(lambda s, out: np.multiply(d[s], x[s], out=out),
                         t_len, (n, hidden, x.shape[-1]))
    das = das[..., 0].swapaxes(0, 1)
    return sums[..., :hidden], sums[..., hidden:-1], sums[..., -1], das, carry[..., 0]


def param_block(params, name):
    names = [n for n, _ in params.layout]
    if name not in names:
        raise ConfigError(f"unknown parameter block {name!r}; have {sorted(names)}")
    return getattr(params, name)
