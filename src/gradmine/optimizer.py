"""SGD and importance-weighted SGD training loops.

The two modes share one code path: both draw indices through the alias
sampler from a materialized sequence and take the same step, so runs with
the same seed consume identical random streams and differ only in the
distribution. An epoch is N sampled steps, which keeps the
gradient-evaluation budget of weighted and uniform runs equal.

Update, with p_i = 1/N for the uniform sampler:

    w <- w - lr * ((1/N) / p_i) * g_i      (unbiased reweighting)

Computed this way the factor is exactly 1 at p_i = fl(1/N), so uniform SGD
is importance SGD with the 1/N table, bit for bit, for every N.
"""

import csv
import io
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import analysis
from .base import ParamsMixin
from .data import Dataset, PIANOROLL, SEQCLASS, infer_vocab, write_text
from .errors import ConfigError, DistributionError, DivergenceError, ParseError
from .models import (
    STREAM_DRAW,
    STREAM_EVAL,
    STREAM_MODEL,
    ModelSpec,
    get_model,
    pack,
    spec_of,
    stream_rng,
    validate_dataset,
)
from .sampling import build_alias, generate_sequence

UNIFORM = "uniform"
IMPORTANCE = "importance"


def sgd_step(params, grads, lr):
    """Plain descent step; returns new parameters."""
    return params.like(params.vec - lr * grads.vec)


def _step_size(lr, n, p_i, clip=None):
    """Importance-corrected step size lr / (n p_i), as lr * ((1/n) / p_i).

    With p_i = 1/n this is exactly lr. ``clip`` bounds the step at
    clip * lr to guard against tiny probabilities.
    """
    if not np.all(p_i > 0.0):
        raise DistributionError(f"sampling probability must be > 0, got {p_i}")
    step = lr * ((1.0 / n) / p_i)
    return step if clip is None else np.minimum(step, clip * lr)


def is_sgd_step(params, grads, lr, n, p_i, clip=None):
    """``sgd_step`` at the importance-corrected size that ``train`` takes;
    with p_i = 1/n it is ``sgd_step(params, grads, lr)`` bitwise."""
    return sgd_step(params, grads, _step_size(lr, n, p_i, clip))


@dataclass
class TrainConfig:
    spec: ModelSpec
    lr: float
    epochs: int
    sampler: str = UNIFORM
    importance: object = None  # ImportanceTable when sampler == "importance"
    seed: int = 0
    eval_every: int = 1
    clip: float = None

    def __post_init__(self):
        if self.sampler not in (UNIFORM, IMPORTANCE):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.sampler == IMPORTANCE and self.importance is None:
            raise ConfigError("importance sampling needs an importance table")
        if not self.lr > 0:
            raise ConfigError("lr must be > 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.clip is not None and not self.clip > 0:
            raise ConfigError(f"clip must be > 0, got {self.clip}")


def train_config_of(settings, spec, sampler, importance=None):
    """Config for ``spec`` from the training settings of parsed CLI
    arguments or an estimator: ``lr``, ``epochs``, ``seed``,
    ``eval_every`` and ``clip``."""
    return TrainConfig(
        spec=spec,
        lr=settings.lr,
        epochs=settings.epochs,
        sampler=sampler,
        importance=importance,
        seed=settings.seed,
        eval_every=settings.eval_every,
        clip=settings.clip,
    )


@dataclass
class MetricsRow:
    epoch: int
    split: str
    loss: float
    error_rate: float
    grad_var: float
    wall_ms: float


METRICS_HEADER = [f.name for f in fields(MetricsRow)]


@dataclass
class MetricsLog:
    rows: list = field(default_factory=list)

    def split_rows(self, split):
        return [r for r in self.rows if r.split == split]

    def losses(self, split):
        return np.array([r.loss for r in self.split_rows(split)])


def _evaluate(model, params, batch, probs, epoch, seed):
    """Loss, error rate, and estimator variance over a packed batch, in one
    batched forward and backward at ``params``."""
    trace = model.forward(params, batch, stream_rng(seed, STREAM_EVAL, epoch))
    grads = model.backward(params, batch, trace)
    grad_var = analysis.gradient_variance(grads, probs)
    error_rate = int(np.sum(trace.wrong)) / int(np.sum(trace.total))
    return float(np.mean(trace.losses)), error_rate, grad_var


@np.errstate(all="ignore")  # a non-finite loss ends in DivergenceError
def train(dataset, params0, cfgs, eval_dataset=None):
    """Train one run per config from ``params0``; returns a (params,
    metrics log) per config. Index draws, model randomness and per-epoch
    evaluation each own a seeded sub-stream. The runs share spec, epochs
    and eval_every and train in lockstep as the rows of a (R, P) parameter
    batch, each with the bits of its run alone; a run that diverges ends
    every run after it, and the first raises, as running them in turn
    would. The samples are checked once, here.
    """
    spec, epochs, eval_every = cfgs[0].spec, cfgs[0].epochs, cfgs[0].eval_every
    if any((c.spec, c.epochs, c.eval_every) != (spec, epochs, eval_every)
           for c in cfgs):
        raise ConfigError("lockstep runs must share spec, epochs and eval_every")
    samples = validate_dataset(spec, dataset)
    held = None if eval_dataset is None else pack(validate_dataset(
        spec, eval_dataset, "held-out sample"))
    n = len(samples)
    batch = pack(samples)
    model = get_model(spec)

    probs = np.array([c.importance.check_fits(spec, n).probs if c.sampler == IMPORTANCE
                      else np.full(n, 1.0 / n) for c in cfgs])
    schedule = np.array([generate_sequence(
        build_alias(p), epochs * n, stream_rng(c.seed, STREAM_DRAW))
        for p, c in zip(probs, cfgs)])
    sizes = np.array([
        _step_size(c.lr, n, p[s], c.clip if c.sampler == IMPORTANCE else None)
        for c, p, s in zip(cfgs, probs, schedule)])
    rngs = [stream_rng(c.seed, STREAM_MODEL) for c in cfgs]

    held_split = [] if held is None else [
        ("eval", held, np.full(held.lengths.size, 1.0 / held.lengths.size))]
    logs = [MetricsLog() for _ in cfgs]
    packed = {}  # each step's batch, by the samples drawn; one-row ones repeat
    params = params0.like(np.repeat(params0.vec[None], len(cfgs), axis=0))
    live, error = len(cfgs), None  # runs 0 .. live - 1 are still training
    start = time.perf_counter()
    for t in range(epochs * n):
        epoch, step = t // n + 1, t % n
        idx = schedule[:live, t]
        if (key := idx.tobytes()) not in packed:
            packed[key] = pack([samples[i] for i in idx])
        drawn = packed[key]
        trace = model.forward(params, drawn, rngs[:live])
        grads = model.backward(params, drawn, trace)
        failed = np.flatnonzero(~np.isfinite(trace.losses))
        if failed.size:
            live = failed[0]
            error = DivergenceError(
                f"non-finite loss at epoch {epoch}, step {step}, sample {idx[live]}")
            params, grads = params.like(params.vec[:live]), grads[:live]
        params = sgd_step(params, params.like(grads), sizes[:live, t, None])

        if step == n - 1 and (epoch % eval_every == 0 or epoch == epochs):
            for r in range(live):
                row, seed = params0.like(params.vec[r]), cfgs[r].seed
                for split, data, p in [("train", batch, probs[r])] + held_split:
                    loss, err, gvar = _evaluate(model, row, data, p, epoch, seed)
                    if not np.isfinite(loss):
                        live = r
                        error = DivergenceError(f"non-finite evaluation loss "
                                                f"on the {split} split at epoch {epoch}")
                        params = params.like(params.vec[:live])
                        break
                    wall = (time.perf_counter() - start) * 1e3
                    logs[r].rows.append(MetricsRow(epoch, split, loss, err, gvar, wall))
                if live == r:
                    break
        if not live:
            break
    if error is not None:
        raise error
    return [(params0.like(vec), log) for vec, log in zip(params.vec, logs)]


def save_metrics(path, log):
    """Metrics CSV: one row per (epoch, split), floats at 17 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(METRICS_HEADER)
    for r in log.rows:
        writer.writerow([r.epoch, r.split] + [f"{v:.17g}" for v in astuple(r)[2:]])
    write_text(path, buf.getvalue())


def load_metrics(path):
    log = MetricsLog()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader, start=1):
            if i == 1:
                if row != METRICS_HEADER:
                    raise ParseError(f"bad metrics header {row}", line=i)
                continue
            if len(row) != len(METRICS_HEADER):
                raise ParseError(f"expected {len(METRICS_HEADER)} fields", line=i)
            try:
                log.rows.append(MetricsRow(int(row[0]), row[1], *map(float, row[2:])))
            except ValueError as exc:
                raise ParseError(str(exc), line=i) from exc
    return log


@dataclass(eq=False)
class Trainer(ParamsMixin):
    """Fit-style wrapper around :func:`train`.

    Fields mirror the config and take its defaults; the model's symbol
    space is taken from the dataset at fit time. After ``fit``, the learned
    parameter blocks are in ``params_`` and the per-epoch metrics in
    ``log_``. The CLI reads its training defaults from these fields.
    """

    model: str = "lstm"
    lr: float = 0.5
    epochs: int = 10
    sampler: str = TrainConfig.sampler
    importance: object = TrainConfig.importance
    seed: int = TrainConfig.seed
    eval_every: int = TrainConfig.eval_every
    clip: float = TrainConfig.clip
    embed_dim: int = ModelSpec.embed
    hidden: int = ModelSpec.hidden
    classes: int = ModelSpec.classes
    context: int = ModelSpec.context
    cd_k: int = ModelSpec.cd_k

    def fit(self, X, y=None):
        dataset = as_dataset(X)
        self.spec_ = spec_of(self, dataset)
        cfg = train_config_of(self, self.spec_, self.sampler, self.importance)
        params0 = get_model(self.spec_).init_params(self.seed)
        [(self.params_, self.log_)] = train(dataset, params0, [cfg])
        return self

    def _trace(self, X):
        """One batched forward over ``X`` under the fitted parameters;
        chains draw from the (seed, STREAM_EVAL) stream."""
        batch = pack(validate_dataset(self.spec_, X))
        return get_model(self.spec_).forward(
            self.params_, batch, stream_rng(self.seed, STREAM_EVAL))

    def predict(self, X):
        """Argmax class per sample; None per sample for the frame model."""
        return self._trace(X).predictions

    def score(self, X, y=None):
        """Mean accuracy under argmax decoding (1 - error rate)."""
        trace = self._trace(X)
        return 1.0 - int(np.sum(trace.wrong)) / int(np.sum(trace.total))


def as_dataset(X):
    """Accept a Dataset or a plain list of samples."""
    if isinstance(X, Dataset):
        return X
    samples = list(X)
    vocab = infer_vocab(samples)  # rejects an empty list
    kind = PIANOROLL if hasattr(samples[0], "frames") else SEQCLASS
    return Dataset(kind=kind, samples=samples, vocab=vocab)
