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
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .base import ParamsMixin
from .data import Dataset, PIANOROLL, SEQCLASS, infer_vocab
from .errors import ConfigError, DistributionError, DivergenceError, ParseError
from .models import (
    STREAM_DRAW,
    STREAM_EVAL,
    STREAM_MODEL,
    ModelSpec,
    get_model,
    spec_of,
    stream_rng,
    validate_dataset,
)
from .sampling import build_alias, generate_sequence

UNIFORM = "uniform"
IMPORTANCE = "importance"

METRICS_HEADER = ["epoch", "split", "loss", "error_rate", "grad_var", "wall_ms"]


def sgd_step(params, grads, lr):
    """Plain descent step; returns new parameters."""
    return params.like(params.vec - lr * grads.vec)


def _step_size(lr, n, p_i, clip=None):
    """Importance-corrected step size lr / (n p_i), as lr * ((1/n) / p_i).

    With p_i = 1/n this is exactly lr. ``clip`` bounds the step at
    clip * lr to guard against tiny probabilities.
    """
    if not p_i > 0.0:
        raise DistributionError(f"sampling probability must be > 0, got {p_i}")
    step = lr * ((1.0 / n) / p_i)
    return step if clip is None else min(step, clip * lr)


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

    def digest(self):
        payload = {
            "spec": self.spec.to_dict(),
            "lr": self.lr,
            "epochs": self.epochs,
            "sampler": self.sampler,
            "seed": self.seed,
            "eval_every": self.eval_every,
            "clip": self.clip,
        }
        if self.importance is not None:
            payload["importance"] = hashlib.sha256(
                np.asarray(self.importance.probs, dtype=np.float64).tobytes()
            ).hexdigest()
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


@dataclass
class MetricsLog:
    rows: list = field(default_factory=list)
    config_hash: str = ""
    seed: int = 0

    def split_rows(self, split):
        return [r for r in self.rows if r.split == split]

    def losses(self, split):
        return np.array([r.loss for r in self.split_rows(split)])

    def __eq__(self, other):
        if not isinstance(other, MetricsLog):
            return NotImplemented
        return self.rows == other.rows


def sample_passes(model, params, samples, rng):
    """Forward and backward over each validated sample in turn, all drawing
    from ``rng``: yields (sample, trace, flattened gradient)."""
    for sample in samples:
        trace = model.forward_unchecked(params, sample, rng)
        yield sample, trace, model.backward_unchecked(params, sample, trace).vec


def _evaluate(model, params, samples, probs, epoch, seed):
    """Loss, error rate, and estimator variance over a sample list."""
    losses, grads = [], []
    wrong = total = 0
    rng = stream_rng(seed, STREAM_EVAL, epoch)
    for sample, trace, grad in sample_passes(model, params, samples, rng):
        losses.append(trace.loss)
        grads.append(grad)
        w, t = model.errors(trace, sample)
        wrong += w
        total += t
    grad_var = analysis.gradient_variance(np.stack(grads), probs)
    return float(np.mean(losses)), wrong / total, grad_var


def train(dataset, params0, cfg, eval_dataset=None):
    """Run the sampled training loop; returns (params, metrics log).

    Fully deterministic given (dataset, params0, cfg): index draws, model
    randomness, and per-epoch evaluation each own a seeded sub-stream.
    The training and held-out samples are checked once, here.
    """
    samples = validate_dataset(cfg.spec, dataset)
    held = None if eval_dataset is None else validate_dataset(
        cfg.spec, eval_dataset, "held-out sample")
    n = len(samples)
    model = get_model(cfg.spec)

    if cfg.sampler == IMPORTANCE:
        probs, clip = cfg.importance.check_fits(cfg.spec, n).probs, cfg.clip
    else:
        probs, clip = np.full(n, 1.0 / n), None

    dist = build_alias(probs)
    schedule = generate_sequence(
        dist, cfg.epochs * n, stream_rng(cfg.seed, STREAM_DRAW))
    rng_model = stream_rng(cfg.seed, STREAM_MODEL)

    log = MetricsLog(config_hash=cfg.digest(), seed=cfg.seed)
    params = params0.like(params0.vec.copy())
    start = time.perf_counter()
    for epoch in range(1, cfg.epochs + 1):
        for step in range(n):
            idx = int(schedule[(epoch - 1) * n + step])
            sample = samples[idx]
            trace = model.forward_unchecked(params, sample, rng_model)
            if not np.isfinite(trace.loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}, sample {idx}"
                )
            grads = model.backward_unchecked(params, sample, trace)
            params = sgd_step(
                params, grads, _step_size(cfg.lr, n, probs[idx], clip))

        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            loss, err, gvar = _evaluate(model, params, samples, probs, epoch, cfg.seed)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite evaluation loss at epoch {epoch}")
            wall = (time.perf_counter() - start) * 1e3
            log.rows.append(MetricsRow(epoch, "train", loss, err, gvar, wall))
            if held is not None:
                eloss, eerr, egvar = _evaluate(
                    model, params, held, np.full(len(held), 1.0 / len(held)),
                    epoch, cfg.seed)
                wall = (time.perf_counter() - start) * 1e3
                log.rows.append(MetricsRow(epoch, "eval", eloss, eerr, egvar, wall))
    return params, log


def save_metrics(path, log):
    """Metrics CSV: one row per (epoch, split), floats at 17 digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for r in log.rows:
            writer.writerow(
                [r.epoch, r.split]
                + [f"{v:.17g}" for v in (r.loss, r.error_rate, r.grad_var, r.wall_ms)]
            )


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
                log.rows.append(
                    MetricsRow(
                        epoch=int(row[0]),
                        split=row[1],
                        loss=float(row[2]),
                        error_rate=float(row[3]),
                        grad_var=float(row[4]),
                        wall_ms=float(row[5]),
                    )
                )
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
        self.params_, self.log_ = train(dataset, params0, cfg)
        return self

    def _traces(self, X):
        """The model, and (sample, trace) pairs under the fitted parameters;
        chains draw from the (seed, STREAM_EVAL) stream."""
        samples = validate_dataset(self.spec_, X)
        model, rng = get_model(self.spec_), stream_rng(self.seed, STREAM_EVAL)
        return model, ((s, model.forward_unchecked(self.params_, s, rng))
                       for s in samples)

    def predict(self, X):
        """Argmax class per sample; None per sample for the frame model."""
        model, traces = self._traces(X)
        return np.array([model.predict(trace) for _, trace in traces])

    def score(self, X, y=None):
        """Mean accuracy under argmax decoding (1 - error rate)."""
        model, traces = self._traces(X)
        wrong = total = 0
        for s, trace in traces:
            w, t = model.errors(trace, s)
            wrong += w
            total += t
        return 1.0 - wrong / total


def as_dataset(X):
    """Accept a Dataset or a plain list of samples."""
    if isinstance(X, Dataset):
        return X
    samples = list(X)
    vocab = infer_vocab(samples)  # rejects an empty list
    kind = PIANOROLL if hasattr(samples[0], "frames") else SEQCLASS
    return Dataset(kind=kind, samples=samples, vocab=vocab)
