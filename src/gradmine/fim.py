"""Per-sample importance mining.

The miner gives every training sample its own private model, all starting
from one shared initialization, and trains each privately on its single
sample with plain SGD until the loss drops to ``epsilon`` (or a step cap
hits). The norm of a designated parameter block of the private model then
serves as the sample's importance; normalizing the norms yields the
sampling distribution used by importance-weighted training.

Why the final norm works as a proxy: with a fixed step size the private
block ends at its initialization minus the step-size-scaled sum of every
gradient it ever received, so samples that keep producing large gradients
drag the block further and end with larger norms.

Each private run is a pure function of (shared init, sample, config,
per-sample seed). The runs train in lockstep, one row each of a per-row
parameter batch, sharded by sample index over the workers; every row has
the bits of its run alone, so results are identical for any worker count.
"""

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .analysis import lipschitz_distribution
from .base import ParamsMixin, check_probs, check_ranges, check_weights, config_of
from .data import write_json
from .errors import (
    ConfigError,
    DistributionError,
    DivergenceError,
    InvalidInputError,
    ParseError,
)
from .models import (
    STREAM_MINE,
    ModelSpec,
    get_model,
    pack,
    param_block,
    spec_of,
    stream_rng,
    validate_dataset,
)
from .optimizer import Trainer, as_dataset, sgd_step
from .sampling import build_alias
from .tensor import NORM_KINDS, matrix_norm

WORKERS_ENV = "GRADMINE_WORKERS"


def default_epsilon(target_loss):
    """Private-training accuracy: two orders below the full-run target."""
    return 0.01 * target_loss


@dataclass
class FimConfig:
    epsilon: float
    lr: float = 0.1
    t_max: int = 5000
    seed: int = 0
    base_selector: str = None  # model default when unset
    norm_kind: str = "frobenius"

    def __post_init__(self):
        check_ranges({k: getattr(self, k) for k in ("epsilon", "lr", "t_max", "seed")})


@dataclass
class ImportanceTable:
    model: str
    base_selector: str
    epsilon: float
    seed: int
    norm_kind: str
    norms: np.ndarray
    probs: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    def __post_init__(self):
        self.norms = np.ascontiguousarray(self.norms, dtype=np.float64)
        self.probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        self.iterations = np.ascontiguousarray(self.iterations, dtype=np.int64)
        self.converged = np.ascontiguousarray(self.converged, dtype=bool)

    @property
    def n(self):
        return int(self.norms.size)

    def validate(self):
        sizes = {self.probs.size, self.norms.size, self.iterations.size,
                 self.converged.size}
        if len(sizes) != 1 or self.n == 0:
            raise InvalidInputError("importance table columns disagree in length")
        if self.norm_kind not in NORM_KINDS:
            raise InvalidInputError(
                f"importance table: norm_kind must be one of {NORM_KINDS}, "
                f"got {self.norm_kind!r}")
        check_weights(self.norms, "norms")
        if np.any(self.iterations < 0):
            raise InvalidInputError("iterations must be non-negative")
        check_probs(self.probs, n=self.n, tol=1e-12)
        if np.any(self.probs <= 0.0):
            raise DistributionError("every mined probability must be > 0")
        return self

    def check_fits(self, spec, n):
        """This table, validated, if it was mined for ``spec.kind`` on one
        of its blocks and covers ``n`` samples; ``ConfigError`` otherwise."""
        self.validate()
        if self.model != spec.kind:
            raise ConfigError(
                f"importance table was mined with model {self.model!r}, "
                f"this run uses {spec.kind!r}"
            )
        blocks = [name for name, _ in get_model(spec).module.layout(spec)]
        if self.base_selector not in blocks:
            raise ConfigError(
                f"importance table: base_selector {self.base_selector!r} is not "
                f"a block of the {spec.kind} model; have {blocks}")
        if self.n != n:
            raise ConfigError(
                f"importance table covers {self.n} samples, dataset has {n}")
        return self


IMPORTANCE_KEYS = tuple(f.name for f in fields(ImportanceTable))


@np.errstate(all="ignore")  # a non-finite loss ends in DivergenceError
def _mine_rows(task):
    """Train the private models of validated samples ``first``, ``first +
    1``, ... in lockstep, one row of a (B, P) parameter batch each, and
    return ``(index, norm, steps, converged)`` per sample. A row leaves the
    batch at its own step count, with the bits of its run alone."""
    spec, samples, cfg, first, params0 = task
    model = get_model(spec)
    selector = cfg.base_selector or model.base_selector
    n = len(samples)
    # The runs still training, by sample index, longest first: no pass gathers.
    rows = np.argsort([-s.length for s in samples], kind="stable")
    rngs = [stream_rng(cfg.seed, STREAM_MINE, first + i) for i in range(n)]
    params = params0.like(np.repeat(params0.vec[None], n, axis=0))
    results = [None] * n
    steps = np.zeros(n, dtype=np.int64)
    limit = n  # a run that diverges ends every run above it
    error = None
    batch = pack([samples[i] for i in rows])
    while True:
        trace = model.forward(params, batch, [rngs[i] for i in rows])
        loss = trace.losses
        going = (loss > cfg.epsilon) & (steps[rows] < cfg.t_max)
        failed = np.flatnonzero(~np.isfinite(loss) & (rows < limit))
        if failed.size:  # the lowest sample index among them
            low = failed[np.argmin(rows[failed])]
            limit = rows[low]
            at = f" at step {steps[limit]}" if going[low] else ""
            error = DivergenceError(
                f"private training diverged on sample {first + limit}{at}")
        stop = ~going & (rows < limit)
        keep = going & (rows < limit)
        for j in np.flatnonzero(stop):  # a run's result, from its row as it stops
            i = int(rows[j])
            norm = matrix_norm(param_block(params0.like(params.vec[j]), selector),
                               cfg.norm_kind)
            results[i] = (first + i, norm, int(steps[i]), bool(loss[j] <= cfg.epsilon))
        if not keep.any():
            break
        grads = model.backward(params, batch, trace)
        if not keep.all():  # drop finished runs, and the padding only they needed
            rows, grads = rows[keep], grads[keep]
            params = params.like(params.vec[keep])
            batch = pack([samples[i] for i in rows])
        params = sgd_step(params, params.like(grads), cfg.lr)
        steps[rows] += 1
    if error is not None:
        raise error
    return results


def _mine_one(task):
    """One private run (spec, sample, cfg, index, init): one row of ``_mine_rows``."""
    spec, sample, cfg, index, params = task
    return _mine_rows((spec, [sample], cfg, index, params))[0]


def resolve_workers(n_workers=None):
    """Explicit argument, else the GRADMINE_WORKERS variable, else all
    cores; ``ConfigError`` for a count below 1."""
    label = str
    if n_workers is None:
        value, label = os.environ.get(WORKERS_ENV), lambda _: WORKERS_ENV
        if not value:
            return os.cpu_count() or 1
        if not (value.isascii() and value.isdigit()):  # int() takes " 3", "+3", "1_0"
            raise ConfigError(f"{WORKERS_ENV} must be ASCII digits, got {value!r}")
        n_workers = int(value)
    check_ranges({"workers": n_workers}, label=label)
    return n_workers


def mine_importance(dataset, spec, cfg, n_workers=None):
    """Run private training for every sample and return its ``ImportanceTable``.

    Every private model starts from the same shared initialization (drawn
    from ``cfg.seed``); per-sample randomness is keyed by sample index, so
    the result does not depend on worker count or scheduling.
    """
    samples = validate_dataset(spec, dataset)
    model = get_model(spec)
    selector = cfg.base_selector or model.base_selector
    params0 = model.init_params(cfg.seed)
    # Fail fast on a bad selector, or a norm that does not fit its block.
    matrix_norm(param_block(params0, selector), cfg.norm_kind)

    # One lockstep batch per worker, over a contiguous range of samples. A
    # batch pays each step's per-call cost once for all its rows, so workers
    # beyond the cores would only queue that cost up behind each other.
    workers = min(resolve_workers(n_workers), os.cpu_count() or 1, len(samples))
    ranges = np.array_split(np.arange(len(samples)), workers)
    shards = [(spec, samples[r[0]:r[-1] + 1], cfg, int(r[0]), params0) for r in ranges]
    if len(shards) == 1:
        outputs = _mine_rows(shards[0])
    else:  # imported here, so that one-worker runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            outputs = [out for shard in pool.map(_mine_rows, shards) for out in shard]

    # The map keeps shard order, so output i belongs to sample i.
    _, norms, iterations, converged = zip(*outputs)
    return ImportanceTable(
        model=spec.kind,
        base_selector=selector,
        epsilon=cfg.epsilon,
        seed=cfg.seed,
        norm_kind=cfg.norm_kind,
        norms=norms,
        probs=build_alias(lipschitz_distribution(norms)).probs,
        iterations=iterations,
        converged=converged,
    ).validate()


def save_importance(path, table):
    table.validate()
    payload = {k: getattr(table, k) for k in IMPORTANCE_KEYS}
    payload = {k: v.tolist() if isinstance(v, np.ndarray) else v
               for k, v in payload.items()}
    payload["seed"] = int(table.seed)
    write_json(path, payload)


def load_importance(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid importance JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(payload, dict):
        raise InvalidInputError("importance file must hold a JSON object")
    missing = [k for k in IMPORTANCE_KEYS if k not in payload]
    if missing:
        raise InvalidInputError(f"importance file missing keys: {missing}")
    # The constructor would cast 1.7 to 1, "no" to True and true to 1.0.
    for k, types, what in (("iterations", (int,), "integers"),
                           ("converged", (bool,), "true/false"),
                           ("norms", (int, float), "numbers"),
                           ("probs", (int, float), "numbers")):
        column = payload[k]
        if not (isinstance(column, list) and all(type(v) in types for v in column)):
            raise InvalidInputError(f"importance file: {k} must be {what}")
    for k in ("model", "base_selector", "norm_kind"):
        if type(payload[k]) is not str:
            raise InvalidInputError(f"importance file: {k} must be a string")
    check_ranges({k: payload[k] for k in ("epsilon", "seed")}, InvalidInputError,
                 lambda name: f"importance file: {name}")
    try:
        table = ImportanceTable(**{k: payload[k] for k in IMPORTANCE_KEYS})
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"importance file has a bad column: {exc}") from exc
    return table.validate()


@dataclass(eq=False)
class ImportanceMiner(ParamsMixin):
    """Fit-style interface to the miner: ``fit`` mines the dataset into
    ``table_``. Fields take the config's defaults, and the CLI's ``mine``
    reads its defaults from these fields.
    """

    model: str = Trainer.model
    epsilon: float = 0.01
    lr: float = FimConfig.lr
    t_max: int = FimConfig.t_max
    seed: int = FimConfig.seed
    base_selector: str = FimConfig.base_selector
    norm_kind: str = FimConfig.norm_kind
    n_workers: int = None
    embed_dim: int = ModelSpec.embed
    hidden: int = ModelSpec.hidden
    classes: int = ModelSpec.classes
    context: int = ModelSpec.context
    cd_k: int = ModelSpec.cd_k

    def fit(self, X, y=None):
        dataset = as_dataset(X)
        self.spec_ = spec_of(self, dataset)
        self.table_ = mine_importance(dataset, self.spec_, config_of(FimConfig, self),
                                      n_workers=self.n_workers)
        return self
