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
drag the block further and end with larger norms. ``history_sum_check``
verifies that identity and its triangle-inequality bound on recorded runs.

Each private run is a pure function of (shared init, sample, config,
per-sample seed). The runs train in lockstep, one row each of a per-row
parameter batch, sharded by sample index over the workers; every row has
the bits of its run alone, so results are identical for any worker count.
"""

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .base import ParamsMixin, check_probs, check_weights
from .data import write_json
from .errors import (
    ConfigError,
    DistributionError,
    DivergenceError,
    InvalidInputError,
    ParseError,
    UnsupportedOperationError,
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
from .optimizer import as_dataset, sgd_step
from .sampling import build_alias
from .tensor import frobenius_norm, matrix_norm

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
    record_history: bool = False
    embed_diagnostic: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0")
        if not self.lr > 0:
            raise ConfigError("lr must be > 0")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")


def fim_config_of(settings, epsilon, record_history=FimConfig.record_history):
    """Config from the mining settings of parsed CLI arguments or an
    estimator: ``lr``, ``t_max``, ``seed``, ``base_selector``,
    ``norm_kind`` and ``embed_diagnostic``."""
    return FimConfig(
        epsilon=epsilon,
        lr=settings.lr,
        t_max=settings.t_max,
        seed=settings.seed,
        base_selector=settings.base_selector,
        norm_kind=settings.norm_kind,
        record_history=record_history,
        embed_diagnostic=settings.embed_diagnostic,
    )


@dataclass
class HistoryRecord:
    """Step-level bookkeeping of one private run."""

    base_final: np.ndarray
    grad_sum: np.ndarray  # sum of base-block gradients over all steps
    norm_sum: float  # sum of per-step base-gradient norms
    losses: list  # loss before each recorded step, plus the final loss


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
        check_weights(self.norms, "norms")
        if np.any(self.iterations < 0):
            raise InvalidInputError("iterations must be non-negative")
        check_probs(self.probs, n=self.n, tol=1e-12)
        if np.any(self.probs <= 0.0):
            raise DistributionError("every mined probability must be > 0")
        return self

    def check_fits(self, spec, n):
        """This table, validated, if it was mined for ``spec.kind`` and
        covers ``n`` samples; ``ConfigError`` otherwise."""
        self.validate()
        if self.model != spec.kind:
            raise ConfigError(
                f"importance table was mined with model {self.model!r}, "
                f"this run uses {spec.kind!r}"
            )
        if self.n != n:
            raise ConfigError(
                f"importance table covers {self.n} samples, dataset has {n}")
        return self


IMPORTANCE_KEYS = tuple(f.name for f in fields(ImportanceTable))


@dataclass
class MiningResult:
    table: ImportanceTable
    init_params: object
    histories: list = None  # [HistoryRecord], when recording was on
    embedding_spread: float = None  # mean pairwise distance of private embeddings


@np.errstate(all="ignore")  # a non-finite loss ends in DivergenceError
def _mine_rows(task):
    """Train the private models of validated samples ``first``, ``first +
    1``, ... in lockstep, one row of a (B, P) parameter batch each, and
    return a ``_mine_one`` result per sample. A row leaves the batch at its
    own step count, with the bits of its run alone."""
    spec, samples, cfg, first, params0 = task
    model = get_model(spec)
    selector = cfg.base_selector or model.base_selector
    n = len(samples)
    # The runs still training, by sample index, longest first: no pass gathers.
    rows = np.argsort([-s.length for s in samples], kind="stable")
    rngs = [stream_rng(cfg.seed, STREAM_MINE, first + i) for i in range(n)]
    params = params0.like(np.repeat(params0.vec[None], n, axis=0))
    final = params.vec.copy()
    last = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    grad_sum = np.zeros((n,) + param_block(params0, selector).shape)
    norm_sum = np.zeros(n)
    losses = [[] for _ in rows]
    limit = n  # a run that diverges ends every run above it
    error = None
    batch = pack([samples[i] for i in rows])
    while True:
        trace = model.forward(params, batch, [rngs[i] for i in rows])
        loss = trace.losses
        if cfg.record_history:
            for i, value in zip(rows, loss):
                losses[i].append(float(value))
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
        final[rows[stop]] = params.vec[stop]
        last[rows[stop]] = loss[stop]
        if not keep.any():
            break
        grads = model.backward(params, batch, trace)
        if not keep.all():  # drop finished runs, and the padding only they needed
            rows, grads = rows[keep], grads[keep]
            params = params.like(params.vec[keep])
            batch = pack([samples[i] for i in rows])
        grads = params.like(grads)
        if cfg.record_history:
            base_grads = param_block(grads, selector)
            grad_sum[rows] += base_grads
            norm_sum[rows] += [matrix_norm(g, cfg.norm_kind) for g in base_grads]
        params = sgd_step(params, grads, cfg.lr)
        steps[rows] += 1
    if error is not None:
        raise error

    out = []
    for i in range(n):
        p = params0.like(final[i])
        base = param_block(p, selector)
        norm = matrix_norm(base, cfg.norm_kind)
        history = None
        if cfg.record_history:
            history = HistoryRecord(
                base_final=base.copy(),
                grad_sum=grad_sum[i],
                norm_sum=float(norm_sum[i]),
                losses=losses[i],
            )
        emb = None
        if cfg.embed_diagnostic and hasattr(p, "w_emb"):
            emb = p.w_emb.copy()
        converged = bool(last[i] <= cfg.epsilon)
        out.append((first + i, norm, int(steps[i]), converged, history, emb))
    return out


def _mine_one(task):
    """One private run (spec, sample, cfg, index, init): one row of ``_mine_rows``."""
    spec, sample, cfg, index, params = task
    return _mine_rows((spec, [sample], cfg, index, params))[0]


def resolve_workers(n_workers=None):
    """Explicit argument, else the GRADMINE_WORKERS variable, else all
    cores; ``ConfigError`` for a count below 1."""
    name, value = "workers", n_workers
    if n_workers is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV)
        if not value:
            return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if workers < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")
    return workers


def mine_importance(dataset, spec, cfg, n_workers=None):
    """Run private training for every sample and build the table.

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
    _, norms, iterations, converged, histories, embeddings = zip(*outputs)
    norms = np.array(norms)
    probs = build_distribution(norms, smoothing=0.0).probs
    table = ImportanceTable(
        model=spec.kind,
        base_selector=selector,
        epsilon=cfg.epsilon,
        seed=cfg.seed,
        norm_kind=cfg.norm_kind,
        norms=norms,
        probs=probs,
        iterations=iterations,
        converged=converged,
    ).validate()

    spread = None
    if cfg.embed_diagnostic and all(e is not None for e in embeddings):
        dists = [
            frobenius_norm(a - b)
            for i, a in enumerate(embeddings)
            for b in embeddings[i + 1:]
        ]
        spread = float(np.mean(dists)) if dists else 0.0
    return MiningResult(
        table=table, init_params=params0,
        histories=list(histories) if cfg.record_history else None,
        embedding_spread=spread,
    )


def history_sum_check(final_base, init_base, history, lr, tol=1e-9):
    """Verify the recorded-run identities of the mined proxy.

    Checks that the final block equals the initialization minus the
    step-scaled gradient sum (within ``tol`` per entry) and that its norm
    obeys the triangle bound  ||final|| <= ||init|| + lr * sum ||g_t||.
    """
    if history is None:
        raise UnsupportedOperationError("mining ran without record_history")
    reconstructed = init_base - lr * history.grad_sum
    if np.max(np.abs(final_base - reconstructed)) > tol:
        return False
    lhs = frobenius_norm(final_base)
    rhs = frobenius_norm(init_base) + lr * history.norm_sum
    return lhs <= rhs + 1e-12 * (1.0 + rhs)


def build_distribution(norms, smoothing=0.0):
    """Sampling distribution proportional to (norm + smoothing * mean norm).

    ``smoothing`` = 0 reproduces the plain ratio of norms; larger values
    pull the distribution toward uniform and guarantee strictly positive
    probabilities when some norms are zero.
    """
    if not 0 <= smoothing < np.inf:  # also rejects NaN
        raise ConfigError(f"smoothing must be finite and >= 0, got {smoothing}")
    v = check_weights(norms, "norms")
    shifted = v + smoothing * v.mean()
    return build_alias(shifted / shifted.sum())


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
    # The constructor would cast 1.7 to 1 and "no" to True.
    its, conv = payload["iterations"], payload["converged"]
    if not (isinstance(its, list) and all(type(i) is int for i in its)):
        raise InvalidInputError("importance file: iterations must be integers")
    if not (isinstance(conv, list) and all(type(c) is bool for c in conv)):
        raise InvalidInputError("importance file: converged must be true/false")
    for k in ("model", "base_selector", "norm_kind"):
        if type(payload[k]) is not str:
            raise InvalidInputError(f"importance file: {k} must be a string")
    eps = payload["epsilon"]
    if type(eps) not in (int, float) or not 0 < eps < np.inf:
        raise InvalidInputError("importance file: epsilon must be a finite number > 0")
    if type(payload["seed"]) is not int:
        raise InvalidInputError("importance file: seed must be an integer")
    try:
        table = ImportanceTable(**{k: payload[k] for k in IMPORTANCE_KEYS})
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"importance file has a bad column: {exc}") from exc
    return table.validate()


@dataclass(eq=False)
class ImportanceMiner(ParamsMixin):
    """Fit-style interface to the miner: ``fit`` mines the dataset into
    the trailing-underscore attributes. Fields take the config's defaults,
    and the CLI's ``mine`` reads its defaults from these fields.
    """

    model: str = "rnn"
    epsilon: float = 0.01
    lr: float = FimConfig.lr
    t_max: int = FimConfig.t_max
    seed: int = FimConfig.seed
    base_selector: str = FimConfig.base_selector
    norm_kind: str = FimConfig.norm_kind
    n_workers: int = None
    record_history: bool = FimConfig.record_history
    embed_diagnostic: bool = FimConfig.embed_diagnostic
    embed_dim: int = ModelSpec.embed
    hidden: int = ModelSpec.hidden
    classes: int = ModelSpec.classes
    context: int = ModelSpec.context
    cd_k: int = ModelSpec.cd_k

    def fit(self, X, y=None):
        dataset = as_dataset(X)
        spec = spec_of(self, dataset)
        cfg = fim_config_of(self, self.epsilon, self.record_history)
        self.result_ = mine_importance(dataset, spec, cfg, n_workers=self.n_workers)
        self.spec_ = spec
        self.table_ = self.result_.table
        self.norms_ = self.table_.norms
        self.probs_ = self.table_.probs
        self.iterations_ = self.table_.iterations
        self.converged_ = self.table_.converged
        return self
