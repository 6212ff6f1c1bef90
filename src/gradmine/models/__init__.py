"""Model registry: one protocol over the three model modules.

Each module exports ``BASE_SELECTOR``, ``layout(spec)`` (the ``(name,
shape)`` blocks of its ``Params``), ``init_params(spec, seed)``,
``check_sample(spec, sample)`` (the ranges of a sample of a kind the model
reads) and one implementation of each pass, over a ``pack``ed batch at one
shared ``Params`` or one row each of a (B, P) one: ``forward(params, batch,
rng=None, k=1)``, whose trace holds per-sample ``losses``, ``wrong``,
``total`` and ``predictions``, and ``backward(params, batch, trace)``, the
(B, P) matrix of per-sample gradients. Each sample's row has the bits it
has in a batch of its own, which a one-sample batch,
``pack(validate_dataset(spec, [sample]))``, gives. Only the frame model
draws from ``rng``: each sample takes its draws from its own generator,
given one per row, or in turn from one shared generator, so either ends as
if each sample had drawn alone. Every field of a trace, as of a ``Batch``,
is None or has B as its leading axis, in the batch's row order but for the
LSTM's states (longest first). Parameters travel explicitly through every
call, so concurrent workers can hold private copies without locks.
``spec_of`` is the one spec builder. ``validate_dataset`` checks each
sample once where data enters, so every batch holds one kind of sample,
one the model reads; the passes check nothing per sample.
"""

from dataclasses import dataclass

from . import lstm, rnn, rnnrbm
from .common import (
    LSTM,
    MODEL_KINDS,
    RNN,
    RNNRBM,
    STREAM_DRAW,
    STREAM_EVAL,
    STREAM_INIT,
    STREAM_MINE,
    STREAM_MODEL,
    ModelSpec,
    Params,
    pack,
    param_block,
    stream_rng,
)
from ..base import config_of
from ..data import PIANOROLL, SEQCLASS, SEQLABEL, sample_kind
from ..errors import InvalidInputError

_MODULES = {RNN: rnn, LSTM: lstm, RNNRBM: rnnrbm}
# The sample kinds each model reads, and what a misfit error calls each.
_READS = {RNN: (SEQCLASS, SEQLABEL), LSTM: (SEQCLASS,), RNNRBM: (PIANOROLL,)}
_NOUNS = {SEQCLASS: "token sequence", PIANOROLL: "frame sequence",
          SEQLABEL: "token sequence with per-step targets"}


@dataclass(frozen=True)
class Model:
    """A spec bound to its model module. Every call looks the module
    function up afresh, so one replaced at its module attribute (a tracer,
    a test double) is the one that runs."""

    spec: ModelSpec

    @property
    def module(self):
        return _MODULES[self.spec.kind]

    @property
    def base_selector(self):
        return self.module.BASE_SELECTOR

    def init_params(self, seed):
        return self.module.init_params(self.spec, seed)

    def forward(self, params, batch, rng=None):
        """The trace of every sample of a ``pack``ed batch that
        ``validate_dataset`` has passed, at shared or per-row ``params``."""
        return self.module.forward(params, batch, rng=rng, k=self.spec.cd_k)

    def backward(self, params, batch, trace):
        """The (B, P) per-sample gradients of a ``forward`` trace."""
        return self.module.backward(params, batch, trace)


def get_model(spec):
    """The model protocol for a spec (whose kind ``ModelSpec`` validated)."""
    return Model(spec)


def spec_of(settings, dataset):
    """Spec for ``dataset``, whose ``vocab`` it takes, from the model
    settings of parsed CLI arguments or an estimator (``model`` and
    ``embed_dim`` feed ``kind`` and ``embed``)."""
    return config_of(ModelSpec, settings, kind=settings.model, vocab=dataset.vocab,
                     embed=settings.embed_dim)


def validate_dataset(spec, samples, noun="sample"):
    """``samples`` as a non-empty list of one kind (``data.sample_kind``)
    that the model reads, each passed by the model's ``check_sample``; the
    error names the first sample that fails as ``{noun} {index}``."""
    samples = list(samples)
    if not samples:
        raise InvalidInputError("empty dataset")
    kind = None
    for i, sample in enumerate(samples):
        try:
            kind = sample_kind(sample, kind)
            if kind not in _READS[spec.kind]:
                raise InvalidInputError(
                    f"a {_NOUNS[kind]} does not fit model kind {spec.kind!r}")
            _MODULES[spec.kind].check_sample(spec, sample)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{noun} {i}: {exc}") from None
    return samples
