"""Model registry: one protocol over the three model modules.

Each module exports ``BASE_SELECTOR``, ``layout(spec)`` (the ``(name,
shape)`` blocks of its ``Params``), ``init_params(spec, seed)``,
``check_sample(spec, sample)``, ``forward(params, sample, rng=None, k=1)``,
``backward(params, sample, trace)``, ``errors(trace, sample)`` and
``predict(trace)``. Parameters travel explicitly through every call, so
concurrent workers can hold private copies without locks. Only the frame
model draws from ``rng``. ``validate_dataset`` checks each sample once
where data enters; the loops then call the unchecked module functions.
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
    grad_norm,
    param_block,
    param_blocks,
    stream_rng,
)
from ..errors import InvalidInputError

_MODULES = {RNN: rnn, LSTM: lstm, RNNRBM: rnnrbm}


@dataclass(frozen=True)
class Model:
    """A spec bound to its model module. Every call looks the module
    function up afresh, so one replaced at its module attribute (a tracer,
    a test double) is the one that runs. ``forward`` and ``backward`` run
    ``check_sample`` first; the ``*_unchecked`` pair does not."""

    spec: ModelSpec

    @property
    def module(self):
        return _MODULES[self.spec.kind]

    @property
    def base_selector(self):
        return self.module.BASE_SELECTOR

    def init_params(self, seed):
        return self.module.init_params(self.spec, seed)

    def forward(self, params, sample, rng=None):
        self.module.check_sample(self.spec, sample)
        return self.forward_unchecked(params, sample, rng)

    def backward(self, params, sample, trace):
        self.module.check_sample(self.spec, sample)
        return self.backward_unchecked(params, sample, trace)

    def forward_unchecked(self, params, sample, rng=None):
        """``forward`` of a sample that ``validate_dataset`` has passed."""
        return self.module.forward(params, sample, rng=rng, k=self.spec.cd_k)

    def backward_unchecked(self, params, sample, trace):
        """``backward`` of a sample that ``validate_dataset`` has passed."""
        return self.module.backward(params, sample, trace)

    def loss(self, params, sample, rng=None):
        return self.forward(params, sample, rng=rng).loss

    def errors(self, trace, sample):
        return self.module.errors(trace, sample)

    def predict(self, trace):
        return self.module.predict(trace)


def get_model(spec):
    """The model protocol for a spec (whose kind ``ModelSpec`` validated)."""
    return Model(spec)


def spec_for_dataset(dataset, kind, **dims):
    """Build a spec whose symbol space matches the dataset."""
    return ModelSpec(kind=kind, vocab=dataset.vocab, **dims)


def spec_of(settings, dataset):
    """Spec for ``dataset`` from the model settings of parsed CLI arguments
    or an estimator: ``model``, ``embed_dim``, ``hidden``, ``classes``,
    ``context`` and ``cd_k``."""
    return spec_for_dataset(
        dataset,
        settings.model,
        embed=settings.embed_dim,
        hidden=settings.hidden,
        classes=settings.classes,
        context=settings.context,
        cd_k=settings.cd_k,
    )


def validate_dataset(spec, samples, noun="sample"):
    """``samples`` as a non-empty list, each passed by the model's
    ``check_sample``; the error names the first sample that fails as
    ``{noun} {index}``."""
    samples = list(samples)
    if not samples:
        raise InvalidInputError("empty dataset")
    for i, sample in enumerate(samples):
        try:
            _MODULES[spec.kind].check_sample(spec, sample)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{noun} {i}: {exc}") from None
    return samples
