import inspect

import numpy as np
import pytest

from gradmine.data import FrameSequence, SequenceSample
from gradmine.models import MODEL_KINDS, ModelSpec, get_model, lstm, rnn, rnnrbm

MODULES = {"rnn": rnn, "lstm": lstm, "rnnrbm": rnnrbm}
PROTOCOL = ("BASE_SELECTOR", "layout", "init_params", "forward", "backward", "errors", "predict")


def spec_and_sample(kind):
    if kind == "rnnrbm":
        frames = np.random.default_rng(0).integers(0, 2, size=(4, 5))
        return ModelSpec(kind=kind, vocab=5, hidden=4, context=3), FrameSequence(frames)
    return (ModelSpec(kind=kind, vocab=6, embed=3, hidden=4),
            SequenceSample(tokens=[1, 2, 5], label=1))


def test_every_kind_has_a_module():
    assert set(MODULES) == set(MODEL_KINDS)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_module_exports_the_protocol(kind):
    module = MODULES[kind]
    missing = [name for name in PROTOCOL if not hasattr(module, name)]
    assert not missing
    assert module.BASE_SELECTOR == get_model(spec_and_sample(kind)[0]).base_selector


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("fn", ["forward", "backward"])
def test_sample_is_the_second_positional_parameter(kind, fn):
    # Span tracers read the sample as args[1].
    params = list(inspect.signature(getattr(MODULES[kind], fn)).parameters)
    assert params[:2] == ["params", "sample"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_model_calls_the_module_attribute_at_call_time(kind, monkeypatch):
    spec, sample = spec_and_sample(kind)
    model = get_model(spec)
    params = model.init_params(0)
    seen = []
    real = MODULES[kind].forward

    def spy(*args, **kwargs):
        seen.append((args[1], kwargs["k"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(MODULES[kind], "forward", spy)
    trace = model.forward(params, sample, rng=np.random.default_rng(0))
    assert seen == [(sample, spec.cd_k)]
    wrong, total = model.errors(trace, sample)
    assert 0 <= wrong <= total
