import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradmine.data import FrameSequence, SequenceSample, gen_pianoroll, gen_seqclass
from gradmine.errors import InvalidInputError
from gradmine.fim import FimConfig, mine_importance
from gradmine.models import (
    MODEL_KINDS,
    Model,
    ModelSpec,
    get_model,
    lstm,
    pack,
    rnn,
    rnnrbm,
    validate_dataset,
)
from gradmine.models import common
from gradmine.optimizer import TrainConfig, Trainer, train

from conftest import randomize
from oracles import per_sample_passes, tanh_backward_per_step, tanh_forward_per_step
from test_batched import random_samples, specs

MODULES = {"rnn": rnn, "lstm": lstm, "rnnrbm": rnnrbm}
PROTOCOL = ("BASE_SELECTOR", "layout", "init_params", "check_sample", "forward",
            "backward")
# Beyond the protocol, only the frame model's chain half-step, which its
# forward calls k times per pass, is public.
EXTRA = {"rnn": set(), "lstm": set(), "rnnrbm": {"gibbs_step"}}


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
def test_each_pass_has_one_implementation(kind):
    # The batched passes are the only ones: a module defines no public
    # function beyond the protocol, and ``Model`` no single-sample method.
    module = MODULES[kind]
    public = {name for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_")}
    assert public == set(PROTOCOL[1:]) | EXTRA[kind]
    methods = {name for name in dir(Model) if not name.startswith("_")}
    assert methods == {"module", "base_selector", "init_params", "forward", "backward"}


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("fn", ["forward", "backward"])
def test_sample_is_the_second_positional_parameter(kind, fn):
    # Span tracers read the packed samples as args[1].
    params = list(inspect.signature(getattr(MODULES[kind], fn)).parameters)
    assert params[:2] == ["params", "batch"]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_trace_fields_are_time_major_arrays(kind):
    # Every per-step field is one array over time after the batch axis, so
    # samples of several lengths pad along that axis; the per-sample
    # fields have the batch axis alone, or one of the head's width, as the
    # RNN's output distributions at a labelled sample's last step do.
    spec, sample = spec_and_sample(kind)
    model = get_model(spec)
    trace = model.forward(model.init_params(0), pack([sample]),
                          np.random.default_rng(0))
    t_len = len(sample.frames) if kind == "rnnrbm" else len(sample.tokens)
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        assert isinstance(value, np.ndarray) and value.shape[0] == 1, f.name
        if value.ndim == 3:
            assert value.shape[1] in (t_len, t_len + 1), f.name
        else:
            assert f.name in ("losses", "wrong", "total", "predictions",
                              "pooled", "probs", "ys"), f.name


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_model_calls_the_module_attribute_at_call_time(kind, monkeypatch):
    spec, sample = spec_and_sample(kind)
    model = get_model(spec)
    params = model.init_params(0)
    batch = pack([sample])
    seen = []
    real = MODULES[kind].forward

    def spy(*args, **kwargs):
        seen.append((args[1], kwargs["k"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(MODULES[kind], "forward", spy)
    trace = model.forward(params, batch, rng=np.random.default_rng(0))
    assert seen == [(batch, spec.cd_k)]
    assert 0 <= trace.wrong[0] <= trace.total[0]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_each_sample_is_checked_once_where_data_enters(kind, monkeypatch):
    # N = 5 training samples, E = 3 epochs, M = 2 held-out samples; the
    # private mining runs take several steps each, so any per-step check
    # would show.
    if kind == "rnnrbm":
        ds = gen_pianoroll(n=7, n_v=5, length_range=(3, 5), seed=0)
        dims = dict(hidden=4, context=3)
    else:
        ds = gen_seqclass(n=7, vocab=8, length_range=(4, 6), seed=0)
        dims = dict(embed=3, hidden=4)
    spec = ModelSpec(kind=kind, vocab=ds.vocab, **dims)
    samples, held = ds.samples[:5], ds.samples[5:]
    checked = []
    for module in MODULES.values():
        def counting(spec, sample, real=module.check_sample):
            checked.append(sample)
            return real(spec, sample)
        monkeypatch.setattr(module, "check_sample", counting)

    params0 = get_model(spec).init_params(0)
    train(samples, params0, [TrainConfig(spec=spec, lr=0.01, epochs=3)],
          eval_dataset=held)
    assert len(checked) == 5 + 2
    checked.clear()
    cfg = FimConfig(epsilon=1e-12, lr=0.01, t_max=4)
    table = mine_importance(samples, spec, cfg, n_workers=1)
    assert list(table.iterations) == [4] * 5
    assert len(checked) == 5


ids = st.integers(min_value=-3, max_value=10)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), vocab=st.integers(1, 7), classes=st.integers(1, 4))
@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_token_check_accepts_exactly_the_in_range_ids(kind, data, vocab, classes):
    spec = ModelSpec(kind=kind, vocab=vocab, classes=classes)
    tokens = data.draw(st.lists(ids, min_size=1, max_size=6))
    ok = all(0 <= t < vocab for t in tokens)
    if data.draw(st.booleans()):
        label = data.draw(ids)
        sample = SequenceSample(tokens=tokens, label=label)
        ok = ok and 0 <= label < (classes if kind == "lstm" else vocab)
    else:
        targets = data.draw(st.lists(ids, min_size=len(tokens), max_size=len(tokens)))
        sample = SequenceSample(tokens=tokens, targets=targets)
        # The LSTM head reads one class label, never per-step targets.
        ok = ok and kind == "rnn" and all(0 <= t < vocab for t in targets)
    if ok:
        validate_dataset(spec, [sample])
    else:
        with pytest.raises(InvalidInputError):
            validate_dataset(spec, [sample])
    with pytest.raises(InvalidInputError, match="frame sequence"):
        validate_dataset(spec, [FrameSequence(np.zeros((2, vocab)))])


@settings(deadline=None, max_examples=50)
@given(vocab=st.integers(1, 7), width=st.integers(1, 7), t_len=st.integers(1, 4))
def test_frame_check_accepts_exactly_the_model_width(vocab, width, t_len):
    spec = ModelSpec(kind="rnnrbm", vocab=vocab)
    sample = FrameSequence(np.zeros((t_len, width)))
    if width == vocab:
        validate_dataset(spec, [sample])
    else:
        with pytest.raises(InvalidInputError, match="frame width"):
            validate_dataset(spec, [sample])
    with pytest.raises(InvalidInputError, match="token sequence"):
        validate_dataset(spec, [SequenceSample(tokens=[0], label=0)])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_validate_dataset_names_the_failing_sample(kind):
    spec, good = spec_and_sample(kind)
    if kind == "rnnrbm":
        bad = SequenceSample(tokens=[0], label=0)
    else:
        bad = FrameSequence(np.zeros((2, 3)))
    assert validate_dataset(spec, iter([good, good])) == [good, good]
    with pytest.raises(InvalidInputError, match="sample 2: "):
        validate_dataset(spec, [good, good, bad, good])
    with pytest.raises(InvalidInputError, match="empty dataset"):
        validate_dataset(spec, [])


ENTRIES = {
    "validate_dataset": lambda spec, xs, fitted: validate_dataset(spec, xs),
    "train": lambda spec, xs, fitted: train(
        xs, get_model(spec).init_params(0), [TrainConfig(spec=spec, lr=0.1, epochs=1)]),
    "mine_importance": lambda spec, xs, fitted: mine_importance(
        xs, spec, FimConfig(epsilon=0.1, lr=0.1, t_max=2), n_workers=1),
    "predict": lambda spec, xs, fitted: fitted.predict(xs),
    "score": lambda spec, xs, fitted: fitted.score(xs),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_mixed_list_is_rejected_at_the_model_boundary(entry):
    # Every entry to the passes runs ``validate_dataset``, so none of them
    # takes a list of labelled and per-step target samples.
    spec = ModelSpec(kind="rnn", vocab=5, embed=2, hidden=3)
    labelled = SequenceSample(tokens=[1, 2], label=1)
    fitted = Trainer(model="rnn", lr=0.1, epochs=1, embed_dim=2, hidden=3)
    fitted.fit([labelled] * 2)
    mixed = [labelled, SequenceSample(tokens=[2], targets=[0])]
    with pytest.raises(InvalidInputError, match="sample 1: mixed sample kinds"):
        ENTRIES[entry](spec, mixed, fitted)


@settings(deadline=None, max_examples=100)
@given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=4),
       hidden=st.just(1) | st.integers(1, 5), width=st.integers(1, 4),
       per_row=st.booleans(), budget=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@example(lengths=[30, 7], hidden=1, width=1, per_row=True, budget=1, seed=0)
def test_tanh_backward_equals_its_per_step_sums_across_chunks(
        lengths, hidden, width, per_row, budget, seed):
    # A budget of a few hundred elements cuts the sums over time into
    # chunks of one step up to the whole length, so chunk boundaries fall
    # at every place; rows shorter than the longest are padded, with zero
    # inputs, as a packed batch pads them.
    rng = np.random.default_rng(seed)
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    n, t_len = mask.shape
    w_rec = rng.normal(size=(n, hidden, hidden) if per_row else (hidden, hidden))
    states = np.tanh(rng.normal(size=(n, t_len + 1, hidden)))
    inputs = rng.normal(size=(n, t_len, width)) * mask[..., None]
    ext = rng.normal(size=(n, t_len, hidden)) * mask[..., None]
    expected = tanh_backward_per_step(w_rec, states, inputs, ext, mask)
    with mock.patch.object(common, "CHUNK_ELEMENTS", budget):
        got = common.tanh_backward(w_rec, states, inputs, ext, mask)
    for name, a, b in zip(("W", "V", "b", "das", "carry"), got, expected):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@settings(deadline=None, max_examples=150)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       hidden=st.just(1) | st.integers(1, 6), per_row=st.booleans(),
       bias_first=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(lengths=[1, 5], hidden=1, per_row=False, bias_first=True, seed=0)
def test_tanh_forward_equals_the_batch_major_step_loop(
        lengths, hidden, per_row, bias_first, seed):
    # The RNN adds its per-step input term first and its bias second; the
    # frame model adds its bias first. Rows shorter than the longest are
    # padded with zero terms, as a packed batch of frames pads them.
    rng = np.random.default_rng(seed)
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    n, t_len = mask.shape
    rows = (n,) if per_row else ()
    w_rec = rng.normal(size=(*rows, hidden, hidden))
    s0, bias = rng.normal(size=(2, *rows, hidden))
    terms = rng.normal(size=(n, t_len, hidden)) * mask[..., None]
    addends = (bias, terms) if bias_first else (terms, bias)
    expected = tanh_forward_per_step(w_rec, s0, *addends)
    got = common.tanh_forward(w_rec, s0, *(
        a.swapaxes(0, 1)[..., None] if a.ndim == 3 else a[..., None] for a in addends))
    assert got.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["rnn", "rnnrbm"]), dims=specs,
       lengths=st.lists(st.integers(1, 30), min_size=1, max_size=3),
       budget=st.integers(1, 300) | st.just(common.CHUNK_ELEMENTS),
       seed=st.integers(0, 2**32 - 1))
# One frame sequence at width 1 and 30 frames: the weight block's sum has one
# entry a row, so time is its innermost axis, where np.add.reduce would add
# pairwise; np.subtract.reduce keeps the bits there.
@example(kind="rnnrbm", dims=dict(vocab=1, embed=1, hidden=1, classes=1,
                                  context=1, cd_k=1),
         lengths=[30], budget=common.CHUNK_ELEMENTS, seed=0)
# Per-step targets at width 1, where the head's products over a strided
# view of time-major states changed bits in the head and in w_s.
@example(kind="rnn", dims=dict(vocab=4, embed=1, hidden=1, classes=1, context=1, cd_k=1),
         lengths=[1, 2], budget=common.CHUNK_ELEMENTS, seed=1)
@example(kind="rnn", dims=dict(vocab=2, embed=1, hidden=1, classes=1, context=1, cd_k=1),
         lengths=[1, 4], budget=common.CHUNK_ELEMENTS, seed=3)
def test_recurrent_gradients_equal_the_per_sample_loop_across_chunks(
        kind, dims, lengths, budget, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind=kind, **dims)
    model = get_model(spec)
    params = randomize(model.init_params(0), rng, scale=0.8)
    samples = random_samples(kind, spec, lengths, rng)
    expected = per_sample_passes(model, params, samples, np.random.default_rng(seed))[-1]
    batch = pack(samples)
    with mock.patch.object(common, "CHUNK_ELEMENTS", budget):
        trace = model.forward(params, batch, np.random.default_rng(seed))
        got = model.backward(params, batch, trace)
    assert got.tobytes() == expected.tobytes()
