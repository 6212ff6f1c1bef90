"""The batched passes against the single-sample passes of the oracles:
every loss, error count, prediction, gradient bit and random draw must
agree with ``oracles.per_sample_passes``, and a training run, whose steps
run one-row batches, with ``oracles.train_scalar``."""

from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradmine import optimizer
from gradmine.data import FrameSequence, SequenceSample, gen_pianoroll, gen_seqclass
from gradmine.errors import DivergenceError
from gradmine.fim import ImportanceTable
from gradmine.models import (
    MODEL_KINDS,
    STREAM_EVAL,
    STREAM_MODEL,
    ModelSpec,
    Params,
    get_model,
    pack,
    stream_rng,
)

from conftest import OneSample, randomize
from oracles import (
    cd_surrogate_loss,
    evaluate_per_sample,
    finite_diff_grads,
    max_fd_violation,
    per_sample_passes,
    train_scalar,
)


def random_samples(kind, spec, lengths, rng):
    """One sample per length, all of one kind: an RNN list takes labels or
    per-step targets, drawn once per list."""
    out = []
    targets = kind == "rnn" and rng.random() < 0.5
    for n in lengths:
        if kind == "rnnrbm":
            out.append(FrameSequence((rng.random((n, spec.vocab)) < 0.5) * 1.0))
            continue
        tokens = rng.integers(0, spec.vocab, n)
        if targets:
            out.append(SequenceSample(tokens, targets=rng.integers(0, spec.vocab, n)))
        else:
            top = spec.classes if kind == "lstm" else spec.vocab
            out.append(SequenceSample(tokens, label=int(rng.integers(0, top))))
    return out


def assert_same_bits(batched, expected):
    assert np.asarray(batched).tobytes() == np.asarray(expected).tobytes()


# Width 1 often: BLAS takes a vector path for a matrix with one row or
# column, whose sums over time are grouped differently.
widths = st.just(1) | st.integers(1, 12)
specs = st.builds(dict, vocab=widths, embed=widths, hidden=widths,
                  classes=st.integers(1, 3), context=widths, cd_k=st.integers(1, 3))


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(MODEL_KINDS), dims=specs,
       lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       equal=st.booleans(), seed=st.integers(0, 2**32 - 1))
# One-step LSTM samples beside longer ones, whose input product a padded
# matrix product would round differently.
@example(kind="lstm", dims=dict(vocab=5, embed=12, hidden=11, classes=2,
                                context=1, cd_k=1),
         lengths=[2, 1, 1, 10], equal=False, seed=0)
# Hidden width 1 and a longer sample first: the per-sample ``u`` gradient
# product must take each sample's states as a contiguous matrix.
@example(kind="lstm", dims=dict(vocab=1, embed=1, hidden=1, classes=2,
                                context=1, cd_k=1),
         lengths=[1, 2], equal=False, seed=0)
# Hidden width 1 and two equal lengths of at least 8: a mean over time taken
# for the pair at once rounds differently from each sample's own, so the
# pooling's mean stays per sample.
@example(kind="lstm", dims=dict(vocab=1, embed=1, hidden=1, classes=2,
                                context=1, cd_k=1),
         lengths=[8, 8], equal=False, seed=1)
def test_batched_passes_equal_the_per_sample_loop(kind, dims, lengths, equal, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind=kind, **dims)
    model = get_model(spec)
    params = randomize(model.init_params(0), rng, scale=0.8)
    if equal:
        lengths = [lengths[0]] * len(lengths)
    samples = random_samples(kind, spec, lengths, rng)

    draws, oracle_draws = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = pack(samples)
    trace = model.forward(params, batch, draws)
    grads = model.backward(params, batch, trace)
    losses, wrong, total, predictions, oracle_grads = per_sample_passes(
        model, params, samples, oracle_draws)

    assert_same_bits(trace.losses, losses)
    assert trace.wrong.tolist() == wrong
    assert trace.total.tolist() == total
    assert trace.predictions.tolist() == predictions
    assert_same_bits(grads, oracle_grads)
    assert draws.bit_generator.state == oracle_draws.bit_generator.state


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(MODEL_KINDS), dims=specs,
       lengths=st.lists(st.integers(1, 12), min_size=2, max_size=6),
       per_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(kind="lstm", dims=dict(vocab=5, embed=3, hidden=4, classes=3,
                                context=1, cd_k=1),
         lengths=[3, 9, 1, 9, 4], per_row=True, seed=1)
def test_permuting_the_samples_permutes_every_output(kind, dims, lengths, per_row,
                                                     seed):
    """Rows are independent of their place in the batch: with shared or
    per-row parameters, and each sample's own generator, a permuted batch
    gives the permuted losses, counts, predictions and gradient rows, and,
    but for the LSTM's states, the permuted trace."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind=kind, **dims)
    model = get_model(spec)
    n = len(lengths)
    perm = rng.permutation(n)
    samples = random_samples(kind, spec, lengths, rng)
    params = randomize(model.init_params(0), rng, scale=0.8)
    if per_row:
        params = params.like(rng.normal(0.0, 0.8, (n, params.vec.size)))

    def passes(order):
        rows = params.like(params.vec[order]) if per_row else params
        draws = [np.random.default_rng([seed, int(i)]) for i in order]
        batch = pack([samples[i] for i in order])
        trace = model.forward(rows, batch, draws)
        return trace, model.backward(rows, batch, trace)

    trace, grads = passes(np.arange(n))
    moved, moved_grads = passes(perm)
    for name in ("losses", "wrong", "total"):
        assert_same_bits(getattr(moved, name), getattr(trace, name)[perm])
    assert moved.predictions.tolist() == trace.predictions[perm].tolist()
    assert_same_bits(moved_grads, grads[perm])
    if kind != "lstm":  # the LSTM keeps its states longest first
        for field in fields(trace):
            if field.name != "predictions":  # None for the frame model
                assert_same_bits(getattr(moved, field.name),
                                 getattr(trace, field.name)[perm])


def test_pack_pads_at_the_end_of_time():
    labelled = pack([SequenceSample([3, 1, 2], label=1), SequenceSample([4], label=0)])
    assert labelled.lengths.tolist() == [3, 1]
    assert labelled.mask.tolist() == [[True] * 3, [True, False, False]]
    assert labelled.tokens.tolist() == [[3, 1, 2], [4, 0, 0]]
    assert labelled.labels.tolist() == [1, 0] and labelled.targets is None
    tagged = pack([SequenceSample([4], targets=[2]),
                   SequenceSample([3, 1, 2], targets=[1, 1, 3])])
    assert tagged.tokens.tolist() == [[4, 0, 0], [3, 1, 2]]
    assert tagged.targets.tolist() == [[2, 0, 0], [1, 1, 3]] and tagged.labels is None
    frames = pack([FrameSequence([[1, 0]]), FrameSequence([[0, 1], [1, 1]])])
    assert frames.frames.tolist() == [[[1, 0], [0, 0]], [[0, 1], [1, 1]]]


def test_a_gradient_matrix_is_params_rows():
    spec = ModelSpec(kind="lstm", vocab=5, embed=2, hidden=3)
    layout = get_model(spec).init_params(0).layout
    rows = np.random.default_rng(0).normal(size=(4, Params(layout).vec.size))
    batched = Params(layout, rows)
    for b in range(4):
        single = Params(layout, rows[b])
        for name, _ in layout:
            assert_same_bits(getattr(batched, name)[b], getattr(single, name))
        assert_same_bits(batched.span("w_z", "w_o")[b], single.span("w_z", "w_o"))


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_batched_gradient_rows_match_finite_differences(kind):
    rng = np.random.default_rng(7)
    spec = ModelSpec(kind=kind, vocab=5, embed=3, hidden=4, classes=3)
    model, one = get_model(spec), OneSample(spec)
    params = randomize(model.init_params(0), rng)
    samples = random_samples(kind, spec, [4, 1, 6, 3], rng)
    batch = pack(samples)
    grads = model.backward(params, batch, model.forward(params, batch))
    for b in (0, 1, 2):
        numeric = finite_diff_grads(lambda p: one.loss(p, samples[b]), params)
        assert max_fd_violation(params.like(grads[b]), numeric) < 1e-4


def test_batched_rnnrbm_rows_match_the_cd_surrogate():
    # The conditioning blocks are exact gradients of the contrastive
    # surrogate at the batch's own chain ends.
    rng = np.random.default_rng(3)
    spec = ModelSpec(kind="rnnrbm", vocab=5, hidden=4, context=3)
    model = get_model(spec)
    params = randomize(model.init_params(0), rng)
    samples = random_samples("rnnrbm", spec, [3, 5, 1], rng)
    batch = pack(samples)
    trace = model.forward(params, batch, np.random.default_rng(0))
    grads = model.backward(params, batch, trace)
    for b, sample in enumerate(samples):
        size = sample.length
        frozen = SimpleNamespace(**{
            name: getattr(trace, name)[b, :size]
            for name in ("v_star", "h_pos", "h_neg")})
        numeric = finite_diff_grads(
            lambda p: cd_surrogate_loss(p, sample, frozen), params)
        assert max_fd_violation(params.like(grads[b]), numeric) < 1e-4


def fitted(kind, seed=1):
    if kind == "rnnrbm":
        ds = gen_pianoroll(n=6, n_v=6, length_range=(3, 7), seed=2)
        t = optimizer.Trainer(model=kind, lr=0.01, epochs=1, seed=seed,
                              hidden=4, context=3)
    else:  # with a one-step sample
        ds = list(gen_seqclass(n=9, vocab=8, length_range=(2, 7), seed=3))
        ds.append(SequenceSample([5], label=1))
        t = optimizer.Trainer(model=kind, lr=0.3, epochs=2, seed=seed,
                              embed_dim=4, hidden=5)
    t.fit(ds)
    return t, list(ds)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_predict_and_score_equal_the_per_sample_loop(kind):
    t, samples = fitted(kind)
    _, wrong, total, predictions, _ = per_sample_passes(
        get_model(t.spec_), t.params_, samples, stream_rng(t.seed, STREAM_EVAL))
    assert t.predict(samples).tolist() == predictions
    assert t.score(samples) == 1.0 - sum(wrong) / sum(total)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_evaluate_equals_the_per_sample_loop(kind):
    t, samples = fitted(kind)
    model = get_model(t.spec_)
    probs = np.random.default_rng(0).dirichlet(np.ones(len(samples)))
    got = optimizer._evaluate(model, t.params_, pack(samples), probs, 4, t.seed)
    expected = evaluate_per_sample(model, t.params_, samples, probs,
                                   stream_rng(t.seed, STREAM_EVAL, 4))
    assert_same_bits(got, expected)


def outcome(params, log, model_rng):
    """Final parameter bits, every metrics field but ``wall_ms``, and the
    end state of the model-stream generator."""
    rows = [(r.epoch, r.split, *(np.float64(v).tobytes()
                                 for v in (r.loss, r.error_rate, r.grad_var)))
            for r in log.rows]
    return params.vec.tobytes(), rows, model_rng.bit_generator.state


def scalar_outcomes(samples, starts, cfgs, held):
    """``train_scalar`` over ``cfgs`` in turn, each from its own start
    ``Params``: every run's outcome, or the first divergence message."""
    try:
        return [outcome(*train_scalar(samples, params0, cfg, held))
                for params0, cfg in zip(starts, cfgs)]
    except DivergenceError as exc:
        return str(exc)


def library_outcomes(samples, params0, cfgs, held):
    """One lockstep ``optimizer.train`` call over ``cfgs``, from shared or
    per-row ``params0``: every run's outcome, with the generator each drew
    its model stream from, or the divergence message."""
    made = []

    def recording(seed, stream, extra=None):
        made.append((stream, stream_rng(seed, stream, extra)))
        return made[-1][1]

    try:
        with mock.patch.object(optimizer, "stream_rng", recording):
            results = optimizer.train(samples, params0, cfgs, eval_dataset=held)
    except DivergenceError as exc:
        return str(exc)
    model_rngs = [gen for stream, gen in made if stream == STREAM_MODEL]
    assert len(model_rngs) == len(cfgs)
    return [outcome(p, log, gen) for (p, log), gen in zip(results, model_rngs)]


train_specs = st.builds(dict, vocab=widths, embed=widths, hidden=widths,
                        classes=st.integers(1, 3), context=widths,
                        cd_k=st.sampled_from([1, 3]))
# One lockstep row each: lr 3.0 makes some runs diverge.
runs = st.lists(st.fixed_dictionaries(dict(
    importance=st.booleans(), clip=st.sampled_from([None, 1.5]),
    lr=st.sampled_from([0.05, 0.5, 3.0]), seed=st.integers(0, 999))),
    min_size=1, max_size=3)


def run(importance=False, clip=None, lr=0.5, seed=0):
    return dict(importance=importance, clip=clip, lr=lr, seed=seed)


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(MODEL_KINDS), dims=train_specs,
       lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       held_lengths=st.lists(st.integers(1, 12), max_size=3), runs=runs,
       epochs=st.integers(1, 3), eval_every=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@example(kind="rnnrbm", dims=dict(vocab=1, embed=1, hidden=1, classes=1,
                                  context=1, cd_k=3),
         lengths=[3, 1, 12], held_lengths=[2, 5],
         runs=[run(importance=True, clip=1.5, seed=3)],
         epochs=2, eval_every=1, seed=3)
@example(kind="lstm", dims=dict(vocab=5, embed=12, hidden=11, classes=2,
                                context=1, cd_k=1),
         lengths=[2, 1, 1, 10], held_lengths=[1], runs=[run()],
         epochs=2, eval_every=1, seed=0)
# Run 1 diverges at epoch 1, step 2, before run 0 does at epoch 2, step 1:
# the message is run 0's, as running them in turn would raise.
@example(kind="rnnrbm", dims=dict(vocab=2, embed=3, hidden=2, classes=2,
                                  context=3, cd_k=1),
         lengths=[4, 7, 5], held_lengths=[1],
         runs=[run(importance=True, lr=3.0, seed=883),
               run(importance=True, lr=3.0, seed=370)],
         epochs=3, eval_every=1, seed=10)
# Only run 1 diverges, and only in its epoch-2 evaluation.
@example(kind="rnnrbm", dims=dict(vocab=1, embed=3, hidden=1, classes=2,
                                  context=3, cd_k=1),
         lengths=[4, 2], held_lengths=[2, 5],
         runs=[run(seed=384), run(lr=3.0, seed=106)],
         epochs=3, eval_every=1, seed=6)
def test_train_equals_the_scalar_loop(kind, dims, lengths, held_lengths, runs,
                                      epochs, eval_every, seed):
    """One lockstep call over the drawn runs, each from its own start row,
    equals ``train_scalar`` over them in turn, or raises the divergence
    message that loop raises first."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind=kind, **dims)
    samples = random_samples(kind, spec, lengths, rng)
    held = random_samples(kind, spec, held_lengths, rng) or None
    starts = [randomize(get_model(spec).init_params(0), rng) for _ in runs]
    n = len(samples)
    cfgs = []
    for r in runs:
        table = None
        if r["importance"]:
            norms = rng.random(n) + 0.01
            table = ImportanceTable(
                model=kind, base_selector=get_model(spec).base_selector,
                epsilon=1.0, seed=0,
                norm_kind="frobenius", norms=norms, probs=norms / norms.sum(),
                iterations=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool))
        cfgs.append(optimizer.TrainConfig(
            spec=spec, lr=r["lr"], epochs=epochs,
            sampler=optimizer.IMPORTANCE if table else optimizer.UNIFORM,
            importance=table, seed=r["seed"], eval_every=eval_every,
            clip=r["clip"] if table else None))
    with np.errstate(all="ignore"):
        expected = scalar_outcomes(samples, starts, cfgs, held)
    params0 = starts[0].like(np.stack([start.vec for start in starts]))
    assert library_outcomes(samples, params0, cfgs, held) == expected
