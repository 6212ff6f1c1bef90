"""Lockstep mining against the scalar oracle: every private run, trained
as one row of a parameter batch, must give the table and the divergence
error of ``oracles.mine_one_scalar`` run one sample at a time, bit for bit,
at any worker count."""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradmine import fim
from gradmine.data import gen_pianoroll, gen_seqclass
from gradmine.errors import DivergenceError
from gradmine.fim import FimConfig, mine_importance
from gradmine.models import MODEL_KINDS, ModelSpec, get_model, lstm, pack

from conftest import cores
from oracles import mine_rows_scalar
from test_batched import random_samples


def mine_or_error(samples, spec, cfg, workers):
    try:
        with cores(workers):
            return mine_importance(samples, spec, cfg, n_workers=workers)
    except DivergenceError as exc:
        return str(exc)


def oracle(samples, spec, cfg):
    with mock.patch.object(fim, "_mine_rows", mine_rows_scalar):
        return mine_or_error(samples, spec, cfg, 1)


def bits(x):
    return np.asarray(x).tobytes()


def assert_same_mining(got, expected):
    if isinstance(expected, str):  # both runs diverged, on the same sample
        assert got == expected
        return
    assert not isinstance(got, str), got
    for column in ("norms", "probs", "iterations", "converged"):
        assert bits(getattr(got, column)) == bits(getattr(expected, column))


widths = st.just(1) | st.integers(1, 12)
specs = st.builds(dict, vocab=widths, embed=widths, hidden=widths,
                  classes=st.integers(1, 3), context=widths,
                  cd_k=st.sampled_from([1, 3]))


@settings(deadline=None, max_examples=120)
@given(kind=st.sampled_from(MODEL_KINDS), dims=specs,
       lengths=st.lists(st.integers(1, 10), min_size=1, max_size=5),
       epsilon=st.sampled_from([1e-12, 0.05, 0.3, 1e9]),
       lr=st.sampled_from([0.05, 0.5, 3.0]), t_max=st.integers(1, 40),
       norm_kind=st.sampled_from(["frobenius", "spectral"]),
       workers=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
# A one-step LSTM sample beside longer ones: its input product must be
# taken as a vector times its own matrix, not as a row of a padded product.
@example(kind="lstm", dims=dict(vocab=5, embed=12, hidden=11, classes=2,
                                context=1, cd_k=1),
         lengths=[2, 1, 1, 10], epsilon=1e-12, lr=0.5, t_max=3,
         norm_kind="frobenius", workers=1, seed=871)
# Lengths shortest first: the miner sorts them longest first and must still
# key every output and generator by sample index.
@example(kind="lstm", dims=dict(vocab=5, embed=3, hidden=4, classes=2,
                                context=1, cd_k=1),
         lengths=[1, 3, 10, 2], epsilon=1e-12, lr=0.5, t_max=4,
         norm_kind="frobenius", workers=2, seed=3)
def test_lockstep_mining_equals_the_scalar_loop(
        kind, dims, lengths, epsilon, lr, t_max, norm_kind, workers, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(kind=kind, **dims)
    samples = random_samples(kind, spec, lengths, rng)
    cfg = FimConfig(epsilon=epsilon, lr=lr, t_max=t_max, seed=seed % 1000,
                    norm_kind=norm_kind)
    with np.errstate(all="ignore"):
        expected = oracle(samples, spec, cfg)
        got = mine_or_error(samples, spec, cfg, workers)
    assert_same_mining(got, expected)


def rbm_case(lr, seed=0):
    samples = list(gen_pianoroll(n=6, n_v=6, length_range=(3, 5), seed=3))
    spec = ModelSpec(kind="rnnrbm", vocab=6, hidden=4, context=3)
    return samples, spec, FimConfig(epsilon=0.01, lr=lr, t_max=50, seed=seed)


def token_case(kind):
    samples = list(gen_seqclass(n=6, vocab=8, length_range=(4, 8), seed=6))
    spec = ModelSpec(kind=kind, vocab=8, embed=4, hidden=5)
    return samples, spec, FimConfig(epsilon=0.001, lr=1e300, t_max=50)


# Each case's first diverging sample, as the scalar loop reports it.
DIVERGING = {
    # sample 1 diverges at step 36 while sample 0 runs all 50 steps
    "late-run-above-a-finished-one": (rbm_case(1.0), "sample 1 at step 36"),
    # sample 1 diverges at step 2, before sample 0 does at step 4
    "higher-run-first": (rbm_case(3.0), "sample 0 at step 4"),
    # only sample 4, in the second of two shards, diverges
    "in-the-second-shard": (rbm_case(1.0, seed=7), "sample 4 at step 13"),
    # samples 4 and 5 diverge at step 3, sample 0 only at step 23
    "second-shard-first": (rbm_case(1.5, seed=5), "sample 0 at step 23"),
    # sample 0 (length 4) diverges at step 11, after sample 1 (length 5),
    # which the longest-first batch runs ahead of it, at step 2
    "shorter-lower-run-after-a-longer-one": (rbm_case(3.0, seed=8),
                                             "sample 0 at step 11"),
    # samples 0 (length 4) and 1 (length 5) diverge together at step 10,
    # where sample 1 leads the longest-first batch; samples 2, 4 and 5
    # diverged at steps 3-4
    "shorter-lower-run-beside-a-longer-one": (rbm_case(2.0, seed=0),
                                              "sample 0 at step 10"),
    # a NaN loss ends a run without a step in the message
    "nan-rnn": (token_case("rnn"), "sample 0"),
    "nan-lstm": (token_case("lstm"), "sample 0"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_divergence_names_the_sample_the_scalar_loop_names(case, workers):
    (samples, spec, cfg), where = DIVERGING[case]
    with np.errstate(all="ignore"):
        expected = oracle(samples, spec, cfg)
        got = mine_or_error(samples, spec, cfg, workers)
    assert expected == f"private training diverged on {where}"
    assert got == expected


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_batched_field_is_batch_major(kind):
    # Code that reads one sample of a Batch or a batched trace indexes every
    # field by row, so each must be None or lead with B.
    spec = ModelSpec(kind=kind, vocab=5, embed=4, hidden=6, classes=2, context=7)
    samples = random_samples(kind, spec, [2, 5, 1], np.random.default_rng(0))
    model = get_model(spec)
    params = model.init_params(0)
    params = params.like(np.repeat(params.vec[None], 3, axis=0))
    rngs = [np.random.default_rng(i) for i in range(3)]
    batch = pack(samples)
    trace = model.forward(params, batch, rngs)
    for obj in (batch, trace):
        for field in fields(obj):
            value = getattr(obj, field.name)
            assert value is None or value.shape[0] == 3, field.name


def test_mining_batches_arrive_longest_first():
    # The miner sorts its rows once, so no pass has to gather them.
    samples = list(gen_seqclass(n=12, vocab=8, length_range=(2, 9), seed=4))
    lengths = [s.length for s in samples]
    assert lengths != sorted(lengths, reverse=True)
    spec = ModelSpec(kind="lstm", vocab=8, embed=3, hidden=4)
    original, backs = lstm._longest_first, []

    def spy(params, batch):
        out = original(params, batch)
        backs.append(out[-1])
        return out

    with mock.patch.object(lstm, "_longest_first", spy):
        mine_importance(samples, spec, FimConfig(epsilon=0.01, lr=0.5, t_max=20),
                        n_workers=1)
    assert len(backs) > 2
    assert all(isinstance(back, slice) and back == slice(None) for back in backs)
