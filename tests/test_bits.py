"""The floating-point facts that the batched passes' byte-equality rests on.

Each batched pass has the bits of the single-sample oracle only because
numpy and its BLAS compute certain batched operations exactly as they
compute the per-sample ones. These are facts about the installed numpy and
BLAS build, not guarantees. Each test here checks one of them directly,
so that a library update that breaks one fails here, under the fact's
name and the code that relies on it, and not only as a gradient mismatch
in ``test_batched.py`` or ``test_lockstep.py``. Shapes include width 1 and
length 1, where BLAS takes vector paths.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmine.tensor import matvec, transpose

_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
LIBRARY = f"numpy {np.__version__} with {_BLAS['name']} {_BLAS['version']}"
widths = st.just(1) | st.integers(1, 9)
lengths = st.just(1) | st.integers(1, 12)
seeds = st.integers(0, 2**32 - 1)


def assert_keeps_bits(got, expected, fact, relied_on_by):
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), (
        f"{fact} no longer keeps the bits under {LIBRARY}; "
        f"relied on by {relied_on_by}")


@settings(deadline=None, max_examples=150)
@given(rows=st.integers(1, 4), steps=st.none() | lengths, out=widths, inner=widths,
       stacked=st.booleans(), transposed=st.booleans(), seed=seeds)
def test_a_leading_batch_axis_in_matmul_keeps_each_product(
        rows, steps, out, inner, stacked, transposed, seed):
    rng = np.random.default_rng(seed)
    shape = (out, inner)[::-1] if transposed else (out, inner)
    mats = rng.normal(size=(rows, *shape) if stacked else shape)
    if transposed:  # a view, as the backward passes' ``transpose(w)``
        mats = transpose(mats)
    xs = rng.normal(size=(rows, inner) if steps is None else (rows, steps, inner))
    got = matvec(mats, xs)
    for b in range(rows):
        mat = mats[b] if stacked else mats
        expected = [mat @ x for x in xs[b].reshape(-1, inner)]
        assert_keeps_bits(
            got[b].reshape(-1, out), np.array(expected).reshape(-1, out),
            "a leading batch axis in np.matmul, against per-sample `m @ x`, "
            f"for {'stacked' if stacked else 'broadcast'} matrices",
            "tensor.matvec, and so every batched forward and backward")


@settings(deadline=None, max_examples=150)
@given(pieces=st.lists(st.integers(0, 40), min_size=1, max_size=8), seed=seeds)
def test_one_bulk_draw_equals_the_same_draws_in_pieces(pieces, seed):
    bulk, split = np.random.default_rng(seed), np.random.default_rng(seed)
    got = bulk.random(sum(pieces))
    expected = np.concatenate([split.random(size) for size in pieces])
    fact = "one bulk `rng.random(n)`, against the same draws taken in pieces,"
    relied_on_by = "rnnrbm.forward's one draw per sample from a shared generator"
    assert_keeps_bits(got, expected, fact, relied_on_by)
    assert bulk.bit_generator.state == split.bit_generator.state, (
        f"{fact} leaves the generator elsewhere under {LIBRARY}; "
        f"relied on by {relied_on_by}")


def length_group(rng, rows, length, widths):
    """One (rows, T, width) batch-major array per width, padded past
    ``length`` to a longer T, and its length-``length`` slice, as
    ``lstm.backward`` slices a length group out of its padded arrays."""
    pad = int(rng.integers(0, 4))
    return [rng.normal(size=(rows, length + pad, w))[:, :length] for w in widths]


@settings(deadline=None, max_examples=150)
@given(rows=st.integers(1, 4), length=lengths, out=widths, inner=widths, seed=seeds)
def test_one_stacked_product_per_length_group_keeps_each_product(
        rows, length, out, inner, seed):
    da, xs = length_group(np.random.default_rng(seed), rows, length, (out, inner))
    got = np.matmul(da.transpose(0, 2, 1), xs)
    for b in range(rows):
        assert_keeps_bits(
            got[b], da[b].T @ xs[b],
            "one stacked product per length group, "
            "`np.matmul(da.transpose(0, 2, 1), xs)`, against per-sample `da.T @ xs`,",
            "lstm.backward's gate weight gradients")


@settings(deadline=None, max_examples=150)
@given(rows=st.integers(1, 4), length=lengths, width=widths, seed=seeds)
def test_a_grouped_sum_over_time_keeps_each_sum(rows, length, width, seed):
    [da] = length_group(np.random.default_rng(seed), rows, length, (width,))
    got = da.sum(axis=1)
    for b in range(rows):
        assert_keeps_bits(
            got[b], da[b].sum(axis=0),
            "a grouped `sum(axis=1)`, against per-sample `sum(axis=0)`,",
            "lstm.backward's gate bias gradients")


finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=150)
@given(values=st.lists(finite, max_size=12),
       zeros=st.lists(st.tuples(st.integers(0, 12), st.sampled_from([0.0, -0.0])),
                      max_size=6))
def test_signed_zeros_added_to_a_zero_started_sum_change_no_bit(values, zeros):
    padded = list(values)
    for at, zero in zeros:
        padded.insert(min(at, len(padded)), zero)
    relied_on_by = ("the padded steps of models.common.tanh_backward and "
                    "add_rows_backwards' scatter of padded slots")
    fact = "±0.0 added to a sum that starts at +0.0"
    running = [np.zeros(1), np.zeros(1)]
    for acc, seq in zip(running, (values, padded)):
        for v in seq:
            acc += v
    assert_keeps_bits(running[1], running[0], fact, relied_on_by)
    scattered = [np.zeros(1), np.zeros(1)]
    for out, seq in zip(scattered, (values, padded)):
        np.add.at(out, np.zeros(len(seq), dtype=np.int64), np.array(seq, dtype=float))
    assert_keeps_bits(scattered[1], scattered[0], fact + " by np.add.at", relied_on_by)
