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

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradmine.tensor import log_softmax, matvec, transpose

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
@given(rows=st.integers(1, 4), steps=lengths, out=widths, inner=widths,
       stacked=st.booleans(), transposed=st.booleans(), seed=seeds)
def test_matmul_into_a_time_major_step_equals_matvec_on_a_batch_major_step(
        rows, steps, out, inner, stacked, transposed, seed):
    rng = np.random.default_rng(seed)
    shape = (inner, out) if transposed else (out, inner)
    mats = rng.normal(size=(rows, *shape) if stacked else shape)
    if transposed:  # a view, as tanh_backward's ``transpose(w_rec)``
        mats = transpose(mats)
    states = rng.normal(size=(rows, steps, inner))
    time_major = np.ascontiguousarray(states.swapaxes(0, 1))[..., None]
    got = np.empty((steps, rows, out, 1))
    for t in range(steps):
        np.matmul(mats, time_major[t], out=got[t])
        assert_keeps_bits(
            got[t, ..., 0], matvec(mats, states[:, t]),
            "np.matmul into a contiguous (B, H, 1) step slice, against "
            "tensor.matvec on the strided batch-major step,",
            "models.common.tanh_forward and tanh_backward")


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


def running_sum(ufunc, terms):
    """``acc = ufunc(acc, terms[:, t])`` for each step t in turn, from +0.0."""
    acc = np.zeros(terms.shape[:1] + terms.shape[2:])
    for t in range(terms.shape[1]):
        acc = ufunc(acc, terms[:, t])
    return acc


@settings(deadline=None, max_examples=200)
@given(rows=st.integers(1, 4), length=st.integers(1, 40),
       inner=st.sampled_from([(1,), (1, 1), (2,), (1, 2), (2, 1), (3,), (4, 5), (9,)]),
       chunk=st.integers(1, 40), subtract=st.booleans(), seed=seeds)
def test_a_sequential_reduce_over_time_equals_the_running_sum(
        rows, length, inner, chunk, subtract, seed):
    # Subtraction has no pairwise loop, so it keeps the bits at one entry
    # per row too, where time is the only axis left.
    assume(subtract or math.prod(inner) > 1)
    rng = np.random.default_rng(seed)
    terms = rng.normal(size=(rows, length, *inner)) * 10.0 ** rng.integers(
        -8, 9, size=(rows, length, *inner))
    ufunc = np.subtract if subtract else np.add
    expected = running_sum(ufunc, terms)
    assert_keeps_bits(
        ufunc.reduce(terms, axis=1, initial=0.0), expected,
        f"`np.{ufunc.__name__}.reduce(..., axis=1, initial=0.0)` with {inner} "
        "entries a row, against the running sum from +0.0,",
        "rnnrbm.backward's bias gradients")
    acc = np.zeros((rows, *inner))
    for start in range(0, length, chunk):  # time-major, after the sum carried in
        part = terms[:, start:start + chunk].swapaxes(0, 1)
        acc = ufunc.reduce(np.concatenate([acc[None], part]), axis=0)
    assert_keeps_bits(
        acc, expected,
        f"a chunked `np.{ufunc.__name__}.reduce` along a time-major axis, each "
        f"chunk after the sum carried in, with {inner} entries a row, against "
        "the running sum from +0.0,",
        "models.common.sum_over_time, and so the weight gradients of "
        "tanh_backward and rnnrbm.backward")


def test_a_reduce_along_the_innermost_axis_can_change_bits():
    # The counter-fact that keeps time off the innermost axis in
    # models.common.sum_over_time: there numpy adds pairwise, in blocks.
    rng = np.random.default_rng(0)
    terms = rng.normal(size=(8, 40, 1)) * 10.0 ** rng.integers(-8, 9, size=(8, 40, 1))
    got = np.add.reduce(terms, axis=1)
    assert got.tobytes() != running_sum(np.add, terms).tobytes(), (
        f"under {LIBRARY} a reduce along the innermost axis now keeps the "
        "running sum's bits, against the pairwise sum that "
        "models.common.sum_over_time's layout avoids")


@settings(deadline=None, max_examples=150)
@given(size=lengths, pad=st.integers(0, 3), vocab=widths, hidden=widths, seed=seeds)
@example(size=2, pad=0, vocab=1, hidden=1, seed=1)
def test_an_outer_product_plus_zero_equals_a_product_over_time_with_earlier_rows_zero(
        size, pad, vocab, hidden, seed):
    # dz is a labelled sample's d loss / d logits: zero but at its last
    # step, and all zero at vocab 1, where the product with a negative
    # state is -0.0 and the one over time is +0.0.
    rng = np.random.default_rng(seed)
    dz = np.zeros((size + pad, vocab))
    dz[size - 1] = np.exp(log_softmax(rng.normal(size=vocab)))
    dz[size - 1, rng.integers(vocab)] -= 1.0
    hs = np.tanh(rng.normal(size=(size + pad + 1, hidden)))
    assert_keeps_bits(
        dz[size - 1, :, None] * hs[size, None, :] + 0.0, dz[:size].T @ hs[1:size + 1],
        "`x * y + 0.0`, against a product over time whose earlier rows are zero,",
        "rnn.backward's w_s gradient for labelled samples")
