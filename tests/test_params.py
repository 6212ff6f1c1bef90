"""The parameter format: one float64 vector with a named view per block."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmine.data import SequenceSample
from gradmine.errors import ConfigError
from gradmine.models import MODEL_KINDS, ModelSpec, Params, get_model, lstm, pack
from gradmine.optimizer import sgd_step

from conftest import param_blocks

# Block order of each model, which is also the order of flattened gradients.
ORDER = {
    "rnn": ["w_emb", "w_x", "w_h", "w_s", "b_h", "b_y", "h0"],
    "lstm": ["w_emb", "w_z", "w_f", "w_c", "w_o", "u_z", "u_f", "u_c", "u_o",
             "b_z", "b_f", "b_c", "b_o", "w_cls", "b_cls", "h0", "c0"],
    "rnnrbm": ["w", "b_v", "b_h", "w_uv", "w_uh", "w_uu", "w_vu", "b_u", "u0"],
}

dims = st.integers(min_value=1, max_value=5)
specs = st.builds(
    ModelSpec, kind=st.sampled_from(MODEL_KINDS), vocab=dims, embed=dims,
    hidden=dims, classes=dims, context=dims,
)


def random_params(spec, seed):
    """Initialized parameters and a random gradient-shaped vector."""
    params = get_model(spec).init_params(seed)
    rng = np.random.default_rng(seed)
    return params, params.like(rng.normal(size=params.vec.size))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_layout_keeps_the_block_order(kind):
    spec = ModelSpec(kind=kind, vocab=5, embed=3, hidden=4, context=2)
    assert [name for name, _ in get_model(spec).module.layout(spec)] == ORDER[kind]


@settings(deadline=None, max_examples=60)
@given(spec=specs, seed=st.integers(0, 2**16), lr=st.floats(-4.0, 4.0))
def test_vector_and_blocks_are_one_memory(spec, seed, lr):
    params, grads = random_params(spec, seed)
    blocks = param_blocks(params)
    assert list(blocks) == ORDER[spec.kind]
    flat = np.concatenate([b.ravel() for b in blocks.values()])
    assert params.vec.dtype == np.float64
    np.testing.assert_array_equal(params.vec, flat)
    for name, shape in params.layout:
        assert blocks[name].shape == shape
        assert np.shares_memory(blocks[name], params.vec)

    stepped = sgd_step(params, grads, lr)
    for name, block in param_blocks(stepped).items():
        expected = getattr(params, name) - lr * getattr(grads, name)
        assert block.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=30)
@given(spec=specs.map(lambda s: ModelSpec(kind="lstm", vocab=s.vocab, embed=s.embed,
                                          hidden=s.hidden, classes=s.classes)),
       seed=st.integers(0, 2**16))
def test_lstm_stacked_gates_are_views(spec, seed):
    params, grads = random_params(spec, seed)
    for p in (params, grads):
        for stacked, family in zip(lstm._stacked(p), "wub"):
            gates = [getattr(p, f"{family}_{g}") for g in lstm.GATES]
            np.testing.assert_array_equal(stacked, np.concatenate(gates))
            assert np.shares_memory(stacked, p.vec)


@settings(deadline=None, max_examples=30)
@given(spec=specs, seed=st.integers(0, 2**16))
def test_copies_view_their_own_vector(spec, seed):
    params, _ = random_params(spec, seed)
    for clone in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
        assert clone.layout == params.layout
        np.testing.assert_array_equal(clone.vec, params.vec)
        assert not np.shares_memory(clone.vec, params.vec)
        clone.vec[:] = 7.0
        for block in param_blocks(clone).values():
            assert np.all(block == 7.0)
        assert not np.any(params.vec == 7.0)


def test_backward_returns_the_same_layout():
    spec = ModelSpec(kind="lstm", vocab=6, embed=3, hidden=4)
    model = get_model(spec)
    params = model.init_params(0)
    sample = SequenceSample(tokens=[1, 2, 5], label=1)
    batch = pack([sample])
    grads = params.like(model.backward(params, batch, model.forward(params, batch))[0])
    assert grads.layout == params.layout
    assert not np.shares_memory(grads.vec, params.vec)


def test_assigning_a_block_writes_the_vector():
    p = Params((("a", (2, 2)), ("b", (3,))))
    np.testing.assert_array_equal(p.vec, np.zeros(7))
    p.b = [1.0, 2.0, 3.0]
    p.a += 0.5
    np.testing.assert_array_equal(p.vec, [0.5] * 4 + [1.0, 2.0, 3.0])
    with pytest.raises(AttributeError):
        p.c = 1.0


def test_like_shares_layout_and_rejects_a_wrong_size():
    p = Params((("a", (2, 3)),), np.arange(6.0))
    q = p.like()
    assert q.layout == p.layout and not np.any(q.vec)
    with pytest.raises(ConfigError):
        p.like(np.zeros(5))


@settings(deadline=None, max_examples=30)
@given(spec=specs, seed=st.integers(0, 2**16), rows=st.integers(1, 3))
def test_a_block_read_twice_is_one_view_and_like_over_rows_gives_row_blocks(
        spec, seed, rows):
    params, _ = random_params(spec, seed)
    stacked = params.like(np.repeat(params.vec[None], rows, axis=0))
    for p, lead in ((params, ()), (stacked, (rows,))):
        for name, shape in p.layout:
            block = getattr(p, name)
            assert getattr(p, name) is block
            assert block.shape == lead + shape and np.shares_memory(block, p.vec)
    for name, _ in params.layout:
        for r in range(rows):
            np.testing.assert_array_equal(getattr(stacked, name)[r], getattr(params, name))


def test_assigning_a_block_before_any_read_writes_the_vector():
    layout = (("a", (2, 2)), ("b", (3,)))
    for vec in (None, np.zeros((2, 7))):
        p = Params(layout, vec)
        p.b = [1.0, 2.0, 3.0]
        q = p.like(p.vec.copy())
        q.a = 5.0
        np.testing.assert_array_equal(p.vec[..., 4:], np.broadcast_to([1.0, 2.0, 3.0],
                                                                      p.vec.shape[:-1] + (3,)))
        np.testing.assert_array_equal(q.vec[..., :4], 5.0)
        np.testing.assert_array_equal(q.vec[..., 4:], p.vec[..., 4:])


def test_reading_or_assigning_an_unknown_block_raises_attribute_error():
    p = Params((("a", (2,)),))
    with pytest.raises(AttributeError):
        p.c
    with pytest.raises(AttributeError):
        p.c = 1.0
    assert not hasattr(p.like(), "c")
    np.testing.assert_array_equal(p.vec, np.zeros(2))
