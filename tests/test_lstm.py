import numpy as np
import pytest

from gradmine.data import SequenceSample
from gradmine.errors import InvalidInputError
from gradmine.models import ModelSpec
from gradmine.models import lstm

from conftest import OneSample, param_blocks, randomize
from oracles import finite_diff_grads, max_fd_violation, naive_lstm_loss


def small_model(classes=2):
    return OneSample(ModelSpec(kind="lstm", vocab=6, embed=4, hidden=5, classes=classes))


class TestForward:
    def test_zero_params(self):
        model = small_model(classes=3)
        params = randomize(model.init_params(0), np.random.default_rng(0), 0.0)
        sample = SequenceSample(tokens=[0, 1, 2], label=1)
        trace = model.forward(params, sample)
        zs, fs, _, os_ = np.split(trace.gates[0], 4, axis=-1)
        np.testing.assert_allclose(zs, 0.5)
        np.testing.assert_allclose(fs, 0.5)
        np.testing.assert_allclose(os_, 0.5)
        np.testing.assert_array_equal(trace.cs, 0.0)
        np.testing.assert_array_equal(trace.hs, 0.0)
        np.testing.assert_allclose(trace.probs, 1 / 3)
        assert abs(trace.losses[0] - np.log(3)) < 1e-12

    def test_gate_saturation_carries_memory(self, rng):
        model = small_model()
        params = randomize(model.init_params(1), rng, 0.2)
        params.b_f[:] = 1e3  # forget gate pinned at 1
        params.b_z[:] = -1e3  # input gate pinned at 0
        params.c0[:] = rng.normal(size=5)
        trace = model.forward(params, SequenceSample(tokens=[1, 2, 3, 4], label=0))
        np.testing.assert_allclose(trace.cs[0, -1], params.c0, atol=1e-12)

    def test_matches_naive_recurrence(self, rng):
        model = small_model()
        params = randomize(model.init_params(0), np.random.default_rng(0), 0.6)
        sample = SequenceSample(tokens=[1, 5, 0], label=1)
        assert abs(model.loss(params, sample) - naive_lstm_loss(params, sample)) < 1e-10

    def test_gate_ranges_on_random_forwards(self, rng):
        model = small_model()
        for trial in range(5):
            params = randomize(model.init_params(trial), rng, 2.0)
            sample = SequenceSample(tokens=rng.integers(0, 6, size=6), label=1)
            trace = model.forward(params, sample)
            zs, fs, gs, os_ = np.split(trace.gates[0], 4, axis=-1)
            for gate in (zs, fs, os_):
                assert np.all(gate >= 0.0) and np.all(gate <= 1.0)
            assert np.all(np.abs(gs) <= 1.0)

    def test_requires_label(self):
        model = small_model()
        params = model.init_params(0)
        with pytest.raises(InvalidInputError):
            model.forward(params, SequenceSample(tokens=[1, 2], targets=[0, 1]))

    def test_label_out_of_range(self):
        model = small_model()
        params = model.init_params(0)
        with pytest.raises(InvalidInputError):
            model.forward(params, SequenceSample(tokens=[1, 2], label=2))


class TestBackward:
    def test_finite_differences_many_instances(self, rng):
        model = small_model()
        for trial in range(20):
            params = randomize(model.init_params(trial), rng, 0.5)
            t_len = int(rng.integers(1, 5))
            sample = SequenceSample(
                tokens=rng.integers(0, 6, size=t_len), label=int(rng.integers(0, 2))
            )
            grads = model.backward(params, sample, model.forward(params, sample))
            numeric = finite_diff_grads(lambda p: model.loss(p, sample), params)
            assert max_fd_violation(grads, numeric) <= 1e-4

    def test_confident_correct_prediction_gives_tiny_gradients(self, rng):
        model = small_model()
        params = randomize(model.init_params(2), rng, 0.4)
        params.b_cls[:] = -50.0
        params.b_cls[1] = 50.0
        sample = SequenceSample(tokens=[1, 2, 3], label=1)
        trace = model.forward(params, sample)
        assert trace.losses[0] < 1e-12
        grads = model.backward(params, sample, trace)
        for block in param_blocks(grads).values():
            assert np.max(np.abs(block)) < 1e-6

    def test_duplicate_invocation_bitwise_equal(self, rng):
        model = small_model()
        params = randomize(model.init_params(3), rng, 0.5)
        sample = SequenceSample(tokens=[0, 5, 2], label=0)
        g1 = model.backward(params, sample, model.forward(params, sample))
        g2 = model.backward(params, sample, model.forward(params, sample))
        for name, block in param_blocks(g1).items():
            np.testing.assert_array_equal(block, getattr(g2, name))

    def test_mismatched_trace_rejected(self, rng):
        model = small_model()
        params = randomize(model.init_params(3), rng, 0.5)
        trace = model.forward(params, SequenceSample(tokens=[0, 5], label=0))
        with pytest.raises(InvalidInputError):
            model.backward(params, SequenceSample(tokens=[0, 5, 2], label=0), trace)


def test_time_order_changes_trajectory_deterministically(rng):
    # mean pooling is not order-invariant: the hidden trajectory differs,
    # and repeated evaluation of either order is exactly reproducible
    model = small_model()
    params = randomize(model.init_params(4), rng, 0.5)
    fwd = SequenceSample(tokens=[1, 2, 3, 4], label=1)
    rev = SequenceSample(tokens=[4, 3, 2, 1], label=1)
    l1, l2 = model.loss(params, fwd), model.loss(params, rev)
    assert l1 == model.loss(params, fwd)
    assert l2 == model.loss(params, rev)


def test_forget_bias_initialization():
    model = small_model()
    params = model.init_params(0)
    np.testing.assert_array_equal(params.b_f, np.full(5, lstm.FORGET_BIAS))
    np.testing.assert_array_equal(params.b_z, 0.0)


def test_base_selector_default():
    assert lstm.BASE_SELECTOR == "w_c"
