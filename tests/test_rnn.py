import numpy as np
import pytest

from gradmine.data import SequenceSample
from gradmine.errors import ConfigError, InvalidInputError
from gradmine.models import ModelSpec, param_block
from gradmine.models import rnn
from gradmine.tensor import matrix_norm

from conftest import OneSample, param_blocks, randomize
from oracles import finite_diff_grads, max_fd_violation, naive_rnn_loss


def small_model():
    return OneSample(ModelSpec(kind="rnn", vocab=6, embed=4, hidden=5))


def random_sample(rng, vocab=6, max_len=4, classification=False):
    t_len = int(rng.integers(1, max_len + 1))
    tokens = rng.integers(0, vocab, size=t_len)
    if classification:
        return SequenceSample(tokens=tokens, label=int(rng.integers(0, vocab)))
    return SequenceSample(tokens=tokens, targets=rng.integers(0, vocab, size=t_len))


class TestForward:
    def test_zero_params_uniform_output(self):
        model = OneSample(ModelSpec(kind="rnn", vocab=4, embed=3, hidden=2))
        params = randomize(model.init_params(0), np.random.default_rng(0), 0.0)
        sample = SequenceSample(tokens=[0, 1, 2], targets=[1, 2, 3])
        trace = model.forward(params, sample)
        np.testing.assert_allclose(trace.ys[0], 0.25)
        assert abs(trace.losses[0] - np.log(4)) < 1e-12

    def test_dead_recurrence_gives_constant_state(self, rng):
        model = small_model()
        params = model.init_params(1)
        params.w_x[:] = 0.0
        params.w_h[:] = 0.0
        params.b_h[:] = rng.normal(size=5)
        trace = model.forward(params, SequenceSample(tokens=[0, 3, 5], label=1))
        for t in range(3):
            np.testing.assert_allclose(trace.hs[0, t + 1], np.tanh(params.b_h))

    def test_matches_naive_recurrence(self, rng):
        model = small_model()
        params = randomize(model.init_params(0), np.random.default_rng(0), 0.6)
        sample = SequenceSample(tokens=[1, 5, 0], targets=[2, 0, 3])
        trace = model.forward(params, sample)
        assert abs(trace.losses[0] - naive_rnn_loss(params, sample)) < 1e-10
        cls = SequenceSample(tokens=[1, 5, 0], label=4)
        assert abs(model.loss(params, cls) - naive_rnn_loss(params, cls)) < 1e-10

    def test_token_out_of_range(self):
        model = small_model()
        params = model.init_params(0)
        with pytest.raises(InvalidInputError):
            model.forward(params, SequenceSample(tokens=[0, 6], label=0))


class TestBackward:
    def test_finite_differences_many_instances(self, rng):
        model = small_model()
        for trial in range(20):
            params = randomize(model.init_params(trial), rng, 0.5)
            sample = random_sample(rng, classification=trial % 2 == 0)
            grads = model.backward(params, sample, model.forward(params, sample))
            numeric = finite_diff_grads(lambda p: model.loss(p, sample), params)
            assert max_fd_violation(grads, numeric) <= 1e-4

    def test_saturated_predictions_give_vanishing_gradients(self, rng):
        # one-hot softmax limit: a huge output-bias gap pins every step's
        # prediction to class 0, so targets of 0 leave nothing to learn
        model = small_model()
        params = randomize(model.init_params(9), rng, 0.4)
        params.b_y[:] = -50.0
        params.b_y[0] = 50.0
        sample = SequenceSample(tokens=[2, 4, 1], targets=[0, 0, 0])
        trace = model.forward(params, sample)
        assert trace.losses[0] < 1e-12
        grads = model.backward(params, sample, trace)
        for block in param_blocks(grads).values():
            assert np.max(np.abs(block)) < 1e-6
        numeric = finite_diff_grads(lambda p: model.loss(p, sample), params)
        assert max_fd_violation(grads, numeric) <= 1e-4

    def test_length_one_sample(self, rng):
        model = small_model()
        params = randomize(model.init_params(3), rng, 0.5)
        sample = SequenceSample(tokens=[4], targets=[1])
        grads = model.backward(params, sample, model.forward(params, sample))
        numeric = finite_diff_grads(lambda p: model.loss(p, sample), params)
        assert max_fd_violation(grads, numeric) <= 1e-4

    def test_duplicate_invocation_bitwise_equal(self, rng):
        model = small_model()
        params = randomize(model.init_params(5), rng, 0.5)
        sample = SequenceSample(tokens=[1, 2, 3], label=2)
        g1 = model.backward(params, sample, model.forward(params, sample))
        g2 = model.backward(params, sample, model.forward(params, sample))
        for name, block in param_blocks(g1).items():
            np.testing.assert_array_equal(block, getattr(g2, name))

    def test_mismatched_trace_rejected(self, rng):
        model = small_model()
        params = randomize(model.init_params(5), rng, 0.5)
        s1 = SequenceSample(tokens=[1, 2, 3], label=2)
        s2 = SequenceSample(tokens=[1, 2], label=2)
        trace = model.forward(params, s2)
        with pytest.raises(InvalidInputError):
            model.backward(params, s1, trace)


class TestProperties:
    def test_vocabulary_permutation_covariance(self, rng):
        model = small_model()
        params = randomize(model.init_params(2), rng, 0.5)
        sample = SequenceSample(tokens=[1, 5, 0, 2], targets=[2, 0, 3, 1])
        base = model.loss(params, sample)

        perm = rng.permutation(6)
        inv = np.argsort(perm)
        relabeled = SequenceSample(
            tokens=perm[sample.tokens], targets=perm[sample.targets]
        )
        params.w_emb = params.w_emb[inv]
        params.w_s = params.w_s[inv]
        params.b_y = params.b_y[inv]
        assert abs(model.loss(params, relabeled) - base) < 1e-12

    def test_deterministic_forward_backward(self, rng):
        model = small_model()
        params = randomize(model.init_params(7), rng, 0.5)
        sample = SequenceSample(tokens=[0, 1], targets=[1, 0])
        t1 = model.forward(params, sample)
        t2 = model.forward(params, sample)
        assert t1.losses[0] == t2.losses[0]
        np.testing.assert_array_equal(t1.hs, t2.hs)


class TestGradNorm:
    def test_zero_gradients(self):
        model = small_model()
        zero = randomize(model.init_params(0), np.random.default_rng(0), 0.0)
        assert matrix_norm(param_block(zero, "w_x")) == 0.0

    def test_matches_direct_frobenius(self, rng):
        model = small_model()
        params = randomize(model.init_params(1), rng, 0.5)
        sample = SequenceSample(tokens=[1, 2], label=3)
        grads = model.backward(params, sample, model.forward(params, sample))
        assert matrix_norm(param_block(grads, "w_x")) == np.linalg.norm(grads.w_x)

    def test_unknown_selector(self, rng):
        model = small_model()
        params = model.init_params(1)
        with pytest.raises(ConfigError):
            param_block(params, "w_q")

    def test_ranking_matches_finite_difference_oracle(self, rng):
        model = small_model()
        params = randomize(model.init_params(4), rng, 0.5)
        samples = [random_sample(rng, classification=True) for _ in range(10)]
        analytic = []
        numeric = []
        for s in samples:
            grads = model.backward(params, s, model.forward(params, s))
            analytic.append(matrix_norm(param_block(grads, "w_x")))
            fd = np.zeros_like(params.w_x)
            it = np.nditer(params.w_x, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params.w_x[idx]
                params.w_x[idx] = orig + 1e-5
                hi = model.loss(params, s)
                params.w_x[idx] = orig - 1e-5
                lo = model.loss(params, s)
                params.w_x[idx] = orig
                fd[idx] = (hi - lo) / 2e-5
            numeric.append(np.linalg.norm(fd))
        assert list(np.argsort(analytic)) == list(np.argsort(numeric))


def test_classification_head_uses_final_step_only(rng):
    model = small_model()
    params = randomize(model.init_params(8), rng, 0.5)
    sample = SequenceSample(tokens=[1, 2, 3], label=4)
    trace = model.forward(params, sample)
    assert trace.ys.shape == (1, 6)  # one head per sample: (B, vocab)
    assert abs(trace.losses[0] + np.log(trace.ys[0, 4])) < 1e-12


def test_base_selector_default():
    assert rnn.BASE_SELECTOR == "w_x"
