import numpy as np
import pytest

from gradmine.data import FrameSequence
from gradmine.errors import InvalidInputError
from gradmine.models import ModelSpec
from gradmine.models.rnnrbm import gibbs_step
from gradmine.tensor import sigmoid

from conftest import OneSample, first_row, param_blocks, randomize
from oracles import (
    cd_surrogate_loss,
    finite_diff_grads,
    max_fd_violation,
    naive_rnnrbm_cost,
    static_rbm_cd,
)


def small_model(cd_k=1):
    return OneSample(ModelSpec(kind="rnnrbm", vocab=5, hidden=4, context=3, cd_k=cd_k))


def random_frames(rng, t_len=3, width=5, density=0.4):
    return FrameSequence(frames=(rng.random((t_len, width)) < density) * 1.0)


class TestGibbsStep:
    def test_symmetric_zero_weights(self):
        w = np.zeros((5, 4))
        rng = np.random.default_rng(0)
        h, v_prob, v_next = gibbs_step(w, np.zeros(5), np.zeros(4), np.zeros(5),
                                       rng.random(9))
        np.testing.assert_array_equal(v_prob, 0.5)
        assert set(np.unique(h)) <= {0.0, 1.0}
        assert set(np.unique(v_next)) <= {0.0, 1.0}

    def test_saturated_hidden_bias(self):
        w = np.zeros((5, 4))
        rng = np.random.default_rng(0)
        h, _, _ = gibbs_step(w, np.zeros(5), np.full(4, 1e3), np.zeros(5), rng.random(9))
        np.testing.assert_array_equal(h, 1.0)

    def test_fixed_seed_reproducible(self, rng):
        w = rng.normal(size=(5, 4))
        v = (rng.random(5) < 0.5) * 1.0
        out1 = gibbs_step(w, np.zeros(5), np.zeros(4), v, np.random.default_rng(7).random(9))
        out2 = gibbs_step(w, np.zeros(5), np.zeros(4), v, np.random.default_rng(7).random(9))
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a, b)


class TestForward:
    def test_zero_conditioning_reduces_to_static_biases(self, rng):
        model = small_model()
        params = randomize(model.init_params(0), rng, 0.3)
        for name in ("w_uv", "w_uh", "w_uu", "w_vu"):
            getattr(params, name)[:] = 0.0
        sample = random_frames(rng, t_len=4)
        trace = model.forward(params, sample, rng=np.random.default_rng(0))
        for t, v in enumerate(sample.frames):
            np.testing.assert_array_equal(trace.h_pos[0, t],
                                          sigmoid(params.w.T @ v + params.b_h))

    def test_uniform_reconstruction_cost_is_ln2(self, rng):
        model = small_model()
        params = randomize(model.init_params(0), np.random.default_rng(1), 0.0)
        sample = random_frames(rng, t_len=1)
        trace = model.forward(params, sample, rng=np.random.default_rng(0))
        assert abs(trace.losses[0] - np.log(2)) < 1e-12

    def test_matches_naive_oracle(self, rng):
        model = small_model(cd_k=1)
        params = randomize(model.init_params(0), np.random.default_rng(0), 0.5)
        sample = random_frames(rng, t_len=3)
        mine = model.forward(params, sample, rng=np.random.default_rng(99)).losses[0]
        ref = naive_rnnrbm_cost(params, sample.frames, 1, np.random.default_rng(99))
        assert abs(mine - ref) < 1e-10

    @pytest.mark.parametrize("cd_k", [1, 3])
    def test_draws_and_positive_phase(self, rng, cd_k):
        # T*k*(n_h + n_v) uniforms, one per unit per Gibbs half-step, and a
        # positive phase equal to its direct evaluation.
        model = small_model(cd_k=cd_k)
        params = randomize(model.init_params(0), np.random.default_rng(6), 0.8)
        t_len, n_v, n_h = 4, params.b_v.size, params.b_h.size
        sample = random_frames(rng, t_len=t_len)
        chain_rng = np.random.default_rng(21)
        trace = model.forward(params, sample, rng=chain_rng)
        ref_rng = np.random.default_rng(21)
        for _ in range(t_len * cd_k * (n_h + n_v)):
            ref_rng.random()
        assert chain_rng.bit_generator.state == ref_rng.bit_generator.state
        for t, v in enumerate(sample.frames):
            bh = params.b_h + params.w_uh @ trace.us[0, t]
            direct = sigmoid(params.w.T @ v + bh)
            np.testing.assert_array_equal(trace.h_pos[0, t].view(np.int64),
                                          direct.view(np.int64))

    def test_zero_parameters_miss_exactly_the_on_bits(self, rng):
        # Every reconstruction probability is sigmoid(0) = 0.5, which does
        # not exceed 0.5, so each on bit is a miss and each off bit a hit.
        model = small_model()
        params = model.init_params(0).like()
        sample = random_frames(rng, t_len=5)
        trace = model.forward(params, sample, rng=np.random.default_rng(0))
        assert (trace.wrong[0], trace.total[0]) == (int(sample.frames.sum()),
                                                    sample.frames.size)

    def test_requires_rng(self, rng):
        model = small_model()
        params = model.init_params(0)
        with pytest.raises(InvalidInputError):
            model.forward(params, random_frames(rng))

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            FrameSequence(frames=np.zeros((0, 5)))

    def test_nonbinary_frames_rejected(self):
        with pytest.raises(InvalidInputError):
            FrameSequence(frames=np.full((2, 5), 0.5))


class TestCdGradient:
    def test_chain_fixed_point_zeroes_weight_gradient(self):
        # all-zero frames with a strongly negative visible offset keep the
        # chain at the data, so positive and negative phases cancel
        model = small_model()
        params = randomize(model.init_params(0), np.random.default_rng(0), 0.0)
        params.b_v[:] = -1e3
        sample = FrameSequence(frames=np.zeros((3, 5)))
        trace = model.forward(params, sample, rng=np.random.default_rng(5))
        grads = model.backward(params, sample, trace)
        np.testing.assert_array_equal(grads.w, 0.0)
        np.testing.assert_array_equal(grads.b_v, 0.0)
        np.testing.assert_array_equal(grads.b_h, 0.0)

    def test_conditioning_gradients_match_finite_differences(self, rng):
        model = small_model(cd_k=2)
        for trial in range(5):
            params = randomize(model.init_params(trial), rng, 0.5)
            sample = random_frames(rng, t_len=4)
            trace = model.forward(params, sample, rng=np.random.default_rng(trial))
            grads = model.backward(params, sample, trace)
            numeric = finite_diff_grads(
                lambda p: cd_surrogate_loss(p, sample, first_row(trace)), params
            )
            assert max_fd_violation(grads, numeric) <= 1e-4

    def test_deterministic_under_fixed_seed(self, rng):
        model = small_model()
        params = randomize(model.init_params(2), rng, 0.4)
        sample = random_frames(rng, t_len=3)
        g1 = model.backward(params, sample, model.forward(params, sample, rng=np.random.default_rng(3)))
        g2 = model.backward(params, sample, model.forward(params, sample, rng=np.random.default_rng(3)))
        for name, block in param_blocks(g1).items():
            np.testing.assert_array_equal(block, getattr(g2, name))


class TestStaticRbmDecoupling:
    def test_weight_gradients_match_standalone_oracle(self, rng):
        for k in (1, 3):
            model = small_model(cd_k=k)
            params = randomize(model.init_params(0), np.random.default_rng(4), 0.4)
            for name in ("w_uv", "w_uh", "w_uu", "w_vu"):
                getattr(params, name)[:] = 0.0
            sample = random_frames(rng, t_len=5)
            trace = model.forward(params, sample, rng=np.random.default_rng(11))
            grads = model.backward(params, sample, trace)
            g_w, g_bv, g_bh = static_rbm_cd(
                params.w, params.b_v, params.b_h, sample.frames, k,
                np.random.default_rng(11),
            )
            np.testing.assert_allclose(grads.w, g_w, atol=1e-12)
            np.testing.assert_allclose(grads.b_v, g_bv, atol=1e-12)
            np.testing.assert_allclose(grads.b_h, g_bh, atol=1e-12)


def test_monitoring_cost_nonnegative(rng):
    model = small_model()
    for trial in range(5):
        params = randomize(model.init_params(trial), rng, 0.5)
        sample = random_frames(rng, t_len=3)
        trace = model.forward(params, sample, rng=np.random.default_rng(trial))
        assert trace.losses[0] >= 0.0
