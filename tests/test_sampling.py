import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gradmine.analysis import lipschitz_distribution
from gradmine.errors import DistributionError
from gradmine.optimizer import _step_size
from gradmine.sampling import build_alias, generate_sequence

from oracles import reconstructed


def weights(mass):
    """Lists of weights drawn from ``mass``, about a fifth of them zero,
    with at least one positive."""
    entry = st.tuples(st.integers(0, 4), mass).map(lambda t: t[1] if t[0] else 0.0)
    return st.lists(entry, min_size=1, max_size=50).filter(any)


# Ordinary masses and tiny ones, whose normalized probability is still normal.
MASSES = st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e-12))


class TestBuildAlias:
    def test_single_outcome(self):
        dist = build_alias([1.0])
        rng = np.random.default_rng(0)
        assert np.all(generate_sequence(dist, 20, rng) == 0)

    def test_symmetric_pair_has_full_cells(self):
        dist = build_alias([0.5, 0.5])
        np.testing.assert_array_equal(dist.alias_prob, 1.0)

    def test_reconstruction_identity_large_random(self, rng):
        p = rng.random(1000)
        p /= p.sum()
        dist = build_alias(p)
        np.testing.assert_allclose(reconstructed(dist), dist.probs, atol=1e-12)

    def test_reconstruction_identity_various_sizes(self, rng):
        for n in (1, 2, 3, 7, 50):
            p = rng.dirichlet(np.ones(n))
            dist = build_alias(p)
            np.testing.assert_allclose(reconstructed(dist), dist.probs, atol=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(DistributionError):
            build_alias([0.5, -0.1, 0.6])

    def test_zero_sum_rejected(self):
        with pytest.raises(DistributionError):
            build_alias([0.0, 0.0])

    def test_badly_normalized_rejected(self):
        with pytest.raises(DistributionError):
            build_alias([0.5, 0.6])

    def test_mild_normalization_drift_renormalized(self):
        p = np.array([0.25, 0.25, 0.25, 0.25 + 5e-10])
        dist = build_alias(p)
        assert abs(dist.probs.sum() - 1.0) < 1e-15


class TestDraw:
    def test_degenerate_distribution(self):
        dist = build_alias([0.0, 1.0, 0.0])
        rng = np.random.default_rng(3)
        assert np.all(generate_sequence(dist, 50, rng) == 1)

    def test_chi_square_fidelity(self):
        p = np.array([1 / 6, 1 / 3, 1 / 2])
        dist = build_alias(p)
        seq = generate_sequence(dist, 10**6, np.random.default_rng(2024))
        counts = np.bincount(seq, minlength=3)
        stat, pvalue = stats.chisquare(counts, f_exp=p * 10**6)
        assert pvalue > 0.001

    def test_fixed_seed_reproducible_stream(self):
        dist = build_alias([0.2, 0.3, 0.5])
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        seq_a = generate_sequence(dist, 200, a)
        seq_b = generate_sequence(dist, 200, b)
        np.testing.assert_array_equal(seq_a, seq_b)


class TestGenerateSequence:
    def test_zero_length(self):
        dist = build_alias([0.4, 0.6])
        seq = generate_sequence(dist, 0, np.random.default_rng(0))
        assert seq.size == 0

    def test_uniform_counts_within_binomial_bounds(self):
        dist = build_alias(np.full(10, 0.1))
        seq = generate_sequence(dist, 10**5, np.random.default_rng(7))
        counts = np.bincount(seq, minlength=10)
        assert counts.min() >= 9500 and counts.max() <= 10500

    def test_same_seed_identical(self):
        dist = build_alias([0.1, 0.2, 0.7])
        s1 = generate_sequence(dist, 1000, np.random.default_rng(9))
        s2 = generate_sequence(dist, 1000, np.random.default_rng(9))
        np.testing.assert_array_equal(s1, s2)

    def test_exchangeability_halves(self):
        # with-replacement draws: both halves see the same distribution
        p = np.array([0.15, 0.25, 0.6])
        dist = build_alias(p)
        seq = generate_sequence(dist, 2 * 10**5, np.random.default_rng(21))
        half = seq.size // 2
        f1 = np.bincount(seq[:half], minlength=3) / half
        f2 = np.bincount(seq[half:], minlength=3) / half
        assert np.max(np.abs(f1 - f2)) < 0.01

    def test_negative_length_rejected(self):
        dist = build_alias([1.0])
        with pytest.raises(DistributionError):
            generate_sequence(dist, -1, np.random.default_rng(0))


class TestProperties:
    @settings(deadline=None, max_examples=200)
    @given(weights(st.floats(1e-6, 1e6)), st.integers(-30, 30))
    def test_scaling_norms_by_a_power_of_two_keeps_the_probs(self, norms, k):
        norms = np.array(norms)
        base = build_alias(lipschitz_distribution(norms)).probs
        scaled = build_alias(lipschitz_distribution(norms * 2.0**k)).probs
        np.testing.assert_array_equal(scaled.view(np.int64), base.view(np.int64))

    @settings(deadline=None, max_examples=200)
    @given(weights(MASSES), st.integers(0, 2**32 - 1))
    def test_alias_tables_reproduce_probs_and_never_draw_a_zero(self, w, seed):
        w = np.array(w)
        dist = build_alias(w / w.sum())
        np.testing.assert_allclose(reconstructed(dist), dist.probs, rtol=0, atol=1e-12)
        seq = generate_sequence(dist, 2000, np.random.default_rng(seed))
        assert np.all(dist.probs[seq] > 0.0)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_importance_step_is_unbiased_by_enumeration(self, data):
        # E_p[(1 / (N p_i)) g_i] = mean(g): sum over every index i of p_i
        # times the step size train takes for i, times g_i.
        w = np.array(data.draw(st.lists(MASSES, min_size=1, max_size=50)))
        n = w.size
        p = w / w.sum()
        # A subnormal g_i has no relative precision left to keep in p_i * step * g_i.
        entry = st.floats(-1e3, 1e3, allow_subnormal=False)
        g = np.array(data.draw(st.lists(
            st.lists(entry, min_size=3, max_size=3), min_size=n, max_size=n)))
        mean_step = sum(p[i] * _step_size(1.0, n, p[i]) * g[i] for i in range(n))
        # Relative to mean |g|: the entries may cancel, so mean(g) can be 0.
        assert np.all(np.abs(mean_step - g.mean(axis=0))
                      <= 1e-12 * np.abs(g).mean(axis=0))
