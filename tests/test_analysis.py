import warnings

import numpy as np
import pytest

from gradmine.analysis import (
    bound_ratio,
    gradient_variance,
    lipschitz_distribution,
    optimal_distribution,
    variance_report,
)
from gradmine.errors import DistributionError

from convex import ConvexProblem, svm_lipschitz_bound, svm_loss_grad


def random_problem(rng, n=8, dim=5, reg=0.5):
    return ConvexProblem(
        xs=rng.normal(size=(n, dim)),
        ys=rng.choice([-1.0, 1.0], size=n),
        reg=reg,
    )


class TestSvmLossGrad:
    def test_satisfied_margin_leaves_only_regularizer(self, rng):
        prob = random_problem(rng)
        # scale w along y*x so the margin is comfortably met
        i = 0
        x, y = prob.xs[i], prob.ys[i]
        w = 2.0 * y * x / (x @ x)
        loss, grad = svm_loss_grad(prob, i, w)
        np.testing.assert_array_equal(grad, prob.reg * w)
        assert abs(loss - 0.5 * prob.reg * (w @ w)) < 1e-12

    def test_zero_weight_vector(self, rng):
        prob = random_problem(rng)
        for i in range(prob.n):
            loss, grad = svm_loss_grad(prob, i, np.zeros(5))
            assert abs(loss - 1.0) < 1e-12
            np.testing.assert_allclose(grad, -2.0 * prob.ys[i] * prob.xs[i])

    def test_finite_difference_agreement(self, rng):
        prob = random_problem(rng)
        for _ in range(20):
            i = int(rng.integers(prob.n))
            w = rng.normal(size=5)
            _, grad = svm_loss_grad(prob, i, w)
            num = np.zeros(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = 1e-6
                num[j] = (
                    svm_loss_grad(prob, i, w + e)[0] - svm_loss_grad(prob, i, w - e)[0]
                ) / 2e-6
            np.testing.assert_allclose(grad, num, atol=1e-6)


class TestLipschitzBound:
    def test_zero_point(self):
        assert abs(svm_lipschitz_bound(np.zeros(3), 0.5) - np.sqrt(0.5)) < 1e-15

    def test_unit_point_unit_reg(self):
        x = np.array([1.0, 0.0])
        assert abs(svm_lipschitz_bound(x, 1.0) - 5.0) < 1e-12

    def test_monte_carlo_domination(self, rng):
        prob = random_problem(rng, n=6, reg=0.7)
        bounds = [svm_lipschitz_bound(x, prob.reg) for x in prob.xs]
        radius = 1.0 / np.sqrt(prob.reg)
        for _ in range(10**4):
            w = rng.normal(size=5)
            w *= rng.random() * radius / np.linalg.norm(w)
            i = int(rng.integers(prob.n))
            _, grad = svm_loss_grad(prob, i, w)
            assert np.linalg.norm(grad) <= bounds[i]


class TestDistributions:
    def test_lipschitz_distribution_hand_case(self):
        np.testing.assert_allclose(
            lipschitz_distribution([1.0, 2.0, 3.0]), [1 / 6, 1 / 3, 1 / 2]
        )

    def test_lipschitz_distribution_uniform_for_equal(self):
        np.testing.assert_allclose(lipschitz_distribution([2.0] * 4), 0.25)

    def test_lipschitz_distribution_normalizes(self, rng):
        p = lipschitz_distribution(rng.random(50))
        assert abs(p.sum() - 1.0) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(DistributionError):
            lipschitz_distribution([0.0, 0.0])

    def test_bounds_near_the_float_max_give_finite_probs(self):
        # Their sum overflows; check_weights scales them by a power of two.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = lipschitz_distribution([1e308, 1e308])
        np.testing.assert_array_equal(p, [0.5, 0.5])

    def test_optimal_distribution_hand_case(self):
        grads = np.array([[1.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(optimal_distribution(grads), [0.25, 0.75])

    def test_optimal_distribution_uniform_for_equal_norms(self):
        grads = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(optimal_distribution(grads), 1 / 3)


class TestGradientVariance:
    def test_identical_gradients_uniform(self):
        g = np.tile([1.0, 2.0], (4, 1))
        assert gradient_variance(g, np.full(4, 0.25)) == 0.0

    def test_hand_case(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(gradient_variance(g, np.array([0.5, 0.5])) - 1.0) < 1e-15

    def test_monte_carlo_cross_check(self, rng):
        n, dim = 6, 4
        g = rng.normal(size=(n, dim))
        p = rng.dirichlet(np.ones(n))
        exact = gradient_variance(g, p)
        draws = rng.choice(n, size=10**6, p=p)
        est = g[draws] / (n * p[draws])[:, None] - g.mean(axis=0)
        mc = float(np.mean(np.sum(est * est, axis=1)))
        assert abs(mc - exact) / exact < 0.01

    def test_optimality_of_norm_proportional_probs(self, rng):
        g = rng.normal(size=(16, 6))
        p_star = optimal_distribution(g)
        best = gradient_variance(g, p_star)
        assert best <= gradient_variance(g, np.full(16, 1 / 16)) + 1e-10
        for _ in range(1000):
            q = rng.dirichlet(np.ones(16))
            excess = gradient_variance(g, q) - best
            assert excess >= -1e-10
            # equality only at the optimum itself
            if np.max(np.abs(q - p_star)) > 1e-6:
                assert excess > 0.0

    def test_uniform_gap_strict_when_norms_differ(self, rng):
        for _ in range(10):
            g = rng.normal(size=(8, 4))
            gap = gradient_variance(g, np.full(8, 1 / 8)) - gradient_variance(
                g, optimal_distribution(g)
            )
            assert gap > 0.0
        equal = np.eye(4)[:3]  # distinct directions, equal norms
        gap = gradient_variance(equal, np.full(3, 1 / 3)) - gradient_variance(
            equal, optimal_distribution(equal)
        )
        assert abs(gap) < 1e-15

    def test_zero_prob_with_mass_rejected(self):
        g = np.array([[1.0], [1.0]])
        with pytest.raises(DistributionError):
            gradient_variance(g, np.array([1.0, 0.0]))


class TestBoundRatio:
    def test_constant_vector(self):
        assert abs(bound_ratio([1.0, 1.0, 1.0, 1.0]) - 1.0) < 1e-12

    def test_single_spike(self):
        assert abs(bound_ratio([1.0, 0.0, 0.0, 0.0]) - 4.0) < 1e-12

    def test_values_near_the_float_max(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bound_ratio([1e308, 1e308]) == 1.0

    def test_always_at_least_one(self, rng):
        for _ in range(10**4):
            v = rng.random(int(rng.integers(1, 20)))
            assert bound_ratio(v + 1e-12) >= 1.0 - 1e-12


class TestVarianceReport:
    def test_identical_gradients_all_zero(self):
        g = np.tile([2.0, -1.0], (5, 1))
        report = variance_report(g, mined_norms=np.ones(5), mined_probs=np.full(5, 0.2))
        assert report["uniform"] == 0.0
        assert report["optimal"] == 0.0
        assert report["mined"] == 0.0
        assert report["lipschitz"] == 0.0
        assert abs(report["bound_ratio"] - 1.0) < 1e-12

    def test_optimal_never_exceeds_uniform(self, rng):
        for _ in range(10):
            g = rng.normal(size=(12, 5))
            report = variance_report(g)
            assert report["optimal"] <= report["uniform"] + 1e-10

    def test_all_zero_gradients_have_no_optimal_or_bound_ratio(self):
        report = variance_report(np.zeros((4, 3)))
        assert report["uniform"] == 0.0
        assert report["optimal"] is None and report["bound_ratio"] is None

    def test_zero_mined_norms_have_no_lipschitz_or_bound_ratio(self, rng):
        g = rng.normal(size=(4, 3))
        report = variance_report(g, mined_norms=np.zeros(4), mined_probs=np.full(4, 0.25))
        assert report["lipschitz"] is None and report["bound_ratio"] is None
        assert report["mined"] == report["uniform"]

    @pytest.mark.parametrize("probs", [np.full(4, 0.3), np.array([0.5, 0.5, 0.0, 0.0])],
                             ids=["sum-not-1", "zero-on-gradient-mass"])
    def test_unusable_mined_probs_give_no_mined(self, rng, probs):
        report = variance_report(rng.normal(size=(4, 3)), mined_probs=probs)
        assert report["mined"] is None
        assert report["optimal"] is not None

    @pytest.mark.parametrize("table", [False, True])
    def test_key_order(self, rng, table):
        kw = dict(mined_norms=np.ones(4), mined_probs=np.full(4, 0.25)) if table else {}
        report = variance_report(rng.normal(size=(4, 3)), **kw)
        assert list(report) == ["uniform", "optimal", "mined", "lipschitz", "bound_ratio"]

    def test_missing_table_reports_none(self, rng):
        report = variance_report(rng.normal(size=(4, 3)))
        assert report["mined"] is None and report["lipschitz"] is None
        assert set(report) == {"uniform", "optimal", "mined", "lipschitz", "bound_ratio"}
