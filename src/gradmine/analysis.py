"""Executable form of the variance-reduction theory on small instances.

Everything here is exact enumeration over the N per-sample gradients:
the variance of the reweighted stochastic gradient, the variance-optimal
sampling distribution (proportional to gradient norms), its practical
supremum-based stand-in, and the Cauchy-Schwarz ratio that predicts how
much non-uniform sampling can help. An L2-regularized squared-hinge
classifier serves as the analytic test case: its gradient-norm bound is
computable per point, so all four distributions can be compared.
"""

from dataclasses import dataclass

import numpy as np

from .base import check_probs, check_weights
from .errors import DistributionError, InvalidInputError


@dataclass
class ConvexProblem:
    """Points with +/-1 labels under squared-hinge loss + L2 penalty."""

    xs: np.ndarray  # (N, dim)
    ys: np.ndarray  # (N,) in {-1, +1}
    reg: float

    def __post_init__(self):
        self.xs = np.ascontiguousarray(self.xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(self.ys, dtype=np.float64)
        if self.xs.ndim != 2 or self.ys.shape != (self.xs.shape[0],):
            raise InvalidInputError("xs must be (N, dim) with matching labels")
        if not np.all(np.isin(self.ys, (-1.0, 1.0))):
            raise InvalidInputError("labels must be -1 or +1")
        if not self.reg > 0:
            raise InvalidInputError("reg must be > 0")

    @property
    def n(self):
        return int(self.xs.shape[0])

    @property
    def ball_radius(self):
        """Iterate-norm bound under which the gradient bound is provable."""
        return 1.0 / np.sqrt(self.reg)


def svm_loss_grad(problem, i, w):
    """Per-point squared hinge plus L2 term, and its gradient.

        f_i(w) = max(0, 1 - y_i x_i.w)^2 + (reg/2) ||w||^2
    """
    x, y = problem.xs[i], problem.ys[i]
    w = np.asarray(w, dtype=np.float64)
    margin = max(0.0, 1.0 - y * float(x @ w))
    loss = margin**2 + 0.5 * problem.reg * float(w @ w)
    grad = -2.0 * margin * y * x + problem.reg * w
    return loss, grad


def svm_lipschitz_bound(x, reg):
    """Gradient-norm bound for one point, valid on ||w|| <= reg^-1/2:

        2 (1 + ||x|| / sqrt(reg)) ||x|| + sqrt(reg)
    """
    nx = float(np.linalg.norm(x))
    return 2.0 * (1.0 + nx / np.sqrt(reg)) * nx + np.sqrt(reg)


def svm_bounds(problem):
    """Per-point gradient-norm bounds for the whole problem."""
    return np.array([svm_lipschitz_bound(x, problem.reg) for x in problem.xs])


def _normalized(values, what):
    v = check_weights(values, what)
    return v / v.sum()


def lipschitz_distribution(bounds):
    """Sampling probabilities proportional to per-sample gradient bounds."""
    return _normalized(bounds, "bounds")


def optimal_distribution(grads):
    """Variance-minimizing probabilities: proportional to gradient norms."""
    g = _as_grad_matrix(grads)
    return _normalized(np.linalg.norm(g, axis=1), "gradient norms")


def _as_grad_matrix(grads):
    g = np.ascontiguousarray(grads, dtype=np.float64)
    if g.ndim == 1:
        g = g[:, None]
    if g.ndim != 2 or g.shape[0] == 0:
        raise InvalidInputError("gradients must form a non-empty (N, dim) matrix")
    return g


def gradient_variance(grads, probs):
    """Exact variance of the reweighted single-sample gradient estimator.

    For index i drawn with probability p_i and estimator (N p_i)^-1 g_i,
    enumerates  sum_i p_i || (N p_i)^-1 g_i - mean(g) ||^2.
    """
    g = _as_grad_matrix(grads)
    n = g.shape[0]
    p = check_probs(probs, n=n)
    norms_sq = np.sum(g * g, axis=1)
    if np.any((p == 0.0) & (norms_sq > 0.0)):
        raise DistributionError("zero probability on a sample with gradient mass")
    mean = g.mean(axis=0)
    scaled = g / (n * p)[:, None]
    dev = scaled - mean
    return float(np.sum(p * np.sum(dev * dev, axis=1)))


def bound_ratio(values):
    """N * sum(v^2) / (sum v)^2, the predicted benefit of weighted sampling.

    Equals 1 exactly for constant vectors and grows with dispersion.
    """
    v = check_weights(values, "values")
    return float(v.size * np.sum(v * v) / v.sum() ** 2)


def svm_convexity_stats(problem, steps=5000, lr=None):
    """Informational (mu, sigma_sq, w_star) for the convex test case.

    mu is the L2 modulus; w_star is located by full-batch gradient descent;
    sigma_sq enumerates the mean squared per-point gradient norm there.
    """
    lr = lr if lr is not None else 0.5 / (1.0 + problem.reg)
    w = np.zeros(problem.xs.shape[1])
    for _ in range(steps):
        grad = np.mean(
            [svm_loss_grad(problem, i, w)[1] for i in range(problem.n)], axis=0
        )
        w -= lr * grad
        if np.linalg.norm(grad) < 1e-12:
            break
    sigma_sq = float(
        np.mean(
            [
                np.sum(svm_loss_grad(problem, i, w)[1] ** 2)
                for i in range(problem.n)
            ]
        )
    )
    return float(problem.reg), sigma_sq, w


def variance_report(grads, mined_norms=None, mined_probs=None):
    """Variance under the standard distributions, as a plain dict.

    ``mined`` uses the supplied table probabilities; ``lipschitz`` treats
    the mined norms as the per-sample gradient bounds. Entries that cannot
    be computed (absent table, degenerate distribution) are reported as
    None rather than failing.
    """
    g = _as_grad_matrix(grads)
    n = g.shape[0]

    def entry(value, given):
        try:
            return None if given is None else value(given)
        except DistributionError:
            return None

    norms = np.linalg.norm(g, axis=1) if mined_norms is None else mined_norms
    return {
        "uniform": gradient_variance(g, np.full(n, 1.0 / n)),
        "optimal": entry(lambda v: gradient_variance(v, optimal_distribution(v)), g),
        "mined": entry(lambda p: gradient_variance(g, p), mined_probs),
        "lipschitz": entry(
            lambda b: gradient_variance(g, lipschitz_distribution(b)), mined_norms),
        "bound_ratio": entry(bound_ratio, norms),
    }
