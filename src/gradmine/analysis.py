"""Executable form of the variance-reduction theory on small instances.

Everything here is exact enumeration over the N per-sample gradients:
the variance of the reweighted stochastic gradient, the variance-optimal
sampling distribution (proportional to gradient norms), its practical
supremum-based stand-in, and the Cauchy-Schwarz ratio that predicts how
much non-uniform sampling can help.
"""

import numpy as np

from .base import check_probs, check_weights
from .errors import DistributionError, InvalidInputError


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
    # One work buffer: each temporary past malloc's mmap threshold is mapped afresh.
    work = g * g
    if np.any((p == 0.0) & (work.sum(axis=1) > 0.0)):
        raise DistributionError("zero probability on a sample with gradient mass")
    mean = g.mean(axis=0)
    np.subtract(np.divide(g, (n * p)[:, None], out=work), mean, out=work)
    work *= work
    return float(np.sum(p * np.sum(work, axis=1)))


def bound_ratio(values):
    """N * sum(v^2) / (sum v)^2, the predicted benefit of weighted sampling.

    Equals 1 exactly for constant vectors and grows with dispersion.
    """
    v = check_weights(values, "values")
    return float(v.size * np.sum(v * v) / v.sum() ** 2)


def variance_report(grads, mined_norms=None, mined_probs=None):
    """Variance under the standard distributions, as a plain dict.

    ``mined`` uses the supplied table probabilities; ``lipschitz`` treats
    the mined norms as the per-sample gradient bounds: for a table mined
    here that is ``mined`` before the alias renormalization, so the two
    agree to rounding, but a loaded table's probs are not checked against
    its norms. Entries that cannot be computed (absent table, degenerate
    distribution) are reported as None rather than failing.
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
