"""Estimator plumbing: scikit-learn compatible parameter handling and
input-validation helpers shared by the fit-style classes."""

import dataclasses

import numpy as np

from .errors import ConfigError, DistributionError

PROB_SUM_TOL = 1e-9


class ParamsMixin:
    """get_params/set_params over the fields of a dataclass estimator.

    Duck-compatible with scikit-learn's ``BaseEstimator`` so the estimators
    here work with ``clone``, pipelines, and grid search without importing
    sklearn. The dataclass supplies ``__init__`` and ``__repr__``.
    """

    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"unknown parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self


def check_probs(probs, n=None, tol=PROB_SUM_TOL):
    """Validate a probability vector; returns it as a float64 array.

    Entries must be non-negative and sum to 1 within ``tol``.
    """
    p = np.ascontiguousarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DistributionError("probabilities must be a non-empty 1-D vector")
    if n is not None and p.size != n:
        raise DistributionError(f"expected {n} probabilities, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise DistributionError("probabilities contain non-finite entries")
    if np.any(p < 0):
        raise DistributionError("probabilities contain negative entries")
    total = float(p.sum())
    if total <= 0.0:
        raise DistributionError("probabilities sum to zero")
    if abs(total - 1.0) > tol:
        raise DistributionError(f"probabilities sum to {total}, not 1")
    return p


def check_weights(values, what):
    """Validate a non-empty, finite, non-negative 1-D vector with a positive
    sum (sampling weights); returns it as a float64 array."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DistributionError(f"{what} must be a non-empty 1-D vector")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise DistributionError(f"{what} must be finite and non-negative")
    if v.sum() <= 0.0:
        raise DistributionError(f"all {what} are zero; distribution degenerate")
    return v
