"""Estimator plumbing: scikit-learn compatible parameter handling and
input-validation helpers shared by the fit-style classes."""

import dataclasses
import math
import numbers

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


# The type and range of every numeric setting, by the name a site checks it
# under: a flag's dest, a config field or a generator argument. An
# ``owner.name`` rule is that owner's own: zero epochs train nothing, a model
# reads any vocabulary (a generated one needs two indicators and two bands),
# and ``--frames-per-sample 0`` leaves the frames whole.
RANGES = {
    **dict.fromkeys(("epsilon", "target_loss", "lr", "clip"), (float, "> 0")),
    **dict.fromkeys(("n", "t_max", "epochs", "eval_every", "workers", "embed_dim",
                     "embed", "hidden", "classes", "context", "cd_k", "patterns",
                     "ModelSpec.vocab", "chunk_frames.frames_per_sample"), (int, ">= 1")),
    **dict.fromkeys(("seed", "warm_epochs", "frames_per_sample",
                     "TrainConfig.epochs"), (int, ">= 0")),
    **dict.fromkeys(("vocab", "nv", "n_v"), (int, ">= 4")),
    **dict.fromkeys(("hard", "hard_fraction"), (float, "in [0, 1]")),
}


def config_of(cls, settings, **given):
    """The dataclass ``cls`` with each ``given`` field as passed and every
    other field read by name from ``settings``: parsed CLI arguments or an
    estimator."""
    return cls(**{f.name: getattr(settings, f.name) for f in dataclasses.fields(cls)
                  if f.name not in given}, **given)


def check_ranges(values, error=ConfigError, label=str):
    """Check each ``{RANGES key: value}``: in range (NaN breaks every range),
    and, by its type, an integer or a finite number, never a bool. The error
    names the first that fails by ``label`` of the key's last dotted part."""
    for key, value in values.items():
        kind, rule = RANGES[key]
        op, bound = rule.split(" ", 1)  # "> x", ">= x" or "in [x, y]"
        low, high = map(float, bound.strip("[]").split(",") + ["inf"] * (op != "in"))
        name = label(key.rpartition(".")[2])
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if number and not (low < value <= high if op == ">" else low <= value <= high):
            raise error(f"{name} must be {rule}, got {value}")
        if not (number and (isinstance(value, numbers.Integral)
                            or kind is float and math.isfinite(value))):
            noun = "an integer" if kind is int else "a finite number"
            raise error(f"{name} must be {noun}, got {value!r}")


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
    entry (sampling weights); returns it as a float64 array scaled by a power
    of two to a largest entry in [0.5, 1), so that its sums stay finite."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DistributionError(f"{what} must be a non-empty 1-D vector")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise DistributionError(f"{what} must be finite and non-negative")
    if v.max() <= 0.0:
        raise DistributionError(f"all {what} are zero; distribution degenerate")
    return np.ldexp(v, -np.frexp(v.max())[1])
