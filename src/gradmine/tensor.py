"""Dense float64 matrix/vector helpers and the nonlinearities the models share.

Matrices are 2-D, vectors 1-D ``numpy.float64`` arrays (row-major). All
operations are pure functions; nothing here mutates its arguments.
"""

import numpy as np

from .errors import InvalidInputError, ShapeError


def sigmoid(v):
    """Elementwise logistic function, overflow-safe on both tails.

    Branch-free: with ``e = exp(-|v|)`` it evaluates ``1 / (1 + e)`` where
    ``v >= 0`` and ``e / (1 + e)`` elsewhere, the same operations, and so
    the same bits, as evaluating each tail on its own entries.
    ``minimum(v, -v)`` is ``-|v|`` except that a NaN keeps its sign, as
    ``exp(v)`` on the negative tail would keep it.
    """
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(np.minimum(v, -v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def log_softmax(v):
    """log(softmax(v)) computed stably from the shifted logits."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def frobenius_norm(m):
    """Square root of the sum of squared entries; also valid for vectors."""
    return float(np.sqrt(np.sum(np.asarray(m, dtype=np.float64) ** 2)))


def spectral_norm(m):
    """Largest singular value of a 2-D matrix."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError("spectral_norm expects a 2-D matrix")
    if a.size == 0 or not np.any(a):
        return 0.0
    return float(np.linalg.norm(a, 2))


def matrix_norm(m, kind="frobenius"):
    """Dispatch between the supported matrix norms."""
    if kind == "frobenius":
        return frobenius_norm(m)
    if kind == "spectral":
        return spectral_norm(m)
    raise InvalidInputError(f"unknown norm kind: {kind!r}")
