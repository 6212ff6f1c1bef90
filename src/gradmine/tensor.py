"""Dense float64 matrix/vector helpers and the nonlinearities the models share.

Matrices are 2-D, vectors 1-D ``numpy.float64`` arrays (row-major). All
operations are pure functions; nothing here mutates its arguments unless
asked to through ``out``.
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


def log_softmax(v, out=None):
    """log(softmax(v)) over the last axis, computed stably from the shifted
    logits; ``out=v`` computes it in place."""
    v = np.asarray(v, dtype=np.float64)
    shifted = np.subtract(v, np.max(v, axis=-1, keepdims=True), out=out)
    shifted -= np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def matvec(m, xs):
    """``m @ x`` for every vector ``x`` along the last axis of ``xs``, with
    ``m`` one matrix or one per row of ``xs`` (B, ..., n); each product has
    the bits of its own ``m @ x`` call."""
    if 2 < m.ndim <= xs.ndim:
        m = m[:, None]
    return np.matmul(m, xs[..., None])[..., 0]


def transpose(m):
    """``m.T``, or that of each matrix of a stack."""
    return np.swapaxes(m, -1, -2)


def embed(table, ids):
    """``table[ids]`` for (B, T) ids, from each row's own table if it has rows."""
    return table[np.arange(len(ids))[:, None], ids] if table.ndim == 3 else table[ids]


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


NORM_KINDS = ("frobenius", "spectral")


def matrix_norm(m, kind="frobenius"):
    """The ``kind`` norm of ``m``, one of ``NORM_KINDS``."""
    if kind not in NORM_KINDS:
        raise InvalidInputError(f"unknown norm kind: {kind!r}")
    return frobenius_norm(m) if kind == "frobenius" else spectral_norm(m)
