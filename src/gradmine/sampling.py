"""Weighted discrete sampling via Vose alias tables.

Construction is O(N); each draw is O(1). Training sequences are
materialized up front as arrays of sample indices drawn i.i.d. with
replacement from the distribution.
"""

from dataclasses import dataclass

import numpy as np

from .base import check_probs
from .errors import DistributionError


@dataclass
class SamplingDistribution:
    """Normalized probabilities plus the alias tables that realize them."""

    probs: np.ndarray  # (N,) normalized
    alias_prob: np.ndarray  # (N,) acceptance threshold per cell
    alias_idx: np.ndarray  # (N,) fallback index per cell

    @property
    def n(self):
        return int(self.probs.size)


def build_alias(probs):
    """Vose alias tables for a probability vector.

    The input must be non-negative and sum to 1 within 1e-9; it is
    renormalized exactly before table construction. Worklists are
    processed in ascending index order so construction is deterministic.
    """
    p = check_probs(probs)
    p = p / float(p.sum())

    n = p.size
    scaled = p * n
    alias_prob = np.ones(n)
    alias_idx = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    si = li = 0
    while si < len(small) and li < len(large):
        s, l = small[si], large[li]
        si += 1
        alias_prob[s] = scaled[s]
        alias_idx[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
            li += 1
    # Leftover cells (including float residue) become full cells.
    return SamplingDistribution(probs=p, alias_prob=alias_prob, alias_idx=alias_idx)


def generate_sequence(dist, length, rng):
    """``length`` i.i.d. draws, materialized up front.

    Vectorized: one batch of cell picks, one batch of acceptance draws.
    """
    if length < 0:
        raise DistributionError("length must be >= 0")
    idx = rng.integers(dist.n, size=length)
    accept = rng.random(length) < dist.alias_prob[idx]
    return np.where(accept, idx, dist.alias_idx[idx]).astype(np.int64)
