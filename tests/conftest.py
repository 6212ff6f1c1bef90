import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def randomize(params, rng, scale=0.5):
    """Replace every block with same-shape normal noise (for oracles)."""
    return params.like(rng.normal(0.0, scale, params.vec.size))


def cores(n):
    """Mine as if the machine had ``n`` cores, so that up to ``n`` workers
    split the samples into that many shards on any machine."""
    return mock.patch("os.cpu_count", return_value=n)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
