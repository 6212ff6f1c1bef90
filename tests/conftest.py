import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def randomize(params, rng, scale=0.5):
    """Replace every block with same-shape normal noise (for oracles)."""
    return params.like(rng.normal(0.0, scale, params.vec.size))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
