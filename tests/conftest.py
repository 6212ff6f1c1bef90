import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from gradmine.models import get_model, pack, validate_dataset

sys.path.insert(0, str(Path(__file__).parent))


def randomize(params, rng, scale=0.5):
    """Replace every block with same-shape normal noise (for oracles)."""
    return params.like(rng.normal(0.0, scale, params.vec.size))


def param_blocks(params):
    """name -> view of every block, in layout order."""
    return {name: getattr(params, name) for name, _ in params.layout}


def cores(n):
    """Mine as if the process could run on ``n`` CPUs, so that up to ``n``
    workers split the samples into that many shards on any machine."""
    return mock.patch("gradmine.fim.usable_cpus", return_value=n)


class OneSample:
    """The library's passes on one sample at a time, for tests written per
    sample: each call checks the sample as ``validate_dataset`` checks data
    entering the library, packs it as a one-row ``Batch`` and runs the
    model's ``forward`` or ``backward`` on that row. Traces are the
    library's, so every field leads with a batch axis of 1."""

    def __init__(self, spec):
        self.spec = spec
        self.model = get_model(spec)

    def init_params(self, seed):
        return self.model.init_params(seed)

    def row(self, sample):
        return pack(validate_dataset(self.spec, [sample]))

    def forward(self, params, sample, rng=None):
        return self.model.forward(params, self.row(sample), rng)

    def backward(self, params, sample, trace):
        """The sample's gradient, as ``Params``."""
        return params.like(self.model.backward(params, self.row(sample), trace)[0])

    def loss(self, params, sample, rng=None):
        return float(self.forward(params, sample, rng).losses[0])


def first_row(trace):
    """The only row of every field of a one-row library trace: one sample's
    trace, for oracles that read per-sample arrays. A trace of more rows is
    refused, as its fields need not share one row order (the LSTM's states
    are longest first, its losses in the caller's order)."""
    assert len(trace.losses) == 1, "first_row reads one-row traces only"
    return SimpleNamespace(**{f.name: getattr(trace, f.name)[0] for f in fields(trace)})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
