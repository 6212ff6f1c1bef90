"""The benchmark's tracer wraps functions at module attributes named in
``perfbench/spans.py``. It skips a name that does not resolve, so a rename
would drop that span's figures without failing; every target must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gradmine import fim
from gradmine.data import gen_seqclass
from gradmine.models import ModelSpec, get_model, validate_dataset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", span_targets())
def test_span_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_mine_one_result_positions_match_the_table():
    # The tracer reads a private run's steps and convergence as result[2]
    # and result[3] of ``_mine_one``; they must be the table's entries.
    dataset = gen_seqclass(n=4, vocab=8, length_range=(3, 6), seed=2)
    spec = ModelSpec(kind="rnn", vocab=dataset.vocab, embed=3, hidden=4)
    cfg = fim.FimConfig(epsilon=0.3, lr=0.2, t_max=6)
    table = fim.mine_importance(dataset, spec, cfg, n_workers=1)
    params0 = get_model(spec).init_params(cfg.seed)
    samples = validate_dataset(spec, dataset)
    for i, sample in enumerate(samples):
        result = fim._mine_one((spec, sample, cfg, i, params0))
        assert result[0] == i
        assert result[2] == table.iterations[i]
        assert result[3] == table.converged[i]
