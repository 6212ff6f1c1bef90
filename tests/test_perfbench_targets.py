"""The benchmark's tracer wraps functions at module attributes named in
``perfbench/spans.py``. It skips a name that does not resolve, so a rename
would drop that span's figures without failing; every target must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", span_targets())
def test_span_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
