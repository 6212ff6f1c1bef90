"""``scripts/harness.py``: how every script under ``scripts/`` runs a tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
import harness  # noqa: E402


def test_pairs_alternate_the_given_order_and_its_reverse():
    for trees in (["a", "b"], ["a", "b", "c"]):
        assert [harness.pair_order(trees, pair) for pair in range(4)] == [
            trees, trees[::-1], trees, trees[::-1]]


def test_a_run_imports_the_tree_at_one_blas_thread_writing_no_bytecode(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    for name in harness.BLAS_THREADS:
        monkeypatch.setenv(name, "4")
    names = ["PYTHONPATH", "PYTHONDONTWRITEBYTECODE", *harness.BLAS_THREADS]
    code = f"import json, os\nprint(json.dumps([os.environ[n] for n in {names!r}]))"
    assert harness.run_fresh(".", code) == [
        str(tmp_path.resolve() / "src"), "1", *["1"] * len(harness.BLAS_THREADS)]


def test_a_failed_run_names_its_tree_and_exit_code(tmp_path):
    tree = re.escape(str(tmp_path))
    with pytest.raises(SystemExit, match=f"^{tree} 7: exit 3$"):
        harness.run_fresh(tmp_path, "import sys; sys.exit(3)", 7)


def test_a_hung_run_names_its_tree(tmp_path):
    tree = re.escape(str(tmp_path))
    with pytest.raises(SystemExit, match=f"^{tree}: timed out after 1 s$"):
        harness.run_fresh(tmp_path, "import time; time.sleep(60)", timeout=1)


def test_importing_the_harness_leaves_no_cache_under_perfbench(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path)
    code = f"import sys\nsys.path.insert(0, {str(SCRIPTS)!r})\nimport harness"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert any(tmp_path.rglob("harness.*.pyc"))  # bytecode is written here
    assert not [p for p in tmp_path.rglob("*.pyc") if "perfbench" in p.parts]


def test_every_script_prints_its_help():
    for script in sorted(SCRIPTS.glob("*.py")):
        proc = subprocess.run([sys.executable, "-B", str(script), "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (script.name, proc.stderr)


def test_wins_count_the_single_lowest_value_of_each_pair_and_ties():
    pairs = [{"parent": {"train_s": 1.2, "loss": 0.5}, "change": {"train_s": 1.0, "loss": 0.5}},
             {"change": {"train_s": 1.1, "loss": 0.5}, "parent": {"train_s": 1.3, "loss": 0.5}},
             {"parent": {"train_s": 0.9, "loss": 0.4}, "change": {"train_s": 0.9, "loss": 0.5}},
             {"change": {"train_s": 1.0, "loss": 0.5}, "parent": {"train_s": 0.95, "loss": 0.5}}]
    assert harness.wins(pairs) == {
        "train_s": {"parent": 1, "change": 2, "ties": 1},
        "loss": {"parent": 1, "change": 0, "ties": 3}}


def test_perf_pairs_refuses_trees_whose_benchmarks_differ(tmp_path):
    import perf_pairs

    for tree, text in (("a", "x = 1\n"), ("b", "x = 2\n")):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "perfbench" / "run.py").write_text(text)
    a, b = tmp_path / "a", tmp_path / "b"
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(a))} and "
                                         f"{re.escape(str(b))} differ in perfbench/: run.py$"):
        perf_pairs.main(["--src", str(a), "--src", str(b), "--out", str(out)])
    assert not out.exists()
    perf_pairs.same_benchmark([str(a), str(a)])  # the same files pass
