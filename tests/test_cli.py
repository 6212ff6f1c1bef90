import functools
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradmine import cli
from gradmine.data import load_dataset
from gradmine.fim import ImportanceTable, load_importance, save_importance
from gradmine.models import ModelSpec, get_model
from gradmine.optimizer import load_metrics

from conftest import cores


def run(argv):
    return cli.main(argv)


def gen_args(path, n=12, vocab=10, extra=()):
    return [
        "gen", "--task", "seqclass", "--n", str(n), "--vocab", str(vocab),
        "--len-min", "4", "--len-max", "8", "--hard", "0.25", "--seed", "7",
        "--out", str(path), *extra,
    ]


def pianoroll_file(path):
    run([
        "gen", "--task", "pianoroll", "--n", "4", "--nv", "6",
        "--len-min", "4", "--len-max", "6", "--seed", "3", "--out", str(path),
    ])
    return path


def uniform_table_file(path, n, model="rnn"):
    selector = get_model(ModelSpec(kind=model, vocab=n)).base_selector
    table = ImportanceTable(
        model=model, base_selector=selector, epsilon=1.0, seed=0,
        norm_kind="frobenius", norms=np.ones(n), probs=np.full(n, 1.0 / n),
        iterations=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool),
    )
    save_importance(path, table)
    return path


def recorded_loads(monkeypatch):
    """The paths of every dataset or table the CLI loads from now on."""
    loads = []
    monkeypatch.setattr(cli.data, "load_dataset", loads.append)
    monkeypatch.setattr(cli.fim, "load_importance", loads.append)
    return loads


class TestGen:
    def test_writes_dataset_manifest_and_run_record(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run(gen_args(out)) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["n_samples"] == 12
        assert load_dataset(out).vocab == 10
        record = json.loads((tmp_path / "d.jsonl.run.json").read_text())
        assert record["outputs"] == [str(out)]

    def test_run_record_holds_the_gradmine_command(self, tmp_path):
        out = tmp_path / "my data.jsonl"
        argv = gen_args(out)
        assert run(argv) == 0
        record = json.loads((tmp_path / "my data.jsonl.run.json").read_text())
        assert record["command"] == shlex.join(["gradmine", *argv])
        assert "argv" not in record["config"]

    def test_run_record_names_numpy_and_its_blas_build(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run(gen_args(out)) == 0
        record = json.loads((tmp_path / "d.jsonl.run.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert record["library"] == {"numpy": np.__version__, "blas": blas}

    def test_zero_samples_exits_2(self, tmp_path):
        assert run(gen_args(tmp_path / "d.jsonl", n=0)) == 2

    @pytest.mark.parametrize("task, flag, value, message", [
        ("seqclass", "--n", "0", "--n must be >= 1, got 0"),
        ("seqclass", "--vocab", "3", "--vocab must be >= 4, got 3"),
        ("pianoroll", "--nv", "0", "--nv must be >= 4, got 0"),
        ("pianoroll", "--patterns", "0", "--patterns must be >= 1, got 0"),
        ("pianoroll", "--frames-per-sample", "-2",
         "--frames-per-sample must be >= 0, got -2"),
        ("seqclass", "--len-min", "1", "--len-min and --len-max must satisfy "
         "2 <= --len-min <= --len-max, got 1 and 8"),
        ("pianoroll", "--len-min", "0", "--len-min and --len-max must satisfy "
         "1 <= --len-min <= --len-max, got 0 and 8"),
        ("seqclass", "--len-max", "3", "--len-min and --len-max must satisfy "
         "2 <= --len-min <= --len-max, got 4 and 3"),
        ("seqclass", "--hard", "1.5", "--hard must be in [0, 1], got 1.5"),
    ])
    def test_flag_out_of_range_exits_2_naming_it(self, tmp_path, capsys, task,
                                                 flag, value, message):
        out = tmp_path / "d.jsonl"
        args = {"--task": task, "--n": "4", "--len-min": "4", "--len-max": "8",
                flag: value}
        code = run(["gen", *[a for kv in args.items() for a in kv], "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_same_args_identical_file_hash(self, tmp_path):
        h = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run(gen_args(out)) == 0
            h.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert h[0] == h[1]

    def test_missing_output_directory_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "d.jsonl"
        assert run(gen_args(out)) == 2
        err = capsys.readouterr().err
        assert f"'{out}'" in err and ".tmp" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_output_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        out.mkdir()
        assert run(gen_args(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err and ".tmp" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_frames_per_sample_without_pianoroll_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run(gen_args(out, extra=["--frames-per-sample", "5"])) == 2
        err = capsys.readouterr().err
        assert "--frames-per-sample" in err and "--task pianoroll" in err
        assert not list(tmp_path.iterdir())

    def test_pianoroll_gen(self, tmp_path):
        out = tmp_path / "p.jsonl"
        code = run([
            "gen", "--task", "pianoroll", "--n", "4", "--nv", "8",
            "--len-min", "6", "--len-max", "10", "--seed", "1",
            "--frames-per-sample", "4", "--out", str(out),
        ])
        assert code == 0
        ds = load_dataset(out)
        assert ds.kind == "pianoroll"
        assert all(s.length <= 4 for s in ds)


class TestMine:
    def test_mine_writes_table_and_summary(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "imp.json"
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.05",
            "--lr", "0.2", "--seed", "0", "--workers", "1",
            "--embed-dim", "4", "--hidden", "5", "--out", str(out),
        ])
        assert code == 0
        assert "mined 12 samples" in capsys.readouterr().out
        table = load_importance(out)
        assert table.n == 12

    def test_huge_epsilon_warns_uniform(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "imp.json"
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "1e9",
            "--workers", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert "uniform" in capsys.readouterr().err
        table = load_importance(out)
        np.testing.assert_allclose(table.probs, 1 / 12, atol=1e-12)

    def test_zero_workers_exits_2_without_writing(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "imp.json"
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.05",
            "--workers", "0", "--embed-dim", "4", "--hidden", "5",
            "--out", str(out),
        ])
        assert code == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "imp.json.run.json").exists()

    def test_divergence_in_a_pool_worker_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "imp.json"
        with cores(2):
            code = run([
                "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.001",
                "--lr", "1e300", "--workers", "2", "--embed-dim", "4",
                "--hidden", "5", "--out", str(out),
            ])
        assert code == 3
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "imp.json.run.json").exists()

    def test_diverging_lstm_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data, n=6))
        out = tmp_path / "imp.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "mine", "--data", str(data), "--model", "lstm", "--epsilon", "0.01",
                "--lr", "1e300", "--workers", "1", "--out", str(out),
            ])
        assert code == 3
        assert "private training diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        (tmp_path / "d.jsonl.manifest.json").write_text("[1]\n")
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.05",
            "--workers", "1", "--out", str(tmp_path / "i.json"),
        ])
        assert code == 2
        assert "d.jsonl.manifest.json" in capsys.readouterr().err

    def test_model_dataset_mismatch_exits_2(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        code = run([
            "mine", "--data", str(data), "--model", "rnnrbm", "--epsilon", "0.1",
            "--hidden", "4", "--context", "3", "--out", str(tmp_path / "i.json"),
        ])
        assert code == 2

    def test_missing_dataset_exits_2(self, tmp_path):
        code = run([
            "mine", "--data", str(tmp_path / "nope.jsonl"), "--epsilon", "0.1",
            "--out", str(tmp_path / "imp.json"),
        ])
        assert code == 2

    def test_epsilon_required_unless_target_loss(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        code = run(["mine", "--data", str(data), "--out", str(tmp_path / "i.json")])
        assert code == 2

    def test_target_loss_sets_epsilon_two_orders_below(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "i.json"
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--target-loss", "30",
            "--t-max", "3", "--embed-dim", "4", "--hidden", "5", "--out", str(out),
        ])
        assert code == 0
        assert load_importance(out).epsilon == pytest.approx(0.3, rel=1e-15)

    def test_epsilon_and_target_loss_together_exit_2_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        capsys.readouterr()
        loads = recorded_loads(monkeypatch)
        before = set(tmp_path.iterdir())
        code = run(["mine", "--data", str(data), "--epsilon", "0.2",
                    "--target-loss", "30", "--out", str(tmp_path / "i.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--epsilon" in err and "--target-loss" in err
        assert loads == []
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("target", ["-1", "0", "nan"])
    def test_target_loss_that_is_not_positive_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, target):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        loads = []
        monkeypatch.setattr(cli.data, "load_dataset",
                            lambda *a, **k: loads.append(a))
        before = set(tmp_path.iterdir())
        code = run([
            "mine", "--data", str(data), "--model", "rnn",
            "--target-loss", target, "--out", str(tmp_path / "i.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--target-loss must be > 0, got {float(target)}" in err
        assert loads == []
        assert set(tmp_path.iterdir()) == before

    def test_spectral_norm_of_a_vector_block_exits_2_before_mining(
            self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        capsys.readouterr()
        mined = []
        monkeypatch.setattr(cli.fim, "_mine_rows", mined.append)
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.05",
            "--base-selector", "b_h", "--norm-kind", "spectral", "--workers", "1",
            "--embed-dim", "4", "--hidden", "5", "--out", str(tmp_path / "i.json"),
        ])
        assert code == 2
        assert "spectral_norm expects a 2-D matrix" in capsys.readouterr().err
        assert mined == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon", "-1", "--epsilon must be > 0, got -1.0"),
        ("--epsilon", "nan", "--epsilon must be > 0, got nan"),
        ("--epsilon", "inf", "--epsilon must be a finite number, got inf"),
        ("--lr", "-1", "--lr must be > 0, got -1.0"),
        ("--t-max", "0", "--t-max must be >= 1, got 0"),
        ("--workers", "0", "--workers must be >= 1, got 0"),
        ("--target-loss", "0", "--target-loss must be > 0, got 0.0"),
    ])
    def test_flag_out_of_range_exits_2_naming_it_before_the_load(
            self, tmp_path, capsys, monkeypatch, flag, value, message):
        loads = recorded_loads(monkeypatch)
        args = {"--epsilon": "0.1", flag: value}
        code = run(["mine", "--data", str(tmp_path / "missing.jsonl"),
                    *[a for kv in args.items() for a in kv],
                    "--out", str(tmp_path / "i.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []


class TestTrain:
    def test_uniform_training_writes_metrics(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--model", "rnn", "--lr", "0.2",
            "--epochs", "2", "--seed", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(out),
        ])
        assert code == 0
        log = load_metrics(out)
        assert [r.epoch for r in log.rows] == [1, 2]

    def test_malformed_table_field_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "bad.json", n=12)
        imp.write_text(json.dumps({**json.loads(imp.read_text()), "epsilon": "abc"}))
        code = run([
            "train", "--data", str(data), "--model", "rnn",
            "--sampler", "importance", "--importance", str(imp),
            "--epochs", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_table_no_config_can_mine_exits_2_naming_the_field(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "bad.json", n=12)
        imp.write_text(json.dumps({**json.loads(imp.read_text()), "seed": -1}))
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--model", "rnn",
            "--sampler", "importance", "--importance", str(imp),
            "--epochs", "1", "--embed-dim", "4", "--hidden", "5", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: importance file: seed must be >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("norm_kind", "bogus"), ("base_selector", "no_such_block"),
    ])
    def test_table_naming_no_norm_or_block_exits_2(
            self, tmp_path, capsys, field, value):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "bad.json", n=12)
        imp.write_text(json.dumps({**json.loads(imp.read_text()), field: value}))
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--model", "rnn",
            "--sampler", "importance", "--importance", str(imp),
            "--epochs", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(out),
        ])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_importance_length_mismatch_exits_2(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=5)
        code = run([
            "train", "--data", str(data), "--model", "rnn",
            "--sampler", "importance", "--importance", str(imp),
            "--epochs", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--sampler", "importance", "--epochs", "1"]),
        ("compare", ["--epochs", "1"]),
        ("variance", []),
    ], ids=["train", "compare", "variance"])
    def test_table_mined_for_another_model_exits_2(
            self, tmp_path, capsys, command, extra):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=12)  # model "rnn"
        out = tmp_path / "out"
        code = run([
            command, "--data", str(data), "--model", "lstm",
            "--importance", str(imp), *extra, "--embed-dim", "4", "--hidden", "5",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "'rnn'" in err and "'lstm'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_zero_epochs_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=12)
        code = run([
            command, "--data", str(data), "--model", "rnn", "--epochs", "0",
            "--importance", str(imp), "--embed-dim", "4", "--hidden", "5",
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2
        assert "--epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "-1", "--lr must be > 0, got -1.0"),
        ("--lr", "nan", "--lr must be > 0, got nan"),
        ("--epochs", "0", "--epochs must be >= 1, got 0"),
        ("--eval-every", "0", "--eval-every must be >= 1, got 0"),
        ("--cd-k", "0", "--cd-k must be >= 1, got 0"),
    ])
    def test_flag_out_of_range_exits_2_naming_it_before_the_load(
            self, tmp_path, capsys, monkeypatch, flag, value, message):
        loads = recorded_loads(monkeypatch)
        code = run(["train", "--data", str(tmp_path / "missing.jsonl"),
                    flag, value, "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []

    def test_svg_writes_chart_and_run_records(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out, svg = tmp_path / "m.csv", tmp_path / "m.svg"
        code = run([
            "train", "--data", str(data), "--model", "rnn", "--lr", "0.2",
            "--epochs", "2", "--embed-dim", "4", "--hidden", "5",
            "--metric", "error_rate", "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        assert svg.read_text().startswith("<svg")
        for path in (out, svg):
            record = json.loads((tmp_path / (path.name + ".run.json")).read_text())
            assert record["outputs"] == [str(out), str(svg)]
            assert list(record["inputs"]) == [str(data), f"{data}.manifest.json"]

    def test_every_output_gets_the_same_run_record(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out, svg = tmp_path / "m.csv", tmp_path / "m.svg"
        code = run([
            "train", "--data", str(data), "--model", "rnn", "--lr", "0.2",
            "--epochs", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        records = [(tmp_path / (p.name + ".run.json")).read_bytes() for p in (out, svg)]
        assert records[0] == records[1]

    @pytest.mark.parametrize("clip", ["0", "-1", "nan"])
    def test_clip_that_is_not_positive_exits_2(self, tmp_path, capsys, clip):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=12)
        code = run([
            "train", "--data", str(data), "--model", "rnn", "--epochs", "1",
            "--embed-dim", "4", "--hidden", "5", "--sampler", "importance",
            "--importance", str(imp), "--clip", clip, "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 2
        assert "clip" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_eval_data_writes_eval_rows(self, tmp_path):
        data, held = tmp_path / "d.jsonl", tmp_path / "e.jsonl"
        run(gen_args(data))
        run(gen_args(held, n=5))
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--eval-data", str(held),
            "--model", "rnn", "--lr", "0.2", "--epochs", "2",
            "--embed-dim", "4", "--hidden", "5", "--out", str(out),
        ])
        assert code == 0
        log = load_metrics(out)
        assert [(r.epoch, r.split) for r in log.rows] == [
            (1, "train"), (1, "eval"), (2, "train"), (2, "eval")]
        record = json.loads((tmp_path / "m.csv.run.json").read_text())
        assert list(record["inputs"]) == [str(data), f"{data}.manifest.json",
                                          str(held), f"{held}.manifest.json"]

    @pytest.mark.parametrize("where", ["dataset", "iterations", "norms"])
    def test_integer_beyond_numpy_exits_2_naming_where(self, tmp_path, capsys, where):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=12)
        if where == "dataset":
            lines = data.read_text().splitlines()
            lines[1] = json.dumps({"tokens": [10**20, 2], "label": 0})
            data.write_text("\n".join(lines) + "\n")
        else:
            payload = json.loads(imp.read_text())
            payload[where][0] = 10**20 if where == "iterations" else 10**400
            imp.write_text(json.dumps(payload))
        capsys.readouterr()
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--model", "rnn",
            "--sampler", "importance", "--importance", str(imp),
            "--epochs", "1", "--embed-dim", "4", "--hidden", "5", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert ("line 2: " if where == "dataset" else "importance file") in err
        assert not out.exists()

    def test_rbm_preset_regroups_and_sets_step_size(self, tmp_path):
        data = tmp_path / "p.jsonl"
        run([
            "gen", "--task", "pianoroll", "--n", "2", "--nv", "6",
            "--len-min", "60", "--len-max", "80", "--seed", "4", "--out", str(data),
        ])
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--model", "rnnrbm", "--epochs", "1",
            "--hidden", "4", "--context", "3", "--rbm-preset", "50",
            "--out", str(out),
        ])
        assert code == 0
        record = json.loads((tmp_path / "m.csv.run.json").read_text())
        assert record["config"]["lr"] == 0.3

    @pytest.mark.parametrize("lr", ["0.3", "0.5"])  # 0.5 is the default
    def test_rbm_preset_and_lr_together_exit_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, lr):
        loads = recorded_loads(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(tmp_path / "p.jsonl"), "--model", "rnnrbm",
                 "--rbm-preset", "100", "--lr", lr, "--out", str(tmp_path / "m.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--rbm-preset" in err and "--lr" in err
        assert loads == []
        assert list(tmp_path.iterdir()) == []

    def test_target_ids_above_every_token_fit_without_manifest(self, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"tokens": [0, 1, 1], "targets": [1, 2, 3]}) + "\n")
        code = run([
            "train", "--data", str(data), "--model", "rnn", "--epochs", "1",
            "--embed-dim", "3", "--hidden", "4", "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 0

    def test_divergence_exits_3(self, tmp_path):
        data = tmp_path / "p.jsonl"
        run([
            "gen", "--task", "pianoroll", "--n", "6", "--nv", "6",
            "--len-min", "4", "--len-max", "6", "--seed", "3", "--out", str(data),
        ])
        code = run([
            "train", "--data", str(data), "--model", "rnnrbm", "--lr", "1e4",
            "--epochs", "3", "--hidden", "4", "--context", "3",
            "--out", str(tmp_path / "m.csv"),
        ])
        assert code == 3

    def test_diverging_lstm_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data, n=6))
        out = tmp_path / "m.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run([
                "train", "--data", str(data), "--model", "lstm", "--lr", "1e300",
                "--epochs", "2", "--out", str(out),
            ])
        assert code == 3
        assert "non-finite loss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("vocab", "abc"), ("n_samples", None)])
    def test_manifest_count_that_is_not_an_integer_exits_2(
            self, tmp_path, capsys, key, value):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        manifest = tmp_path / "d.jsonl.manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        capsys.readouterr()
        out = tmp_path / "m.csv"
        code = run(["train", "--data", str(data), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert f"d.jsonl.manifest.json: {key} must be a JSON integer" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_table_copied_over_the_manifest_exits_2_naming_file_and_key(
            self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        shutil.copy(uniform_table_file(tmp_path / "t.json", n=12),
                    tmp_path / "d.jsonl.manifest.json")
        capsys.readouterr()
        out = tmp_path / "m.csv"
        code = run(["train", "--data", str(data), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {data}.manifest.json: unknown key 'model'\n")
        assert not out.exists()

    def test_uniform_run_given_a_missing_table_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        loads = recorded_loads(monkeypatch)
        imp = tmp_path / "missing.json"
        code = run(["train", "--data", str(data), "--importance", str(imp),
                    "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{imp}'\n")
        assert loads == [] and sorted(tmp_path.iterdir()) == before

    def test_run_record_hashes_the_inputs_as_they_were_before_the_run(
            self, tmp_path, monkeypatch):
        data, held = tmp_path / "d.jsonl", tmp_path / "e.jsonl"
        run(gen_args(data))
        run(gen_args(held, n=5))
        imp = uniform_table_file(tmp_path / "t.json", n=12)
        inputs = [data, Path(f"{data}.manifest.json"), imp, held,
                  Path(f"{held}.manifest.json")]
        hashes = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}
        save_metrics = cli.optimizer.save_metrics

        def save_then_append_to_the_data(path, log):
            save_metrics(path, log)
            with open(data, "a") as fh:
                fh.write("\n")

        monkeypatch.setattr(cli.optimizer, "save_metrics", save_then_append_to_the_data)
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--model", "rnn", "--epochs", "1",
            "--embed-dim", "4", "--hidden", "5", "--importance", str(imp),
            "--eval-data", str(held), "--out", str(out),
        ])
        assert code == 0
        assert data.read_bytes().endswith(b"\n\n")
        record = json.loads((tmp_path / "m.csv.run.json").read_text())
        assert list(record["inputs"].items()) == list(hashes.items())

    @pytest.mark.parametrize("where", ["hidden", "manifest-vocab"])
    def test_model_too_big_for_numpy_exits_2_naming_its_size(
            self, tmp_path, capsys, where):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        extra = ["--hidden", str(10**20)] if where == "hidden" else []
        if where == "manifest-vocab":
            manifest = tmp_path / "d.jsonl.manifest.json"
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                            "vocab": 10**20}))
        capsys.readouterr()
        out = tmp_path / "m.csv"
        code = run(["train", "--data", str(data), "--model", "rnn", "--epochs", "1",
                    "--out", str(out), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: the model has " in err and "parameters, more than 10000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("held_out, message", [
        ("frames", "held-out sample 0: a frame sequence"),
        ("token-above-vocab", "held-out sample 1: token index out of range [0, 10)"),
    ], ids=["frames", "token-above-vocab"])
    def test_held_out_data_the_model_cannot_read_exits_2(
            self, tmp_path, capsys, held_out, message):
        data, held = tmp_path / "d.jsonl", tmp_path / "e.jsonl"
        run(gen_args(data))
        if held_out == "frames":
            pianoroll_file(held)
        else:
            held.write_text(json.dumps({"tokens": [1, 2], "label": 0}) + "\n"
                            + json.dumps({"tokens": [3, 10], "label": 1}) + "\n")
        capsys.readouterr()
        out = tmp_path / "m.csv"
        code = run([
            "train", "--data", str(data), "--eval-data", str(held),
            "--model", "lstm", "--epochs", "1", "--out", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_uniform_table_control_gives_identical_curves(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=12)
        out = tmp_path / "cmp.csv"
        svg = tmp_path / "cmp.svg"
        code = run([
            "compare", "--data", str(data), "--model", "rnn", "--lr", "0.2",
            "--epochs", "3", "--importance", str(imp), "--seed", "2",
            "--embed-dim", "4", "--hidden", "5",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        log = load_metrics(out)
        uni = {r.epoch: r.loss for r in log.rows if r.split == "uniform"}
        imp_rows = {r.epoch: r.loss for r in log.rows if r.split == "importance"}
        assert uni == imp_rows
        assert svg.read_text().startswith("<svg")

    def test_seeded_compare_reproducible(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n=12)
        digests = []
        for name in ("c1.csv", "c2.csv"):
            out = tmp_path / name
            code = run([
                "compare", "--data", str(data), "--model", "rnn", "--lr", "0.2",
                "--epochs", "2", "--importance", str(imp), "--seed", "4",
                "--embed-dim", "4", "--hidden", "5", "--out", str(out),
            ])
            assert code == 0
            rows = [
                line.rsplit(",", 1)[0]  # drop the wall-time column
                for line in out.read_text().splitlines()
            ]
            digests.append(hashlib.sha256("\n".join(rows).encode()).hexdigest())
        assert digests[0] == digests[1]


    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "-1", "--lr must be > 0, got -1.0"),
        ("--clip", "0", "--clip must be > 0, got 0.0"),
        ("--embed-dim", "0", "--embed-dim must be >= 1, got 0"),
    ])
    def test_flag_out_of_range_exits_2_naming_it_before_the_load(
            self, tmp_path, capsys, monkeypatch, flag, value, message):
        loads = recorded_loads(monkeypatch)
        code = run(["compare", "--data", str(tmp_path / "missing.jsonl"),
                    "--importance", str(tmp_path / "missing.json"),
                    flag, value, "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["mine", "train", "compare"])
def test_divergence_prints_only_its_error_line(tmp_path, command, workers):
    # A fresh interpreter, so that numpy's warnings reach stderr as a user
    # sees them, from pool workers too; mining shards over up to 2 cores.
    data = tmp_path / "d.jsonl"
    run(gen_args(data, n=8))
    imp = uniform_table_file(tmp_path / "imp.json", n=8, model="lstm")
    argv = {
        "mine": ["--epsilon", "0.01", "--workers", workers],
        "train": ["--epochs", "2"],
        "compare": ["--epochs", "2", "--importance", str(imp)],
    }[command]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "gradmine.cli", command, "--data", str(data),
         "--model", "lstm", "--lr", "1e300", *argv, "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["gen", "mine", "train", "compare", "variance"])
def test_negative_seed_exits_2_naming_it_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    loads = recorded_loads(monkeypatch)
    data = str(tmp_path / "missing.jsonl")
    argv = {
        "gen": ["--n", "4"],
        "mine": ["--data", data, "--epsilon", "0.1"],
        "train": ["--data", data],
        "compare": ["--data", data, "--importance", str(tmp_path / "missing.json")],
        "variance": ["--data", data],
    }[command]
    code = run([command, *argv, "--seed", "-1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert loads == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags, named", [
    ("mine", {"--epsilon": "0.1", "--out": "d.jsonl"}, "--out and --data"),
    ("variance", {"--out": "d.jsonl"}, "--out and --data"),
    ("variance", {"--importance": "t.json", "--out": "t.json"}, "--out and --importance"),
    ("train", {"--out": "m.csv", "--svg": "m.csv"}, "--out and --svg"),
    ("train", {"--out": "m.csv", "--svg": "link"}, "--out and --svg"),
    ("train", {"--eval-data": "e.jsonl", "--out": "e.jsonl"}, "--out and --eval-data"),
    ("train", {"--out": "m.csv", "--svg": "./d.jsonl"}, "--svg and --data"),
    ("compare", {"--importance": "t.json", "--out": "t.json"}, "--out and --importance"),
    ("train", {"--out": "m.csv", "--svg": "m.csv.run.json"}, "--svg and --out's run record"),
    ("train", {"--out": "m.svg.run.json", "--svg": "m.svg"}, "--out and --svg's run record"),
    ("mine", {"--epsilon": "0.1", "--out": "d.jsonl.manifest.json"},
     "--out and --data's manifest"),
    ("train", {"--eval-data": "e.jsonl", "--out": "m.csv", "--svg": "e.jsonl.manifest.json"},
     "--svg and --eval-data's manifest"),
])
def test_an_output_naming_an_input_or_the_other_output_exits_2(
        tmp_path, capsys, monkeypatch, command, flags, named):
    monkeypatch.chdir(tmp_path)
    run(gen_args(tmp_path / "d.jsonl", n=4))
    run(gen_args(tmp_path / "e.jsonl", n=4))
    uniform_table_file(tmp_path / "t.json", n=4)
    os.symlink("m.csv", tmp_path / "link")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    argv = [command, "--data", "d.jsonl"] + [x for kv in flags.items() for x in kv]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {named} name the same file\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


# The file flags of each command, each with whether the command requires it,
# and the command's other flags, small enough for a run of milliseconds.
FILE_FLAGS = {
    "gen": {"--out": True},
    "mine": {"--data": True, "--out": True},
    "train": {"--data": True, "--importance": False, "--eval-data": False,
              "--out": True, "--svg": False},
    "compare": {"--data": True, "--importance": True, "--out": True, "--svg": False},
    "variance": {"--data": True, "--importance": False, "--out": True},
}
SMALL = ["--model", "rnn", "--embed-dim", "2", "--hidden", "2"]
OTHER_FLAGS = {
    "gen": ["--n", "4", "--vocab", "10", "--len-min", "4", "--len-max", "6"],
    "mine": [*SMALL, "--epsilon", "0.5", "--t-max", "3", "--workers", "1"],
    "train": [*SMALL, "--epochs", "1"],
    "compare": [*SMALL, "--epochs", "1"],
    "variance": SMALL,
}
# Two datasets, one named as the fresh name x's run record, and a table; the
# pool adds every name's run record and manifest.
EXISTING, FRESH = ("d.jsonl", "x.run.json", "t.json"), ("x", "y")
POOL = sorted({f"{n}{s}" for n in EXISTING + FRESH for s in ("", ".run.json", ".manifest.json")})


@functools.cache
def starting_files():
    """{name: bytes} of the datasets with the sidecars gen writes, and the table."""
    with tempfile.TemporaryDirectory() as tmp:
        with redirect_stdout(StringIO()):
            for name in EXISTING[:2]:
                assert run(gen_args(Path(tmp, name), n=4)) == 0
        uniform_table_file(Path(tmp, EXISTING[2]), n=4)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


def file_assignments(command):
    """Names for the command's file flags, from the pool; half the time an
    input flag names a file it can read, so that runs reach their writes."""
    fits = {"--data": EXISTING[:2], "--eval-data": EXISTING[:2], "--importance": EXISTING[2:]}
    names = {f: st.sampled_from(POOL) | st.sampled_from(fits.get(f, POOL))
             for f in FILE_FLAGS[command]}
    required = {f: s for f, s in names.items() if FILE_FLAGS[command][f]}
    optional = {f: s for f, s in names.items() if not FILE_FLAGS[command][f]}
    return st.fixed_dictionaries(required, optional=optional).map(lambda f: (command, f))


@settings(deadline=None, max_examples=200)
@given(case=st.sampled_from(sorted(FILE_FLAGS)).flatmap(file_assignments))
@example(case=("mine", {"--data": "x.run.json", "--out": "x"}))
def test_a_command_runs_and_keeps_its_inputs_or_exits_2_and_writes_nothing(case):
    """Whatever names a command's file flags get, among existing files, fresh
    names and sidecars: either it exits 0 with its inputs unchanged, or it
    exits 2 with one error line and leaves every file as it was. A written
    file (an output or its run record) that is another named file (a flag's
    file or a dataset's manifest) is refused, naming both."""
    command, files = case
    named = dict(files)
    named |= {f"{f}'s run record": f"{n}.run.json" for f, n in files.items()
              if f in ("--out", "--svg")}
    named |= {f"{f}'s manifest": f"{n}.manifest.json" for f, n in files.items()
              if f in ("--data", "--eval-data")}
    written = [a for a in named if a in ("--out", "--svg") or a.endswith("run record")]
    clashes = {(a, b) for a in written for b in named if a != b and named[a] == named[b]}
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in starting_files().items():
            Path(tmp, name).write_bytes(blob)
        argv = [command, *OTHER_FLAGS[command],
                *[x for f, n in files.items() for x in (f, str(Path(tmp, n)))]]
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = run(argv)
        after = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
    before = starting_files()
    if code == 0:
        assert not clashes
        assert all(after[n] == before[n] for a, n in named.items()
                   if a not in written and n in before)
    else:
        assert code == 2 and after == before
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())
        pair = re.fullmatch(r"error: (.+) and (.+) name the same file\n", err.getvalue())
        assert pair.groups() in clashes if clashes else pair is None


def test_the_pipeline_runs_without_model_flags(tmp_path):
    """Every command defaults to one model, so a table mined without
    ``--model`` fits the runs that use it without ``--model``."""
    data, imp = str(tmp_path / "d.jsonl"), str(tmp_path / "t.json")
    small = ["--data", data, "--embed-dim", "4", "--hidden", "4"]
    for argv in [
        gen_args(data, n=8),
        ["mine", *small, "--epsilon", "0.05", "--t-max", "50", "--workers", "1",
         "--out", imp],
        ["train", *small, "--epochs", "1", "--sampler", "importance",
         "--importance", imp, "--out", str(tmp_path / "m.csv")],
        ["compare", *small, "--epochs", "1", "--importance", imp,
         "--out", str(tmp_path / "c.csv")],
        ["variance", *small, "--importance", imp, "--out", str(tmp_path / "v.json")],
    ]:
        assert run(argv) == 0, argv[0]


class TestVariance:
    def test_identical_samples_give_zero_variances(self, tmp_path):
        data = tmp_path / "d.jsonl"
        line = json.dumps({"tokens": [1, 2, 3], "label": 1})
        data.write_text("\n".join([line] * 6) + "\n")
        out = tmp_path / "var.json"
        code = run([
            "variance", "--data", str(data), "--model", "rnn", "--seed", "0",
            "--embed-dim", "4", "--hidden", "5", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["uniform"] == pytest.approx(0.0, abs=1e-18)
        assert report["optimal"] == pytest.approx(0.0, abs=1e-18)

    def test_frames_for_a_token_model_exit_2(self, tmp_path, capsys):
        data = pianoroll_file(tmp_path / "p.jsonl")
        capsys.readouterr()
        out = tmp_path / "var.json"
        code = run(["variance", "--data", str(data), "--model", "lstm",
                    "--out", str(out)])
        assert code == 2
        assert "sample 0: a frame sequence" in capsys.readouterr().err
        assert not out.exists()

    def test_report_schema_and_optimal_bound(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = tmp_path / "imp.json"
        run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.05",
            "--lr", "0.2", "--workers", "1", "--embed-dim", "4", "--hidden", "5",
            "--out", str(imp),
        ])
        out = tmp_path / "var.json"
        code = run([
            "variance", "--data", str(data), "--model", "rnn", "--seed", "0",
            "--importance", str(imp), "--embed-dim", "4", "--hidden", "5",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"uniform", "optimal", "mined", "lipschitz", "bound_ratio"}
        assert report["optimal"] <= report["uniform"] + 1e-10
        assert json.loads(json.dumps(report)) == report

    def test_warm_epochs_train_before_measuring(self, tmp_path):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        reports = []
        for warm in ("0", "1"):
            out = tmp_path / f"var{warm}.json"
            code = run([
                "variance", "--data", str(data), "--model", "rnn", "--seed", "0",
                "--lr", "0.2", "--warm-epochs", warm,
                "--embed-dim", "4", "--hidden", "5", "--out", str(out),
            ])
            assert code == 0
            reports.append(json.loads(out.read_text()))
        assert reports[1]["uniform"] > 0.0
        assert reports[1]["uniform"] != reports[0]["uniform"]

    def test_negative_warm_epochs_exit_2_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        loads = []
        monkeypatch.setattr(cli.data, "load_dataset",
                            lambda *a, **k: loads.append(a))
        before = set(tmp_path.iterdir())
        code = run([
            "variance", "--data", str(data), "--model", "rnn",
            "--warm-epochs", "-1", "--out", str(tmp_path / "var.json"),
        ])
        assert code == 2
        assert "--warm-epochs must be >= 0, got -1" in capsys.readouterr().err
        assert loads == []
        assert set(tmp_path.iterdir()) == before

    def test_lr_that_is_not_positive_exits_2_naming_it_before_the_load(
            self, tmp_path, capsys):
        code = run(["variance", "--data", str(tmp_path / "missing.jsonl"),
                    "--lr", "-1", "--warm-epochs", "1",
                    "--out", str(tmp_path / "var.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: --lr must be > 0, got -1.0\n"

    @pytest.mark.parametrize("model, n", [("lstm", 12), ("rnn", 11)],
                             ids=["another-model", "another-count"])
    def test_mismatched_table_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, model, n):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        imp = uniform_table_file(tmp_path / "imp.json", n)
        calls = []
        monkeypatch.setattr(cli.optimizer, "train",
                            lambda *a, **k: calls.append(a))
        before = set(tmp_path.iterdir())
        code = run([
            "variance", "--data", str(data), "--model", model, "--seed", "0",
            "--warm-epochs", "3", "--importance", str(imp),
            "--embed-dim", "4", "--hidden", "5", "--out", str(tmp_path / "var.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("payload", [
        "3", json.dumps({"model": "rnn", "base_selector": "w_x", "epsilon": 1.0,
                         "seed": 0, "norm_kind": "frobenius", "norms": [1.0],
                         "probs": ["x"], "iterations": [0], "converged": [True]}),
        json.dumps({"model": "rnn", "base_selector": "w_x", "epsilon": 1.0,
                    "seed": 0, "norm_kind": "frobenius", "norms": [1.0],
                    "probs": [1.0], "iterations": [1.7], "converged": [True]}),
        json.dumps({"model": "rnn", "base_selector": "w_x", "epsilon": 1.0,
                    "seed": 0, "norm_kind": "frobenius", "norms": [1.0],
                    "probs": [1.0], "iterations": [1], "converged": ["no"]}),
    ], ids=["top-level-number", "string-probs", "fractional-iterations",
            "string-converged"])
    def test_malformed_table_exits_2(self, tmp_path, capsys, payload):
        data = tmp_path / "d.jsonl"
        data.write_text(json.dumps({"tokens": [1, 2, 3], "label": 1}) + "\n")
        imp = tmp_path / "imp.json"
        imp.write_text(payload)
        code = run([
            "variance", "--data", str(data), "--model", "rnn",
            "--importance", str(imp), "--embed-dim", "4", "--hidden", "5",
            "--out", str(tmp_path / "var.json"),
        ])
        assert code == 2
        assert "importance file" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["variance"])  # missing required arguments
        assert exc.value.code == 2
