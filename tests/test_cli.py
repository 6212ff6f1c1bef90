import hashlib
import json

import numpy as np
import pytest

from gradmine import cli
from gradmine.data import load_dataset
from gradmine.fim import ImportanceTable, load_importance, save_importance
from gradmine.optimizer import load_metrics


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


def uniform_table_file(path, n):
    table = ImportanceTable(
        model="rnn", base_selector="w_x", epsilon=1.0, seed=0,
        norm_kind="frobenius", norms=np.ones(n), probs=np.full(n, 1.0 / n),
        iterations=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool),
    )
    save_importance(path, table)
    return path


class TestGen:
    def test_writes_dataset_manifest_and_run_record(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run(gen_args(out)) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["n_samples"] == 12
        assert load_dataset(out).vocab == 10
        record = json.loads((tmp_path / "d.jsonl.run.json").read_text())
        assert record["outputs"] == [str(out)]

    def test_zero_samples_exits_2(self, tmp_path):
        assert run(gen_args(tmp_path / "d.jsonl", n=0)) == 2

    def test_same_args_identical_file_hash(self, tmp_path):
        h = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run(gen_args(out)) == 0
            h.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert h[0] == h[1]

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

    def test_non_integer_workers_env_exits_2(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        monkeypatch.setenv("GRADMINE_WORKERS", "abc")
        code = run([
            "mine", "--data", str(data), "--model", "rnn", "--epsilon", "0.05",
            "--embed-dim", "4", "--hidden", "5", "--out", str(tmp_path / "i.json"),
        ])
        assert code == 2
        assert "GRADMINE_WORKERS" in capsys.readouterr().err

    def test_divergence_in_a_pool_worker_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        run(gen_args(data))
        out = tmp_path / "imp.json"
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
            assert list(record["inputs"]) == [str(data)]

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
        assert list(record["inputs"]) == [str(data), str(held)]

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
