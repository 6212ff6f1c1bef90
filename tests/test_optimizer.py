import numpy as np
import pytest

from gradmine.errors import (
    ConfigError,
    DistributionError,
    DivergenceError,
    InvalidInputError,
    ParseError,
)
from gradmine.fim import ImportanceTable
from gradmine.models import ModelSpec, Params, get_model
from gradmine.data import SequenceSample, gen_pianoroll, gen_seqclass
from gradmine.optimizer import (
    MetricsLog,
    MetricsRow,
    TrainConfig,
    Trainer,
    is_sgd_step,
    load_metrics,
    save_metrics,
    sgd_step,
    train,
)

from conftest import param_blocks
from convex import ConvexProblem, svm_loss_grad


def ScalarParams(w):
    """Parameters with the one block ``w``."""
    return Params((("w", w.shape),), w)


def uniform_table(n, model="rnn", selector="w_x"):
    return ImportanceTable(
        model=model,
        base_selector=selector,
        epsilon=1.0,
        seed=0,
        norm_kind="frobenius",
        norms=np.ones(n),
        probs=np.full(n, 1.0 / n),
        iterations=np.zeros(n, dtype=int),
        converged=np.ones(n, dtype=bool),
    )


class TestSgdStep:
    def test_zero_learning_rate(self):
        p = ScalarParams(w=np.array([1.0]))
        g = ScalarParams(w=np.array([2.0]))
        assert sgd_step(p, g, 0.0).w[0] == 1.0

    def test_zero_gradient(self):
        p = ScalarParams(w=np.array([1.5]))
        g = ScalarParams(w=np.array([0.0]))
        assert sgd_step(p, g, 0.3).w[0] == 1.5

    def test_scalar_arithmetic(self):
        p = ScalarParams(w=np.array([1.0]))
        g = ScalarParams(w=np.array([2.0]))
        assert sgd_step(p, g, 0.1).w[0] == pytest.approx(0.8)


class TestIsSgdStep:
    def test_uniform_probability_reduces_to_sgd(self):
        # the zero entry returns -step itself, so a one-ulp step error shows;
        # 49 * fl(1/49) != 1, so lr / (n p) would not be lr at N = 49
        p = ScalarParams(w=np.array([1.0, -2.0, 0.0]))
        g = ScalarParams(w=np.array([0.3, 0.7, 1.0]))
        for n in (2, 8, 49, 50, 200):
            a = is_sgd_step(p, g, 0.37, n, 1.0 / n)
            b = sgd_step(p, g, 0.37)
            np.testing.assert_array_equal(a.w, b.w)

    def test_effective_step_arithmetic(self):
        p = ScalarParams(w=np.array([1.0]))
        g = ScalarParams(w=np.array([1.0]))
        out = is_sgd_step(p, g, 0.1, 2, 0.25)
        assert out.w[0] == pytest.approx(1.0 - 0.2)

    def test_nonpositive_probability_rejected(self):
        p = ScalarParams(w=np.array([1.0]))
        with pytest.raises(DistributionError):
            is_sgd_step(p, p, 0.1, 4, 0.0)

    def test_clip_bounds_effective_step(self):
        p = ScalarParams(w=np.array([0.0]))
        g = ScalarParams(w=np.array([1.0]))
        out = is_sgd_step(p, g, 0.1, 100, 1e-6, clip=3.0)
        assert out.w[0] == pytest.approx(-0.3)

    def test_unbiased_update_direction(self, rng):
        # enumerated expectation of the reweighted direction equals the
        # full-batch gradient for any strictly positive distribution
        xs = rng.normal(size=(8, 5))
        ys = rng.choice([-1.0, 1.0], size=8)
        prob = ConvexProblem(xs=xs, ys=ys, reg=0.3)
        w = rng.normal(size=5)
        grads = np.stack([svm_loss_grad(prob, i, w)[1] for i in range(8)])
        full = grads.mean(axis=0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(8)) + 1e-3
            p /= p.sum()
            expectation = np.sum(p[:, None] * grads / (8 * p)[:, None], axis=0)
            assert np.max(np.abs(expectation - full)) < 1e-12


def tiny_dataset(n=12, seed=0):
    return gen_seqclass(n=n, vocab=8, length_range=(4, 8), hard_fraction=0.25, seed=seed)


def targets_samples(n, seed, vocab=6):
    """Per-step-target samples: each target is the next token id mod vocab."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        tokens = rng.integers(0, vocab, size=int(rng.integers(3, 7)))
        if i == 0:
            tokens[0] = vocab - 1  # pins the inferred vocab size
        out.append(SequenceSample(tokens=tokens, targets=(tokens + 1) % vocab))
    return out


class TestTrain:
    def test_zero_epochs_is_identity(self):
        ds = tiny_dataset()
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        model = get_model(spec)
        params0 = model.init_params(0)
        cfg = TrainConfig(spec=spec, lr=0.1, epochs=0)
        [(params, log)] = train(ds, params0, [cfg])
        for name, block in param_blocks(params).items():
            np.testing.assert_array_equal(block, getattr(params0, name))
        assert log.rows == []

    def test_uniform_table_importance_equals_plain_sgd(self):
        # 49 * fl(1/49) != 1, so lr / (n p) would not be lr at N = 49
        for n in (12, 49):
            ds = tiny_dataset(n=n)
            spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
            model = get_model(spec)
            params0 = model.init_params(1)
            base = TrainConfig(spec=spec, lr=0.2, epochs=3, sampler="uniform", seed=5)
            mirrored = TrainConfig(
                spec=spec, lr=0.2, epochs=3, sampler="importance",
                importance=uniform_table(len(ds)), seed=5,
            )
            [(p1, l1)] = train(ds, params0, [base])
            [(p2, l2)] = train(ds, params0, [mirrored])
            for name, block in param_blocks(p1).items():
                np.testing.assert_array_equal(block, getattr(p2, name))
            assert [r.loss for r in l1.rows] == [r.loss for r in l2.rows]

    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=4, hidden=4, classes=2)
        model = get_model(spec)
        params0 = model.init_params(3)
        cfg = TrainConfig(spec=spec, lr=0.3, epochs=2, seed=9)
        [(p1, l1)] = train(ds, params0, [cfg])
        [(p2, l2)] = train(ds, params0, [cfg])
        for name, block in param_blocks(p1).items():
            np.testing.assert_array_equal(block, getattr(p2, name))
        # wall time is physical; every computed quantity must match exactly
        for a, b in zip(l1.rows, l2.rows):
            assert (a.epoch, a.split, a.loss, a.error_rate, a.grad_var) == (
                b.epoch, b.split, b.loss, b.error_rate, b.grad_var
            )

    def test_divergence_guard(self):
        # saturated reconstruction probabilities hit -log(0) on mismatched
        # bits; the token models are saturation-proof, the frame model not
        ds = gen_pianoroll(n=6, n_v=6, length_range=(4, 6), seed=3)
        spec = ModelSpec(kind="rnnrbm", vocab=ds.vocab, hidden=4, context=3, cd_k=1)
        model = get_model(spec)
        params0 = model.init_params(0)
        cfg = TrainConfig(spec=spec, lr=1e4, epochs=3, seed=0)
        with pytest.raises(DivergenceError):
            train(ds, params0, [cfg])

    def test_importance_length_mismatch(self):
        ds = tiny_dataset()
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        cfg = TrainConfig(
            spec=spec, lr=0.1, epochs=1, sampler="importance",
            importance=uniform_table(len(ds) + 2),
        )
        with pytest.raises(ConfigError):
            train(ds, get_model(spec).init_params(0), [cfg])

    def test_eval_split_rows(self):
        ds = tiny_dataset()
        held = tiny_dataset(n=6, seed=77)
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        cfg = TrainConfig(spec=spec, lr=0.1, epochs=2, seed=1)
        [(_, log)] = train(ds, get_model(spec).init_params(0), [cfg],
                           eval_dataset=held)
        assert [r.split for r in log.rows] == ["train", "eval", "train", "eval"]
        assert all(np.isfinite(r.loss) for r in log.rows)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_non_finite_held_out_loss_raises(self, kind):
        # Only the held-out sample reads token 7, so training stays finite.
        ds = gen_seqclass(n=8, vocab=7, length_range=(4, 8), seed=0)
        held = [SequenceSample(tokens=[1, 7, 2], label=0)]
        spec = ModelSpec(kind=kind, vocab=8, embed=4, hidden=4)
        params0 = get_model(spec).init_params(0)
        params0.w_emb[7] = np.inf
        cfg = TrainConfig(spec=spec, lr=0.1, epochs=2, seed=1)
        with pytest.raises(DivergenceError, match="eval split at epoch 1"):
            train(ds, params0, [cfg], eval_dataset=held)

    def test_eval_cadence(self):
        ds = tiny_dataset()
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        cfg = TrainConfig(spec=spec, lr=0.1, epochs=5, seed=1, eval_every=2)
        [(_, log)] = train(ds, get_model(spec).init_params(0), [cfg])
        assert [r.epoch for r in log.rows] == [2, 4, 5]

    def test_epochs_strictly_increasing_and_finite(self):
        ds = tiny_dataset()
        spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=4, hidden=4, classes=2)
        cfg = TrainConfig(spec=spec, lr=0.4, epochs=4, seed=2)
        [(_, log)] = train(ds, get_model(spec).init_params(2), [cfg])
        epochs = [r.epoch for r in log.rows]
        assert epochs == sorted(set(epochs))
        for r in log.rows:
            assert np.isfinite([r.loss, r.error_rate, r.grad_var, r.wall_ms]).all()

    def test_config_validation(self):
        spec = ModelSpec(kind="rnn", vocab=8, embed=4, hidden=4)
        with pytest.raises(ConfigError):
            TrainConfig(spec=spec, lr=0.1, epochs=1, sampler="importance")
        with pytest.raises(ConfigError):
            TrainConfig(spec=spec, lr=-0.1, epochs=1)
        with pytest.raises(ConfigError):
            TrainConfig(spec=spec, lr=0.1, epochs=1, sampler="bandit")

    @pytest.mark.parametrize("change", [
        dict(epochs=3), dict(eval_every=2), dict(spec=ModelSpec(kind="rnn", vocab=8)),
    ])
    def test_lockstep_runs_must_share_spec_epochs_and_eval_every(self, change):
        ds = tiny_dataset()
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        first = TrainConfig(spec=spec, lr=0.1, epochs=2)
        other = TrainConfig(**{**vars(first), "lr": 0.2, **change})
        with pytest.raises(ConfigError, match="share spec, epochs and eval_every"):
            train(ds, get_model(spec).init_params(0), [first, other])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_start_rows_must_be_one_per_run(self, rows):
        ds = tiny_dataset()
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        cfg = TrainConfig(spec=spec, lr=0.1, epochs=1)
        params0 = get_model(spec).init_params(0)
        stacked = params0.like(np.stack([params0.vec] * rows))
        with pytest.raises(ConfigError, match=f"params0 has {rows} rows for 2 runs"):
            train(ds, stacked, [cfg, cfg])

    def test_no_config_is_a_config_error(self):
        ds = tiny_dataset()
        spec = ModelSpec(kind="rnn", vocab=ds.vocab, embed=4, hidden=4)
        with pytest.raises(ConfigError, match="got none"):
            train(ds, get_model(spec).init_params(0), [])


class TestMetricsIO:
    def test_round_trip(self, tmp_path):
        log = MetricsLog(
            rows=[
                MetricsRow(1, "train", 0.123456789012345678, 0.25, 1e-9, 12.5),
                MetricsRow(1, "eval", 0.5, 0.5, 2.0, 13.5),
                MetricsRow(2, "train", 0.1, 0.0, 0.0, 20.0),
            ],
        )
        path = tmp_path / "m.csv"
        save_metrics(path, log)
        assert load_metrics(path) == log

    def test_saved_header_keeps_the_file_format(self, tmp_path):
        """The columns come from the row's fields, so this pins their order."""
        path = tmp_path / "m.csv"
        save_metrics(path, MetricsLog(rows=[MetricsRow(1, "train", 0.5, 0.5, 1.0, 2.0)]))
        assert path.read_text().splitlines() == [
            "epoch,split,loss,error_rate,grad_var,wall_ms", "1,train,0.5,0.5,1,2"]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,loss\n")
        with pytest.raises(ParseError) as err:
            load_metrics(path)
        assert err.value.line == 1

    def test_interrupted_save_keeps_the_old_file(self, tmp_path):
        class Crash:
            """A row whose reading raises, as a process killed mid-write
            would stop there."""

            def __getattr__(self, name):
                raise KeyboardInterrupt

        path = tmp_path / "m.csv"
        save_metrics(path, MetricsLog(rows=[MetricsRow(1, "train", 0.5, 0.5, 1.0, 2.0)]))
        old = path.read_bytes()
        rows = [MetricsRow(e, "train", 0.1, 0.0, 0.0, 1.0) for e in range(1, 11)]
        rows[4] = Crash()
        with pytest.raises(KeyboardInterrupt):
            save_metrics(path, MetricsLog(rows=rows))
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,split,loss,error_rate,grad_var,wall_ms\n1,train,0.5\n")
        with pytest.raises(ParseError) as err:
            load_metrics(path)
        assert err.value.line == 2

    def test_a_value_that_is_not_a_number_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,split,loss,error_rate,grad_var,wall_ms\n"
                        "1,train,abc,0.5,1,2\n")
        with pytest.raises(ParseError, match="^line 2: could not convert") as err:
            load_metrics(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("field, value", [
        ("epoch", "1_0"), ("epoch", " 2 "), ("epoch", "0"),
        ("split", "bogus"),
        ("loss", "nan"), ("loss", "1e400"),
        ("error_rate", "2.5"), ("error_rate", "nan"),
        ("grad_var", "-1"),
        ("wall_ms", "inf"), ("wall_ms", "-1"),
    ])
    def test_a_row_save_metrics_cannot_write_is_rejected(self, tmp_path, field, value):
        row = {**dict(epoch="1", split="train", loss="0.5", error_rate="0.5",
                      grad_var="1", wall_ms="2"), field: value}
        path = tmp_path / "m.csv"
        path.write_text("epoch,split,loss,error_rate,grad_var,wall_ms\n"
                        "1,eval,0.5,0.5,1,2\n" + ",".join(row.values()) + "\n")
        with pytest.raises(ParseError, match=f"bad {field} in") as err:
            load_metrics(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("grad_var", ["nan", "inf"])
    def test_a_non_finite_grad_var_stays_readable(self, tmp_path, grad_var):
        """``gradient_variance`` can overflow at a finite loss, and
        ``save_metrics`` then writes it."""
        path = tmp_path / "m.csv"
        save_metrics(path, MetricsLog(rows=[
            MetricsRow(1, "importance", 0.5, 0.0, float(grad_var), 2.0)]))
        [row] = load_metrics(path).rows
        assert str(row.grad_var) == grad_var


class TestTrainerEstimator:
    def test_get_set_params_roundtrip(self):
        t = Trainer(model="rnn", lr=0.2, epochs=1)
        params = t.get_params()
        assert params["model"] == "rnn" and params["lr"] == 0.2
        clone = type(t)(**params)
        assert clone.get_params() == params
        t.set_params(lr=0.5)
        assert t.lr == 0.5
        with pytest.raises(ConfigError):
            t.set_params(bogus=1)

    def test_fit_infers_vocab_from_targets(self):
        # target ids above every token id still fit the output layer
        samples = [SequenceSample(tokens=[0, 1, 1], targets=[1, 2, 3]),
                   SequenceSample(tokens=[1, 0], targets=[2, 0])]
        t = Trainer(model="rnn", lr=0.1, epochs=1, embed_dim=3, hidden=4).fit(samples)
        assert t.spec_.vocab == 4 and np.isfinite(t.log_.rows[-1].loss)

    def test_fit_predict_score(self):
        ds = tiny_dataset(n=16, seed=5)
        t = Trainer(model="lstm", lr=0.5, epochs=6, seed=0, embed_dim=4, hidden=6)
        t.fit(ds)
        assert hasattr(t, "params_") and len(t.log_.rows) == 6
        preds = t.predict(ds)
        assert preds.shape == (16,)
        assert set(np.unique(preds)) <= {0, 1}
        assert 0.0 <= t.score(ds) <= 1.0

    @pytest.mark.parametrize("kind, samples", [
        ("rnn", lambda: tiny_dataset(n=10, seed=3)),
        ("rnn", lambda: targets_samples(n=8, seed=4)),
        ("lstm", lambda: tiny_dataset(n=10, seed=3)),
    ], ids=["rnn-label", "rnn-targets", "lstm"])
    def test_score_matches_last_train_error_rate(self, kind, samples):
        ds = samples()
        t = Trainer(model=kind, lr=0.3, epochs=2, seed=1, embed_dim=4, hidden=5)
        t.fit(ds)
        assert t.log_.rows[-1].split == "train"
        assert t.score(ds) == 1.0 - t.log_.rows[-1].error_rate
        assert t.predict(ds).shape == (len(ds),)

    def test_rnnrbm_score_repeats_and_predict_has_one_entry_per_sample(self):
        ds = gen_pianoroll(n=5, n_v=6, length_range=(4, 7), seed=2)
        t = Trainer(model="rnnrbm", lr=0.01, epochs=1, seed=3, hidden=4, context=3)
        t.fit(ds)
        score = t.score(ds)
        assert 0.0 <= score <= 1.0
        assert t.score(ds) == score
        assert t.predict(ds).shape == (5,)

    def test_fit_rejects_a_zero_clip(self):
        with pytest.raises(ConfigError, match="clip"):
            Trainer(model="rnn", epochs=1, clip=0).fit(tiny_dataset())

    def test_fit_rejects_an_empty_list(self):
        with pytest.raises(InvalidInputError, match="empty dataset"):
            Trainer(model="rnn", epochs=1).fit([])

    @pytest.mark.parametrize("method", ["score", "predict"])
    def test_frames_rejected_by_a_token_model(self, method):
        t = Trainer(model="lstm", lr=0.1, epochs=1, embed_dim=4, hidden=4)
        t.fit(tiny_dataset(n=6, seed=2))
        frames = gen_pianoroll(n=3, n_v=6, length_range=(3, 5), seed=1)
        with pytest.raises(InvalidInputError, match="sample 0: a frame sequence"):
            getattr(t, method)(frames)

    def test_fit_rejects_table_mined_for_another_model(self):
        ds = tiny_dataset(n=8, seed=2)
        t = Trainer(model="lstm", lr=0.1, epochs=1, sampler="importance",
                    importance=uniform_table(len(ds), model="rnn"),
                    embed_dim=4, hidden=4)
        with pytest.raises(ConfigError, match=r"'rnn'.*'lstm'"):
            t.fit(ds)

    def test_fit_accepts_plain_lists(self):
        samples = list(tiny_dataset(n=8, seed=2))
        t = Trainer(model="rnn", lr=0.1, epochs=1, embed_dim=4, hidden=4)
        t.fit(samples)
        assert t.spec_.vocab >= max(int(s.tokens.max()) for s in samples) + 1

    def test_sklearn_clone_compatibility(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        t = Trainer(model="lstm", lr=0.25, epochs=2, hidden=6)
        clone = sklearn_base.clone(t)
        assert clone.get_params() == t.get_params()
        from gradmine.fim import ImportanceMiner

        m = ImportanceMiner(epsilon=0.02, t_max=30)
        assert sklearn_base.clone(m).get_params() == m.get_params()
