import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradmine import fim

from gradmine.data import Dataset, SequenceSample, gen_seqclass
from gradmine.errors import (
    ConfigError,
    DistributionError,
    InvalidInputError,
    ShapeError,
    UnsupportedOperationError,
)
from gradmine.fim import (
    FimConfig,
    ImportanceMiner,
    ImportanceTable,
    build_distribution,
    default_epsilon,
    history_sum_check,
    load_importance,
    mine_importance,
    save_importance,
)
from gradmine.models import MODEL_KINDS, ModelSpec, param_block
from gradmine.sampling import SamplingDistribution
from gradmine.tensor import matrix_norm

from conftest import OneSample, cores


def dataset_of(samples, vocab):
    return Dataset(kind="seqclass", samples=samples, vocab=vocab)


def rnn_spec(vocab=8):
    return ModelSpec(kind="rnn", vocab=vocab, embed=4, hidden=5)


class TestMineImportance:
    def test_identical_samples_give_uniform_probs(self):
        sample = SequenceSample(tokens=[1, 2, 3], label=1)
        ds = dataset_of([sample] * 6, vocab=8)
        cfg = FimConfig(epsilon=0.05, lr=0.2, seed=0, t_max=500)
        table = mine_importance(ds, rnn_spec(), cfg, n_workers=1).table
        assert np.all(table.norms == table.norms[0])
        np.testing.assert_allclose(table.probs, 1 / 6, atol=1e-15)
        assert np.all(table.iterations == table.iterations[0])

    def test_epsilon_above_initial_loss_short_circuits(self):
        ds = gen_seqclass(n=10, vocab=8, length_range=(4, 8), seed=2)
        spec = rnn_spec()
        cfg = FimConfig(epsilon=1e9, lr=0.1, seed=0)
        result = mine_importance(ds, spec, cfg, n_workers=1)
        table = result.table
        assert np.all(table.iterations == 0)
        assert np.all(table.converged)
        init_norm = np.linalg.norm(param_block(result.init_params, "w_x"))
        np.testing.assert_allclose(table.norms, init_norm, atol=1e-15)
        np.testing.assert_allclose(table.probs, 0.1, atol=1e-12)

    def test_hard_samples_receive_largest_probabilities(self):
        # five engineered hard samples (long, rare-band) must take the five
        # largest mined probabilities, and a gradient-norm-tracking oracle
        # over whole-dataset training must agree with that ranking
        from gradmine.optimizer import sgd_step

        ds = gen_seqclass(n=20, vocab=30, length_range=(6, 40), hard_fraction=0.25, seed=3)
        lens = np.array([s.length for s in ds])
        hard = set(np.flatnonzero(lens > 20).tolist())
        assert len(hard) == 5

        spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=8, hidden=10, classes=2)
        cfg = FimConfig(epsilon=0.003, lr=0.5, seed=0)
        table = mine_importance(ds, spec, cfg, n_workers=1).table
        mined_top = set(np.argsort(-table.probs)[:5].tolist())
        assert mined_top == hard

        model = OneSample(spec)
        params = model.init_params(0)
        sup = np.zeros(20)
        order_rng = np.random.default_rng(42)
        for _ in range(4):
            for i in order_rng.permutation(20):
                s = ds[int(i)]
                grads = model.backward(params, s, model.forward(params, s))
                sup[int(i)] = max(sup[int(i)], matrix_norm(param_block(grads, "w_c")))
                params = sgd_step(params, grads, 0.05)
        oracle_top = set(np.argsort(-sup)[:5].tolist())
        assert oracle_top == hard

    def test_no_hard_fraction_gives_flat_importance(self):
        spec = ModelSpec(kind="lstm", vocab=20, embed=8, hidden=12, classes=2)
        cfg = FimConfig(epsilon=0.003, lr=0.5, seed=0, t_max=4000)
        for dseed in (4, 9):
            ds = gen_seqclass(
                n=12, vocab=20, length_range=(6, 12), hard_fraction=0.0, seed=dseed
            )
            table = mine_importance(ds, spec, cfg, n_workers=1).table
            assert table.probs.max() / table.probs.min() < 2.0

    def test_worker_count_does_not_change_results(self):
        ds = gen_seqclass(n=8, vocab=8, length_range=(4, 8), seed=6)
        cfg = FimConfig(epsilon=0.05, lr=0.2, seed=1, t_max=500)
        t1 = mine_importance(ds, rnn_spec(), cfg, n_workers=1).table
        t8 = mine_importance(ds, rnn_spec(), cfg, n_workers=8).table
        np.testing.assert_array_equal(t1.norms, t8.norms)
        np.testing.assert_array_equal(t1.probs, t8.probs)
        np.testing.assert_array_equal(t1.iterations, t8.iterations)
        np.testing.assert_array_equal(t1.converged, t8.converged)

    @staticmethod
    def _small_case(kind, n):
        from gradmine.data import gen_pianoroll

        if kind == "rnnrbm":
            ds = gen_pianoroll(n=n, n_v=6, length_range=(3, 5), seed=3)
            spec = ModelSpec(kind=kind, vocab=6, hidden=4, context=3)
            return ds, spec, FimConfig(epsilon=0.4, lr=0.05, seed=1, t_max=200)
        ds = gen_seqclass(n=n, vocab=8, length_range=(4, 8), seed=6)
        spec = ModelSpec(kind=kind, vocab=8, embed=4, hidden=5)
        return ds, spec, FimConfig(epsilon=0.05, lr=0.5, seed=1, t_max=200)

    def _assert_same_table(self, t1, t2):
        assert t1.iterations.max() > 0
        for column in ("norms", "probs", "iterations", "converged"):
            assert getattr(t1, column).tobytes() == getattr(t2, column).tobytes()

    @pytest.mark.parametrize("kind", ["rnn", "lstm", "rnnrbm"])
    def test_worker_count_does_not_change_results_for(self, kind):
        # Each pool task carries the pickled shared initialization.
        ds, spec, cfg = self._small_case(kind, 6)
        t1 = mine_importance(ds, spec, cfg, n_workers=1).table
        with cores(2):
            t2 = mine_importance(ds, spec, cfg, n_workers=2).table
        self._assert_same_table(t1, t2)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kind", ["rnn", "lstm", "rnnrbm"])
    def test_uneven_shards_do_not_change_results(self, kind, workers):
        # Five samples split into shards of 3 + 2, or 2 + 2 + 1.
        ds, spec, cfg = self._small_case(kind, 5)
        t1 = mine_importance(ds, spec, cfg, n_workers=1).table
        with cores(workers):
            t2 = mine_importance(ds, spec, cfg, n_workers=workers).table
        self._assert_same_table(t1, t2)

    def test_workers_beyond_the_cores_share_a_batch(self):
        # One core: four workers run one lockstep batch, in this process.
        ds, spec, cfg = self._small_case("rnn", 5)
        t1 = mine_importance(ds, spec, cfg, n_workers=1).table
        with cores(1), mock.patch("concurrent.futures.ProcessPoolExecutor") as pool:
            t4 = mine_importance(ds, spec, cfg, n_workers=4).table
        pool.assert_not_called()
        self._assert_same_table(t1, t4)

    def test_loss_sequences_mostly_decrease(self):
        ds = gen_seqclass(n=10, vocab=8, length_range=(4, 8), seed=8)
        cfg = FimConfig(epsilon=0.01, lr=0.2, seed=0, record_history=True, t_max=2000)
        result = mine_importance(ds, rnn_spec(), cfg, n_workers=1)
        drops = total = 0
        for record in result.histories:
            seq = np.array(record.losses)
            drops += int(np.sum(np.diff(seq) <= 0))
            total += seq.size - 1
        assert drops / total >= 0.9

    def test_t_max_cap_flags_unconverged(self):
        ds = gen_seqclass(n=6, vocab=8, length_range=(4, 8), seed=9)
        cfg = FimConfig(epsilon=1e-12, lr=0.01, seed=0, t_max=5)
        table = mine_importance(ds, rnn_spec(), cfg, n_workers=1).table
        assert not np.any(table.converged)
        assert np.all(table.iterations == 5)

    def test_empty_dataset_rejected(self):
        with pytest.raises((InvalidInputError, ConfigError)):
            mine_importance([], rnn_spec(), FimConfig(epsilon=0.1), n_workers=1)

    def test_bad_selector_rejected(self):
        ds = gen_seqclass(n=4, vocab=8, length_range=(4, 8), seed=1)
        cfg = FimConfig(epsilon=0.1, base_selector="w_q")
        with pytest.raises(ConfigError):
            mine_importance(ds, rnn_spec(), cfg, n_workers=1)

    @pytest.mark.parametrize("selector, norm_kind, error", [
        ("b_h", "spectral", ShapeError), (None, "l1", InvalidInputError),
    ], ids=["spectral-of-a-vector", "unknown-norm"])
    def test_norm_that_cannot_be_taken_fails_before_mining(
            self, monkeypatch, selector, norm_kind, error):
        def no_mining(task):
            raise AssertionError("private training started")

        monkeypatch.setattr(fim, "_mine_rows", no_mining)
        ds = gen_seqclass(n=4, vocab=8, length_range=(4, 8), seed=1)
        cfg = FimConfig(epsilon=0.1, base_selector=selector, norm_kind=norm_kind)
        with pytest.raises(error):
            mine_importance(ds, rnn_spec(), cfg, n_workers=1)

    def test_frame_model_mining_smoke(self):
        from gradmine.data import gen_pianoroll

        ds = gen_pianoroll(n=4, n_v=6, length_range=(3, 5), seed=3)
        spec = ModelSpec(kind="rnnrbm", vocab=6, hidden=4, context=3, cd_k=1)
        cfg = FimConfig(epsilon=0.4, lr=0.05, seed=0, t_max=300)
        table = mine_importance(ds, spec, cfg, n_workers=1).table
        assert table.base_selector == "w"
        assert table.n == 4


class TestHistorySumCheck:
    def _mine(self, epsilon, t_max=200, lr=0.2):
        ds = gen_seqclass(n=4, vocab=8, length_range=(4, 8), seed=12)
        cfg = FimConfig(epsilon=epsilon, lr=lr, seed=0, t_max=t_max, record_history=True)
        return mine_importance(ds, rnn_spec(), cfg, n_workers=1), cfg

    def test_zero_steps_trivially_pass(self):
        result, cfg = self._mine(epsilon=1e9)
        init_base = param_block(result.init_params, "w_x")
        for record in result.histories:
            assert history_sum_check(record.base_final, init_base, record, cfg.lr)

    def test_single_step_exact(self):
        ds = gen_seqclass(n=3, vocab=8, length_range=(4, 8), seed=13)
        cfg = FimConfig(epsilon=1e-12, lr=0.3, seed=0, t_max=1, record_history=True)
        result = mine_importance(ds, rnn_spec(), cfg, n_workers=1)
        init_base = param_block(result.init_params, "w_x")
        for record in result.histories:
            np.testing.assert_array_equal(
                record.base_final, init_base - 0.3 * record.grad_sum
            )
            assert history_sum_check(record.base_final, init_base, record, 0.3)

    def test_hundred_step_run(self):
        ds = gen_seqclass(n=3, vocab=8, length_range=(4, 8), seed=14)
        cfg = FimConfig(epsilon=1e-12, lr=0.1, seed=0, t_max=100, record_history=True)
        result = mine_importance(ds, rnn_spec(), cfg, n_workers=1)
        init_base = param_block(result.init_params, "w_x")
        for record in result.histories:
            assert history_sum_check(record.base_final, init_base, record, 0.1)

    def test_recording_disabled_raises(self):
        ds = gen_seqclass(n=2, vocab=8, length_range=(4, 8), seed=15)
        cfg = FimConfig(epsilon=0.1, lr=0.1, seed=0)
        result = mine_importance(ds, rnn_spec(), cfg, n_workers=1)
        init_base = param_block(result.init_params, "w_x")
        with pytest.raises(UnsupportedOperationError):
            history_sum_check(init_base, init_base, None, 0.1)


class TestBuildDistribution:
    def test_plain_ratio(self):
        dist = build_distribution(np.array([1.0, 2.0, 3.0]), smoothing=0.0)
        assert isinstance(dist, SamplingDistribution)
        np.testing.assert_allclose(dist.probs, [1 / 6, 1 / 3, 1 / 2], atol=1e-15)

    def test_large_smoothing_approaches_uniform(self, rng):
        norms = rng.random(20)
        dist = build_distribution(norms, smoothing=1e6)
        assert np.max(np.abs(dist.probs - 0.05)) < 1e-5

    def test_degenerate_guard(self):
        with pytest.raises(DistributionError):
            build_distribution(np.array([0.0, 0.0, 1.0]) * 0.0, smoothing=0.0)
        dist = build_distribution(np.array([0.0, 0.0, 1.0]), smoothing=0.1)
        assert np.all(dist.probs > 0.0)

    def test_all_zero_with_zero_smoothing_rejected(self):
        with pytest.raises(DistributionError):
            build_distribution(np.zeros(4), smoothing=0.0)

    def test_scale_invariance(self, rng):
        norms = rng.random(9) + 0.1
        base = build_distribution(norms).probs
        np.testing.assert_array_equal(build_distribution(4.0 * norms).probs, base)
        np.testing.assert_allclose(build_distribution(3.7 * norms).probs, base,
                                   rtol=1e-14)

    def test_norms_near_the_float_max_give_finite_probs(self):
        # Their sum overflows; the norms are scaled by a power of two first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = build_distribution(np.array([1e308, 1e308]))
        np.testing.assert_array_equal(dist.probs, [0.5, 0.5])

    def test_accepts_table(self):
        table = ImportanceTable(
            model="rnn", base_selector="w_x", epsilon=0.1, seed=0,
            norm_kind="frobenius", norms=[1.0, 3.0], probs=[0.25, 0.75],
            iterations=[5, 9], converged=[True, True],
        )
        np.testing.assert_allclose(build_distribution(table.norms).probs, [0.25, 0.75])

    @pytest.mark.parametrize("smoothing", [np.nan, np.inf, -0.5])
    def test_smoothing_must_be_finite_and_non_negative(self, smoothing):
        with pytest.raises(ConfigError, match="smoothing"):
            build_distribution(np.array([1.0, 3.0]), smoothing=smoothing)


def table_bits(table):
    """Every field of a table, floats as their bytes."""
    return [getattr(table, k).tobytes() if isinstance(getattr(table, k), np.ndarray)
            else getattr(table, k) for k in fim.IMPORTANCE_KEYS]


@st.composite
def tables(draw):
    """Valid tables of 1-6 samples, with floats from subnormal to huge."""
    n = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(
        st.floats(5e-324, 1e300), min_size=n, max_size=n)))
    probs = weights / weights.sum()
    assume(np.all(probs > 0.0))
    return ImportanceTable(
        model=draw(st.sampled_from(MODEL_KINDS)),
        base_selector=draw(st.text(max_size=8)),
        epsilon=draw(st.floats(5e-324, 1.7976931348623157e308)),
        seed=draw(st.integers(0, 2**63 - 1)),
        norm_kind=draw(st.sampled_from(["frobenius", "spectral"])),
        norms=draw(st.lists(st.floats(0.0, 1e300),
                            min_size=n, max_size=n).filter(any)),
        probs=probs,
        iterations=draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)),
        converged=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    ).validate()


class TestImportanceIO:
    @settings(deadline=None, max_examples=200)
    @given(table=tables())
    def test_save_then_load_gives_the_same_table(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "imp.json"
            save_importance(path, table)
            assert table_bits(load_importance(path)) == table_bits(table)

    def make_table(self):
        return ImportanceTable(
            model="rnn", base_selector="w_x", epsilon=0.01, seed=7,
            norm_kind="frobenius",
            norms=[0.5, 1.5, 1.0], probs=[1 / 6, 0.5, 1 / 3],
            iterations=[12, 40, 23], converged=[True, True, False],
        )

    def test_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "imp.json"
        save_importance(path, table)
        loaded = load_importance(path)
        np.testing.assert_array_equal(loaded.norms, table.norms)
        np.testing.assert_array_equal(loaded.probs, table.probs)
        np.testing.assert_array_equal(loaded.iterations, table.iterations)
        np.testing.assert_array_equal(loaded.converged, table.converged)
        assert loaded.model == "rnn" and loaded.seed == 7

    def test_saved_keys_keep_the_file_format(self, tmp_path):
        """The keys come from the table's fields, so this pins their order."""
        import json

        path = tmp_path / "imp.json"
        save_importance(path, self.make_table())
        assert list(json.loads(path.read_text())) == [
            "model", "base_selector", "epsilon", "seed", "norm_kind", "norms",
            "probs", "iterations", "converged"]

    def test_bad_probability_sum_rejected_on_load(self, tmp_path):
        import json

        table = self.make_table()
        path = tmp_path / "imp.json"
        save_importance(path, table)
        payload = json.loads(path.read_text())
        payload["probs"] = [0.5, 0.5, 0.5]
        path.write_text(json.dumps(payload))
        with pytest.raises(DistributionError):
            load_importance(path)

    def test_missing_key_rejected(self, tmp_path):
        import json

        path = tmp_path / "imp.json"
        path.write_text(json.dumps({"model": "rnn"}))
        with pytest.raises(InvalidInputError):
            load_importance(path)

    @pytest.mark.parametrize("edit", [
        lambda payload: 3,
        lambda payload: dict(payload, probs=["x", "y", "z"]),
        lambda payload: dict(payload, norms={"a": 1.0}),
    ], ids=["top-level-number", "string-probs", "object-norms"])
    def test_malformed_payload_is_a_validation_error(self, tmp_path, edit):
        import json

        path = tmp_path / "imp.json"
        save_importance(path, self.make_table())
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(InvalidInputError):
            load_importance(path)

    @pytest.mark.parametrize("key, value", [
        ("iterations", [12, 40.5, 23]),
        ("iterations", [12, True, 23]),
        ("converged", ["no", True, False]),
        ("converged", [1, 1, 0]),
        ("model", 3),
        ("base_selector", 7),
        ("norm_kind", None),
        ("epsilon", "abc"),
        ("epsilon", True),
        ("epsilon", -0.5),
        ("epsilon", float("inf")),
        ("seed", 1.5),
        ("seed", True),
    ], ids=["fractional-iterations", "boolean-iterations", "string-converged",
            "integer-converged", "number-model", "number-selector",
            "null-norm-kind", "string-epsilon", "boolean-epsilon",
            "negative-epsilon", "infinite-epsilon", "fractional-seed",
            "boolean-seed"])
    def test_column_values_are_not_coerced(self, tmp_path, key, value):
        import json

        path = tmp_path / "imp.json"
        save_importance(path, self.make_table())
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError, match=key):
            load_importance(path)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInputError):
            ImportanceTable(
                model="rnn", base_selector="w_x", epsilon=0.1, seed=0,
                norm_kind="frobenius", norms=[1.0], probs=[0.5, 0.5],
                iterations=[1], converged=[True],
            ).validate()


class TestImportanceMiner:
    def test_fit_sets_attributes(self):
        ds = gen_seqclass(n=6, vocab=8, length_range=(4, 8), seed=5)
        miner = ImportanceMiner(
            model="rnn", epsilon=0.05, lr=0.2, seed=0, embed_dim=4, hidden=5,
            t_max=500,
        )
        miner.fit(ds)
        assert miner.table_.n == 6
        assert miner.probs_.shape == (6,)
        assert abs(miner.probs_.sum() - 1.0) < 1e-12
        dist = build_distribution(miner.norms_)
        np.testing.assert_allclose(dist.probs, miner.probs_, atol=1e-15)

    def test_embedding_diagnostic(self):
        ds = gen_seqclass(n=4, vocab=8, length_range=(4, 6), seed=5)
        miner = ImportanceMiner(
            model="rnn", epsilon=0.1, lr=0.2, seed=0, embed_dim=4, hidden=5,
            embed_diagnostic=True, t_max=300,
        ).fit(ds)
        assert miner.result_.embedding_spread >= 0.0

    def test_get_params_roundtrip(self):
        miner = ImportanceMiner(epsilon=0.02, t_max=50)
        params = miner.get_params()
        clone = ImportanceMiner(**params)
        assert clone.get_params() == params


def test_default_epsilon_scale():
    assert default_epsilon(0.3) == pytest.approx(0.003)


def test_worker_resolution_env_override(monkeypatch):
    from gradmine.fim import WORKERS_ENV, resolve_workers

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2  # explicit argument wins over the env
    monkeypatch.delenv(WORKERS_ENV)
    assert resolve_workers() >= 1


def test_non_integer_workers_env_names_the_variable(monkeypatch):
    from gradmine.fim import WORKERS_ENV, resolve_workers

    monkeypatch.setenv(WORKERS_ENV, "abc")
    with pytest.raises(ConfigError, match=WORKERS_ENV):
        resolve_workers()


@pytest.mark.parametrize("value", [0, -5])
def test_non_positive_workers_are_rejected(value, monkeypatch):
    from gradmine.fim import WORKERS_ENV, resolve_workers

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    with pytest.raises(ConfigError, match=f"workers must be >= 1, got {value}"):
        resolve_workers(value)


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_workers_env_names_the_variable(value, monkeypatch):
    from gradmine.fim import WORKERS_ENV, resolve_workers

    monkeypatch.setenv(WORKERS_ENV, value)
    with pytest.raises(ConfigError, match=f"{WORKERS_ENV}.*{value}"):
        resolve_workers()


class TestCheckFits:
    def table(self, n=3, model="rnn"):
        return ImportanceTable(
            model=model, base_selector="w_x", epsilon=1.0, seed=0,
            norm_kind="frobenius", norms=np.ones(n), probs=np.full(n, 1.0 / n),
            iterations=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool),
        )

    def test_matching_table_is_returned(self):
        table = self.table()
        assert table.check_fits(rnn_spec(), 3) is table

    def test_other_model_rejected_naming_both(self):
        spec = ModelSpec(kind="lstm", vocab=8)
        with pytest.raises(ConfigError, match=r"'rnn'.*'lstm'"):
            self.table().check_fits(spec, 3)

    def test_other_size_rejected(self):
        with pytest.raises(ConfigError, match="covers 3 samples, dataset has 4"):
            self.table().check_fits(rnn_spec(), 4)

    def test_invalid_table_rejected(self):
        table = self.table()
        table.probs = np.array([0.5, 0.5, 0.5])
        with pytest.raises(DistributionError):
            table.check_fits(rnn_spec(), 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        FimConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        FimConfig(epsilon=0.1, lr=-1.0)
    with pytest.raises(ConfigError):
        FimConfig(epsilon=0.1, t_max=0)
