"""Each estimator-backed setting is declared once. The estimators are
dataclasses whose fields take the config defaults, and the CLI flags take
their defaults from the estimator fields."""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest

from gradmine import base, cli, fim, models, optimizer
from gradmine.data import chunk_frames, gen_pianoroll, gen_seqclass, save_dataset
from gradmine.errors import ConfigError
from gradmine.fim import FimConfig, ImportanceMiner, load_importance, save_importance
from gradmine.models import ModelSpec
from gradmine.optimizer import TrainConfig, Trainer

MODEL_FIELDS = {"embed_dim", "hidden", "classes", "context", "cd_k"}

# command: (estimator its defaults come from, required flags)
COMMANDS = {
    "mine": (ImportanceMiner, ["--data", "d", "--out", "o"]),
    "train": (Trainer, ["--data", "d", "--out", "o"]),
    "compare": (Trainer, ["--data", "d", "--out", "o", "--importance", "i"]),
    "variance": (Trainer, ["--data", "d", "--out", "o"]),
}

# Deliberate exceptions: one of --epsilon/--target-loss is required, so
# --epsilon has no default; compare's --importance is a required path.
NOT_DEFAULTED = {"mine": {"epsilon"}, "compare": {"importance"}}


def field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flags_default_to_the_estimator_fields(command):
    est, required = COMMANDS[command]
    args = vars(cli.build_parser().parse_args([command, *required]))
    defaults = field_defaults(est)
    checked = set(args) & set(defaults) - NOT_DEFAULTED.get(command, set())
    assert {"model", "seed", "lr"} | MODEL_FIELDS <= checked
    for name in checked:
        assert args[name] == defaults[name], name
        assert type(args[name]) is type(defaults[name]), name


def test_mine_and_train_share_one_model_default():
    assert ImportanceMiner.model == Trainer.model == "lstm"
    assert cli.build_parser().parse_args(
        ["mine", "--data", "d", "--out", "o"]).epsilon is None


@pytest.mark.parametrize("est, config, shared", [
    (Trainer, TrainConfig,
     {"sampler", "importance", "seed", "eval_every", "clip"}),
    (ImportanceMiner, FimConfig,
     {"lr", "t_max", "seed", "base_selector", "norm_kind"}),
], ids=["Trainer", "ImportanceMiner"])
def test_estimator_fields_take_the_config_defaults(est, config, shared):
    fields = field_defaults(est)
    model = field_defaults(ModelSpec)
    for name in MODEL_FIELDS:
        assert fields[name] == model["embed" if name == "embed_dim" else name]
    cfg = field_defaults(config)
    assert set(fields) & set(cfg) == shared
    for name in shared:
        assert fields[name] == cfg[name], name


@pytest.mark.parametrize("est, order, text", [
    (Trainer,
     ["model", "lr", "epochs", "sampler", "importance", "seed", "eval_every",
      "clip", "embed_dim", "hidden", "classes", "context", "cd_k"],
     "Trainer(model='lstm', lr=0.5, epochs=10, sampler='uniform', "
     "importance=None, seed=0, eval_every=1, clip=None, embed_dim=8, "
     "hidden=8, classes=2, context=8, cd_k=1)"),
    (ImportanceMiner,
     ["model", "epsilon", "lr", "t_max", "seed", "base_selector", "norm_kind",
      "n_workers", "embed_dim", "hidden", "classes", "context", "cd_k"],
     "ImportanceMiner(model='lstm', epsilon=0.01, lr=0.1, t_max=5000, seed=0, "
     "base_selector=None, norm_kind='frobenius', "
     "n_workers=None, embed_dim=8, hidden=8, classes=2, context=8, cd_k=1)"),
], ids=["Trainer", "ImportanceMiner"])
def test_estimator_signature_params_and_repr(est, order, text):
    assert list(inspect.signature(est).parameters) == order
    assert list(est().get_params()) == order
    assert repr(est()) == text
    assert est(*[getattr(est, name) for name in order]).get_params() == (
        est().get_params())
    with pytest.raises(ConfigError, match="unknown parameter 'bogus'"):
        est().set_params(bogus=1)


@pytest.mark.parametrize("est", [Trainer, ImportanceMiner])
def test_estimators_hash_and_compare_by_identity(est):
    a, b = est(), est()
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert hash(a) == object.__hash__(a)


class Stop(Exception):
    """Ends a fit where its run would start."""


@pytest.mark.parametrize("est, module, run", [
    (Trainer, optimizer, "train"), (ImportanceMiner, fim, "mine_importance"),
], ids=["Trainer", "ImportanceMiner"])
def test_fit_reads_every_field(monkeypatch, est, module, run):
    names = {f.name for f in dataclasses.fields(est)}
    read = set()

    class Recording(est):
        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(module, run, stop)
    with pytest.raises(Stop):
        Recording().fit(gen_seqclass(n=4, vocab=6, length_range=(3, 5), seed=0))
    assert names - read == set()


TINY = gen_seqclass(n=4, vocab=6, length_range=(3, 5), seed=0)
SPEC = ModelSpec(kind="rnn", vocab=6)


@pytest.mark.parametrize("build, field", [
    (lambda: FimConfig(epsilon=0.01, t_max=np.nan), "t_max"),
    (lambda: FimConfig(epsilon=0.01, seed=-1), "seed"),
    (lambda: TrainConfig(spec=SPEC, lr=0.1, epochs=np.nan), "epochs"),
    (lambda: TrainConfig(spec=SPEC, lr=0.1, epochs=1, eval_every=np.nan), "eval_every"),
    (lambda: TrainConfig(spec=SPEC, lr=0.1, epochs=1, seed=-1), "seed"),
    (lambda: ModelSpec(kind="rnn", vocab=6, hidden=np.nan), "hidden"),
    (lambda: Trainer(seed=-1).fit(TINY), "seed"),
    (lambda: ImportanceMiner(seed=-1).fit(TINY), "seed"),
], ids=["FimConfig.t_max", "FimConfig.seed", "TrainConfig.epochs",
        "TrainConfig.eval_every", "TrainConfig.seed", "ModelSpec.hidden",
        "Trainer.seed", "ImportanceMiner.seed"])
def test_configs_reject_nan_and_negative_seeds_naming_the_field(build, field):
    """The library's configs check the ranges ``base.RANGES`` holds for the
    flags; a NaN fails every range."""
    with pytest.raises(ConfigError, match=f"^{field} must be >= "):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: Trainer(epochs=1.5).fit(TINY), "epochs"),
    (lambda: Trainer(hidden=2.5).fit(TINY), "hidden"),
    (lambda: Trainer(seed=1.5).fit(TINY), "seed"),
    (lambda: ImportanceMiner(t_max=2.5).fit(TINY), "t_max"),
    (lambda: FimConfig(epsilon=0.01, t_max=2.5), "t_max"),
    (lambda: ModelSpec(kind="rnnrbm", vocab=6, cd_k=1.5), "cd_k"),
    (lambda: TrainConfig(spec=SPEC, lr=0.1, epochs=1, eval_every=1.5), "eval_every"),
    (lambda: TrainConfig(spec=SPEC, lr=0.1, epochs=True), "epochs"),
], ids=["Trainer.epochs", "Trainer.hidden", "Trainer.seed", "ImportanceMiner.t_max",
        "FimConfig.t_max", "ModelSpec.cd_k", "TrainConfig.eval_every",
        "TrainConfig.epochs"])
def test_integer_settings_reject_bools_and_fractions_naming_the_field(build, field):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
        build()


def test_numpy_numbers_pass_and_float_settings_take_ints():
    cfg = FimConfig(epsilon=1, lr=np.float32(0.5), t_max=np.int64(3), seed=np.uint8(2))
    assert (cfg.epsilon, cfg.t_max) == (1, 3)
    assert TrainConfig(spec=SPEC, lr=1, epochs=np.int32(0), clip=2).epochs == 0


# Numeric flags checked against another flag rather than by ``RANGES``.
CROSS_FIELD = {"len_min", "len_max"}


def numeric_flags():
    """The dest of every ``type=int`` or ``type=float`` action of every command."""
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for p in sub.choices.values() for a in p._actions
            if a.type in (int, float)}


def test_every_numeric_flag_has_a_range_or_a_cross_field_check():
    assert numeric_flags() - CROSS_FIELD - set(base.RANGES) == set()
    assert CROSS_FIELD <= numeric_flags() and not CROSS_FIELD & set(base.RANGES)


class Reads(dict):
    """A dict that records every key looked up."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_range_is_read_by_a_flag_config_or_generator(monkeypatch, tmp_path):
    ranges = Reads(base.RANGES)
    monkeypatch.setattr(base, "RANGES", ranges)
    ModelSpec(kind="rnn", vocab=6)
    FimConfig(epsilon=0.1)
    TrainConfig(spec=SPEC, lr=0.1, epochs=1, clip=1.0)
    gen_seqclass(n=2, vocab=6)
    chunk_frames(gen_pianoroll(n=2), 2)
    fim.resolve_workers(1)
    save_importance(tmp_path / "t.json", ImportanceMiner(
        model="rnn", epsilon=10.0).fit(TINY).table_)
    load_importance(tmp_path / "t.json")
    assert set(base.RANGES) - numeric_flags() - ranges.read == set()


@pytest.mark.parametrize("build, classes", [
    (["mine", "--epsilon", "0.05"], [ModelSpec, FimConfig]),
    (["train", "--sampler", "importance", "--importance", "{table}"],
     [ModelSpec, TrainConfig]),
    (["compare", "--importance", "{table}"], [ModelSpec, TrainConfig, TrainConfig]),
    (ImportanceMiner, [ModelSpec, FimConfig]),
    (Trainer, [ModelSpec, TrainConfig]),
], ids=["mine", "train", "compare", "ImportanceMiner", "Trainer"])
def test_every_config_field_is_passed_or_read_from_the_settings(
        monkeypatch, tmp_path, build, classes):
    """Each config that a command or an estimator builds through
    ``base.config_of`` is passed, or finds among its settings, every field:
    a config field with no flag or estimator field fails here, not at run
    time."""
    data, table = str(tmp_path / "d.jsonl"), str(tmp_path / "i.json")
    save_dataset(data, TINY)
    save_importance(table, ImportanceMiner(model="rnn", t_max=2).fit(TINY).table_)
    built = []

    def recording(cls, settings, **given):
        unread = [f.name for f in dataclasses.fields(cls)
                  if f.name not in given and not hasattr(settings, f.name)]
        assert not unread, f"{cls.__name__}: no setting feeds {unread}"
        built.append(cls)
        return base.config_of(cls, settings, **given)

    def stop(*args, **kwargs):
        raise Stop

    for module in (cli, fim, optimizer, models):
        monkeypatch.setattr(module, "config_of", recording)
    monkeypatch.setattr(fim, "mine_importance", stop)
    monkeypatch.setattr(optimizer, "train", stop)
    with pytest.raises(Stop):
        if isinstance(build, list):
            cli.main([a.format(table=table) for a in build]
                     + ["--data", data, "--model", "rnn", "--out", str(tmp_path / "o")])
        else:
            build(model="rnn").fit(TINY)
    assert built == classes
