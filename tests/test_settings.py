"""Each estimator-backed setting is declared once. The estimators are
dataclasses whose fields take the config defaults, and the CLI flags take
their defaults from the estimator fields."""

import dataclasses
import inspect

import pytest

from gradmine import cli, fim, optimizer
from gradmine.data import gen_seqclass
from gradmine.errors import ConfigError
from gradmine.fim import FimConfig, ImportanceMiner
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


def test_mine_and_train_keep_their_own_model_defaults():
    assert ImportanceMiner.model == "rnn" and Trainer.model == "lstm"
    assert cli.build_parser().parse_args(
        ["mine", "--data", "d", "--out", "o"]).epsilon is None


@pytest.mark.parametrize("est, config, shared", [
    (Trainer, TrainConfig,
     {"sampler", "importance", "seed", "eval_every", "clip"}),
    (ImportanceMiner, FimConfig,
     {"lr", "t_max", "seed", "base_selector", "norm_kind", "record_history",
      "embed_diagnostic"}),
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
      "n_workers", "record_history", "embed_diagnostic",
      "embed_dim", "hidden", "classes", "context", "cd_k"],
     "ImportanceMiner(model='rnn', epsilon=0.01, lr=0.1, t_max=5000, seed=0, "
     "base_selector=None, norm_kind='frobenius', "
     "n_workers=None, record_history=False, embed_diagnostic=False, "
     "embed_dim=8, hidden=8, classes=2, context=8, cd_k=1)"),
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
