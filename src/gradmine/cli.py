"""Command-line pipeline: generate data, mine importance, train, compare,
and report estimator variance.

Exit codes: 0 on success, 2 on usage or validation problems, 3 when a run
diverges. Every artifact written gets a ``<path>.run.json`` sidecar that
records the command, resolved configuration, input hashes, and wall time.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import analysis, data, fim, optimizer, plotting
from .errors import DivergenceError, GradmineError
from .models import (
    MODEL_KINDS,
    STREAM_EVAL,
    get_model,
    spec_of,
    stream_rng,
    validate_dataset,
)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_record(out_path, args, started, inputs, outputs):
    config = {k: v for k, v in vars(args).items() if k != "func"}
    blob = json.dumps(config, sort_keys=True, default=str)
    record = {
        "command": " ".join(sys.argv) if sys.argv else args.command,
        "config": config,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "seed": getattr(args, "seed", None),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": list(outputs),
        "wall_ms": (time.perf_counter() - started) * 1e3,
    }
    with open(str(out_path) + ".run.json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
        fh.write("\n")


def _add_field_args(p, est, *names):
    """A ``--field-name`` flag per named field of the estimator class
    ``est``, typed by the field's annotation and defaulting to its value."""
    types = {f.name: f.type for f in dataclasses.fields(est)}
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=types[name],
                       default=getattr(est, name))


def _add_model_args(p, est):
    p.add_argument("--model", default=est.model, choices=MODEL_KINDS)
    _add_field_args(p, est, "embed_dim", "hidden", "classes", "context", "cd_k")


def _add_train_args(p):
    p.add_argument("--data", required=True)
    _add_model_args(p, optimizer.Trainer)
    _add_field_args(p, optimizer.Trainer, "lr", "epochs", "seed", "eval_every", "clip")
    p.add_argument("--metric", choices=["loss", "error_rate"], default="loss")
    p.add_argument("--svg", default=None)
    p.add_argument("--out", required=True)


def cmd_gen(args):
    started = time.perf_counter()
    if args.task == "seqclass":
        dataset = data.gen_seqclass(
            n=args.n,
            vocab=args.vocab,
            length_range=(args.len_min, args.len_max),
            hard_fraction=args.hard,
            seed=args.seed,
        )
    else:
        dataset = data.gen_pianoroll(
            n=args.n,
            n_v=args.nv,
            length_range=(args.len_min, args.len_max),
            patterns=args.patterns,
            seed=args.seed,
        )
        if args.frames_per_sample:
            dataset = data.chunk_frames(dataset, args.frames_per_sample)
    data.save_dataset(args.out, dataset)
    _write_run_record(args.out, args, started, [], [args.out])
    print(json.dumps(dataset.manifest, indent=2))
    return 0


def cmd_mine(args):
    started = time.perf_counter()
    dataset = data.load_dataset(args.data)
    spec = spec_of(args, dataset)
    epsilon = args.epsilon
    if epsilon is None:
        if args.target_loss is None:
            raise GradmineError("one of --epsilon / --target-loss is required")
        epsilon = fim.default_epsilon(args.target_loss)
    cfg = fim.fim_config_of(args, epsilon)
    result = fim.mine_importance(dataset, spec, cfg, n_workers=args.workers)
    table = result.table
    fim.save_importance(args.out, table)
    _write_run_record(args.out, args, started, [args.data], [args.out])

    stalled = int(np.sum(~table.converged))
    print(
        f"mined {table.n} samples: p_i min {table.probs.min():.3e} "
        f"max {table.probs.max():.3e} mean {table.probs.mean():.3e}; "
        f"iterations mean {table.iterations.mean():.1f}; "
        f"not converged: {stalled}"
    )
    if stalled:
        print(f"warning: {stalled} samples hit the {cfg.t_max}-step cap",
              file=sys.stderr)
    if int(table.iterations.max()) == 0:
        print(
            "warning: epsilon is above every initial loss; table is uniform",
            file=sys.stderr,
        )
    if result.embedding_spread is not None:
        print(f"private-embedding mean pairwise distance: "
              f"{result.embedding_spread:.6g}")
    return 0


# Frame-grouping presets for the generative model: grouped-frame count
# paired with the step size that works at that grouping.
RBM_PRESETS = {"50": (50, 0.3), "100": (100, 0.003)}


def _train_and_write(args, started, dataset, spec, table, samplers, inputs,
                     title, eval_dataset=None):
    """Train once per sampler from one initialization, then write the
    metrics CSV, the optional SVG of the train split, and their run
    records. A single run keeps its split names; a comparison writes only
    train rows, each named by its sampler."""
    if args.epochs < 1:
        raise GradmineError(f"--epochs must be >= 1, got {args.epochs}")
    params0 = get_model(spec).init_params(args.seed)
    logs = {}
    for sampler in samplers:
        cfg = optimizer.train_config_of(
            args, spec, sampler, table if sampler == optimizer.IMPORTANCE else None)
        _, logs[sampler] = optimizer.train(
            dataset, params0, cfg, eval_dataset=eval_dataset)
    train_rows = {s: log.split_rows("train") for s, log in logs.items()}

    metrics = logs[samplers[0]] if len(samplers) == 1 else optimizer.MetricsLog(
        rows=[replace(r, split=s) for s, rows in train_rows.items() for r in rows])
    optimizer.save_metrics(args.out, metrics)
    outputs = [args.out]
    if args.svg:
        series = [(s, [r.epoch for r in rows], [getattr(r, args.metric) for r in rows])
                  for s, rows in train_rows.items()]
        with open(args.svg, "w") as fh:
            fh.write(plotting.svg_line_chart(
                series, title=title, xlabel="epoch", ylabel=args.metric))
        outputs.append(args.svg)
        _write_run_record(args.svg, args, started, inputs, outputs)
    _write_run_record(args.out, args, started, inputs, outputs)
    for sampler, rows in train_rows.items():
        last = rows[-1]
        print(f"{sampler:>10}: epoch {last.epoch} loss {last.loss:.6f} "
              f"error {last.error_rate:.4f} grad_var {last.grad_var:.6g}")
    return 0


def cmd_train(args):
    started = time.perf_counter()
    dataset = data.load_dataset(args.data)
    if args.rbm_preset:
        frames, args.lr = RBM_PRESETS[args.rbm_preset]
        dataset = data.chunk_frames(dataset, frames)
    spec = spec_of(args, dataset)
    table = None
    inputs = [args.data]
    if args.sampler == optimizer.IMPORTANCE:
        if not args.importance:
            raise GradmineError("--sampler importance requires --importance")
        table = fim.load_importance(args.importance).check_fits(spec, len(dataset))
        inputs.append(args.importance)
    eval_dataset = data.load_dataset(args.eval_data) if args.eval_data else None
    if eval_dataset is not None:
        inputs.append(args.eval_data)
    return _train_and_write(args, started, dataset, spec, table, [args.sampler],
                            inputs, f"{spec.kind} training", eval_dataset)


def cmd_compare(args):
    started = time.perf_counter()
    dataset = data.load_dataset(args.data)
    spec = spec_of(args, dataset)
    table = fim.load_importance(args.importance).check_fits(spec, len(dataset))
    return _train_and_write(
        args, started, dataset, spec, table,
        [optimizer.UNIFORM, optimizer.IMPORTANCE], [args.data, args.importance],
        f"{spec.kind}: uniform vs importance (lr={args.lr:g})")


def cmd_variance(args):
    started = time.perf_counter()
    dataset = data.load_dataset(args.data)
    spec = spec_of(args, dataset)
    samples = validate_dataset(spec, dataset)
    model = get_model(spec)
    params = model.init_params(args.seed)
    inputs = [args.data]
    if args.warm_epochs:
        params, _ = optimizer.train(dataset, params, optimizer.TrainConfig(
            spec=spec, lr=args.lr, epochs=args.warm_epochs, seed=args.seed))

    rng = stream_rng(args.seed, STREAM_EVAL)
    grads = np.stack(
        [g for *_, g in optimizer.sample_passes(model, params, samples, rng)])
    mined_norms = mined_probs = None
    if args.importance:
        table = fim.load_importance(args.importance).check_fits(spec, len(dataset))
        mined_norms, mined_probs = table.norms, table.probs
        inputs.append(args.importance)
    report = analysis.variance_report(
        grads, mined_norms=mined_norms, mined_probs=mined_probs
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_run_record(args.out, args, started, inputs, [args.out])
    print(json.dumps(report, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradmine",
        description="Importance-sampled SGD for recurrent sequence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--task", choices=["seqclass", "pianoroll"], default="seqclass")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--nv", type=int, default=16, help="frame width (pianoroll)")
    p.add_argument("--len-min", type=int, default=6)
    p.add_argument("--len-max", type=int, default=40)
    p.add_argument("--hard", type=float, default=0.25)
    p.add_argument("--patterns", type=int, default=4)
    p.add_argument("--frames-per-sample", type=int, default=0,
                   help="regroup pianoroll frames into chunks of this size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    miner = fim.ImportanceMiner
    p = sub.add_parser("mine", help="mine per-sample importance")
    p.add_argument("--data", required=True)
    _add_model_args(p, miner)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--target-loss", type=float, default=None,
                   help="derive epsilon as 0.01 * target loss")
    _add_field_args(p, miner, "lr", "t_max", "seed", "base_selector")
    p.add_argument("--norm-kind", choices=["frobenius", "spectral"],
                   default=miner.norm_kind)
    p.add_argument("--workers", type=int, default=miner.n_workers,
                   help="default: GRADMINE_WORKERS or all cores")
    p.add_argument("--embed-diagnostic", action="store_true",
                   default=miner.embed_diagnostic)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train one model")
    _add_train_args(p)
    p.add_argument("--sampler", choices=[optimizer.UNIFORM, optimizer.IMPORTANCE],
                   default=optimizer.Trainer.sampler)
    p.add_argument("--importance", default=None)
    p.add_argument("--eval-data", default=None)
    p.add_argument("--rbm-preset", choices=sorted(RBM_PRESETS), default=None,
                   help="frame grouping + step size preset (rnnrbm)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="uniform vs importance, same budget")
    _add_train_args(p)
    p.add_argument("--importance", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("variance", help="estimator variance report")
    p.add_argument("--data", required=True)
    _add_model_args(p, optimizer.Trainer)
    _add_field_args(p, optimizer.Trainer, "seed", "lr")
    p.add_argument("--warm-epochs", type=int, default=0,
                   help="uniform-train this many epochs before measuring")
    p.add_argument("--importance", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_variance)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GradmineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
