"""Acceptance criterion 9's ten-seed loop, timed per source tree, in
alternating runs.

    python3 scripts/seed_loop.py --src ../parent --src . --out BENCH_seed_loop.json

Runs the protocol of ``test_criterion_9_desk_scale_convergence`` (the desk
set and spec of ``scripts/desk_mine.py``; seeds 0-9; lr 0.5, 14 epochs)
in two timed parts: mining the ten seeds' tables, then training the ten
seeds x two samplers (uniform, importance), each run from its seed's
``init_params`` row. A tree whose ``train`` takes a start row per run
trains all 20 runs in one call; an older one, which shares one start
across a call, trains them as ten two-row calls, one per seed. Every run
is a fresh interpreter started by ``desk_mine.run_fresh`` (BLAS at one
thread), with the process pinned to one CPU; pair j runs the trees in the
given order when j is even and in reverse when j is odd.

Each run keeps the seconds of both parts, the call pattern, the epochs to
the loss target 0.3 per seed and sampler, and the sha256 of the 20 runs'
final parameters and of their metrics rows without ``wall_ms``, so the
trees' results can be compared. Per tree it keeps the median seconds and
the numpy version and BLAS build the runs imported.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from desk_mine import pin_one_cpu, run_fresh

PAIRS = 3

RUN = """
import hashlib, json, time
import numpy as np
from gradmine.data import gen_seqclass
from gradmine.errors import ConfigError
from gradmine.fim import FimConfig, mine_importance
from gradmine.models import ModelSpec, get_model
from gradmine.optimizer import TrainConfig, train

ds = gen_seqclass(n=200, vocab=50, length_range=(6, 40), hard_fraction=0.25, seed=7)
spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=8, hidden=12, classes=2)
model = get_model(spec)
seeds, samplers = range(10), ("uniform", "importance")

start = time.perf_counter()
mined = [mine_importance(ds, spec, FimConfig(epsilon=0.003, lr=0.5, seed=seed),
                         n_workers=1) for seed in seeds]
mine_s = time.perf_counter() - start

cfgs = [TrainConfig(spec=spec, lr=0.5, epochs=14, sampler=sampler, seed=seed,
                    importance=table if sampler == "importance" else None)
        for seed, table in zip(seeds, mined) for sampler in samplers]
starts = [model.init_params(seed) for seed in seeds for _ in samplers]
try:  # a zero-epoch probe: does this tree's train take a start row per run?
    probe, two = TrainConfig(spec=spec, lr=0.5, epochs=0), np.stack([starts[0].vec] * 2)
    train(ds.samples[:1], starts[0].like(two), [probe, probe])
    one_call = True
except ConfigError:
    one_call = False

start = time.perf_counter()
if one_call:
    results = train(ds, starts[0].like(np.stack([p.vec for p in starts])), cfgs)
else:
    results = [out for i in range(0, len(cfgs), 2)
               for out in train(ds, starts[i], cfgs[i:i + 2])]
train_s = time.perf_counter() - start

params = b"".join(p.vec.tobytes() for p, _ in results)
rows = [(r.epoch, r.split, r.loss.hex(), r.error_rate.hex(), r.grad_var.hex())
        for _, log in results for r in log.rows]
reach = {sampler: [] for sampler in samplers}
for cfg, (_, log) in zip(cfgs, results):
    losses = log.losses("train")
    reach[cfg.sampler].append(next(
        (e for e, loss in enumerate(losses, start=1) if loss <= 0.3), 15))
print(json.dumps({
    "mine_s": mine_s,
    "train_s": train_s,
    "calls": 1 if one_call else len(seeds),
    "epochs_to_target": reach,
    "params_sha256": hashlib.sha256(params).hexdigest(),
    "metrics_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    "numpy": np.__version__,
    "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
}))
"""


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", required=True,
                   help="a tree holding src/gradmine; repeat to compare")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    trees = list(dict.fromkeys(args.src))

    cpu = pin_one_cpu()
    runs, library = [], {}
    for pair in range(PAIRS):
        for tree in trees if pair % 2 == 0 else trees[::-1]:
            out = run_fresh(tree, RUN)
            library[tree] = {key: out.pop(key) for key in ("numpy", "blas")}
            runs.append(dict(tree=tree, pair=pair, **out))
            print(f"{tree} pair {pair}: mine {out['mine_s']:.1f} s, train "
                  f"{out['train_s']:.1f} s in {out['calls']} calls",
                  file=sys.stderr, flush=True)

    medians = {tree: {part: statistics.median(
        r[part] for r in runs if r["tree"] == tree) for part in ("mine_s", "train_s")}
        for tree in trees}
    result = {
        "dataset": "gen_seqclass(n=200, vocab=50, length_range=(6, 40), "
                   "hard_fraction=0.25, seed=7)",
        "config": "LSTM embed 8, hidden 12; seeds 0-9; FimConfig(epsilon=0.003, "
                  "lr=0.5, seed=<seed>), n_workers=1; TrainConfig(lr=0.5, "
                  "epochs=14, seed=<seed>) per sampler",
        "cpu": cpu,
        "library": library,
        "median_seconds": medians,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
