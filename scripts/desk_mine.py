"""Desk-scale mining time of source trees, in alternating runs.

    python3 scripts/desk_mine.py --src ../parent --src . --out BENCH_desk_mine.json

Mines the desk set of acceptance criterion 9 (``gen_seqclass`` n=200,
vocab 50, lengths 6-40, hard fraction 0.25, seed 7; LSTM with embed 8 and
hidden 12; epsilon 0.003, lr 0.5) with one worker, for seeds 0-2 of that test.
Every run is a fresh interpreter that imports ``gradmine`` from
``<tree>/src``, with BLAS at one thread and the process pinned to one CPU;
runs are recorded under their tree as given. For each seed, pair j of three
runs the trees in the given order when j is even and in reverse when j is
odd.

The output keeps each run's wall seconds of ``mine_importance`` alone and
the sha256 of the mined norms and of the iterations, so that the tables of
the trees can be compared, and per tree and seed the median seconds. It
also keeps, per tree, the numpy version and BLAS build
(``np.show_config(mode="dicts")``) the runs imported, so that tables whose
bits differ can be traced to a library change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 1, 2)
PAIRS = 3

RUN = """
import hashlib, json, sys, time
import numpy as np
from gradmine.data import gen_seqclass
from gradmine.fim import FimConfig, mine_importance
from gradmine.models import ModelSpec

seed = int(sys.argv[1])
ds = gen_seqclass(n=200, vocab=50, length_range=(6, 40), hard_fraction=0.25, seed=7)
spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=8, hidden=12, classes=2)
cfg = FimConfig(epsilon=0.003, lr=0.5, seed=seed)
start = time.perf_counter()
result = mine_importance(ds, spec, cfg, n_workers=1)
table = getattr(result, "table", result)  # older trees wrap the table in a result
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "norms_sha256": hashlib.sha256(table.norms.tobytes()).hexdigest(),
    "iterations_sha256": hashlib.sha256(table.iterations.tobytes()).hexdigest(),
    "private_steps": int(table.iterations.sum()),
    "numpy": np.__version__,
    "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
}))
"""


def run_fresh(tree, code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports
    ``gradmine`` from ``<tree>/src``, with BLAS at one thread; returns the
    JSON object on the last line it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    env.update((name, "1") for name in BLAS_THREADS)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tree} {' '.join(map(str, args))}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pin_one_cpu():
    """Pin this process, and so every run it starts, to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", required=True,
                   help="a tree holding src/gradmine; repeat to compare")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    trees = list(dict.fromkeys(args.src))

    cpu = pin_one_cpu()
    runs, library = [], {}
    for seed in SEEDS:
        for pair in range(PAIRS):
            for tree in trees if pair % 2 == 0 else trees[::-1]:
                out = run_fresh(tree, RUN, seed)
                library[tree] = {key: out.pop(key) for key in ("numpy", "blas")}
                run = dict(tree=tree, seed=seed, pair=pair, **out)
                runs.append(run)
                print(f"{tree} seed {seed} pair {pair}: {run['seconds']:.2f} s",
                      file=sys.stderr, flush=True)

    medians = {tree: {str(seed): statistics.median(
        r["seconds"] for r in runs if r["tree"] == tree and r["seed"] == seed)
        for seed in SEEDS} for tree in trees}
    result = {
        "dataset": "gen_seqclass(n=200, vocab=50, length_range=(6, 40), "
                   "hard_fraction=0.25, seed=7)",
        "config": "LSTM embed 8, hidden 12; FimConfig(epsilon=0.003, lr=0.5, "
                  "seed=<seed>), n_workers=1",
        "cpu": cpu,
        "library": library,
        "median_seconds": medians,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
