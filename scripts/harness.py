"""The one way the scripts under ``scripts/`` run source trees.

A run is a fresh interpreter that imports ``gradmine`` from ``<tree>/src``,
with BLAS at one thread and no bytecode written, and prints its result as a
JSON object on its last line. A timed comparison pins this process, and so
every run, to its lowest CPU, and runs the trees in pairs: pair j in the
given order when j is even and in reverse when j is odd.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from repeat import summarise  # noqa: E402

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 3
LIBRARY = ("import json\nimport numpy as np\n"
           "print(json.dumps({'numpy': np.__version__, 'blas': "
           "np.show_config(mode='dicts')['Build Dependencies']['blas']}))\n")

# The desk set and spec of acceptance criterion 9, as the head of a run's code.
DESK_SET = ("gen_seqclass(n=200, vocab=50, length_range=(6, 40), "
            "hard_fraction=0.25, seed=7)")
DESK = f"""
from gradmine.data import gen_seqclass
from gradmine.models import ModelSpec
ds = {DESK_SET}
spec = ModelSpec(kind="lstm", vocab=ds.vocab, embed=8, hidden=12, classes=2)
"""


def run_fresh(tree, code, *args, timeout=900, cwd=None):
    """One run of ``code`` with ``args`` on ``tree``, in ``cwd``: its JSON
    object. A run that exits non-zero or outlives ``timeout`` seconds ends
    this process with a message that names the tree and the arguments."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(BLAS_THREADS, "1"))
    run = " ".join(map(str, (tree, *args)))
    try:
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              cwd=cwd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{run}: timed out after {timeout} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{run}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pair_order(trees, pair):
    return trees if pair % 2 == 0 else trees[::-1]


def wins(pairs):
    """Per part, the pairs that each tree won and the ties, over ``pairs``,
    each one {tree: {part: value}}: the single lowest value wins, and a
    pair whose lowest value is shared is a tie."""
    count = {}
    for pair in pairs:
        for part in next(iter(pair.values())):
            low = min(by_part[part] for by_part in pair.values())
            best = [tree for tree, by_part in pair.items() if by_part[part] == low]
            tally = count.setdefault(part, dict.fromkeys([*pair, "ties"], 0))
            tally[best[0] if len(best) == 1 else "ties"] += 1
    return count


def compare(doc, code, parts, argsets=({},), argv=None, pairs=PAIRS, check=None,
            **record):
    """A timed comparison's command line (``--src``, repeatable, ``--out``).
    Calls ``check(trees)``, if given, before any run; then runs ``code`` in
    ``pairs`` pairs per argument set and writes ``record`` with the CPU; per
    tree the numpy version and BLAS build, so that results whose bits differ
    can be traced to a library change; per tree and part (``parts(run)``
    maps a run's parts to values, lower being better) the median and
    perfbench's summary; per part the pairs each tree won (``wins``); and
    every run with its tree, arguments and pair."""
    p = argparse.ArgumentParser(description=doc.split("\n")[0])
    p.add_argument("--src", action="append", required=True,
                   help="a tree holding src/gradmine; repeat to compare")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    trees = list(dict.fromkeys(args.src))
    if check is not None:
        check(trees)

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    library = {tree: run_fresh(tree, LIBRARY) for tree in trees}
    runs, values, by_pair = [], {tree: {} for tree in trees}, []
    for argset in argsets:
        for pair in range(pairs):
            by_pair.append({})
            for tree in pair_order(trees, pair):
                run = dict(tree=tree, **argset, pair=pair,
                           **run_fresh(tree, code, *argset.values()))
                runs.append(run)
                by_pair[-1][tree] = parts(run)
                for part, value in by_pair[-1][tree].items():
                    values[tree].setdefault(part, []).append(value)
                print(json.dumps(run), file=sys.stderr, flush=True)

    summary = {tree: {part: summarise(v) for part, v in by_part.items()}
               for tree, by_part in values.items()}
    result = dict(record, cpu=cpu, library=library, medians={
        tree: {part: s["median"] for part, s in by_part.items()}
        for tree, by_part in summary.items()}, summary=summary,
        wins=wins(by_pair), runs=runs)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
