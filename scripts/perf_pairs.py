"""The pipeline benchmark of two source trees, in alternated pairs of runs.

    python3 scripts/perf_pairs.py --src ../parent --src . --out BENCH_tanh_passes.json

Runs each tree's own ``perfbench/run.py --seconds 30 --trace 0`` on every
benchmark workload, in ten pairs per workload on ``harness.compare``, the
first tree first in even pairs. It refuses to start when the trees'
``perfbench/`` files differ, since the comparison would then measure two
benchmarks. ``--seed`` only labels a run (the workloads pin their inputs), so
every run takes seed 0.

The output keeps, per tree and ``<workload> <metric>``, every end-to-end
metric's median and quartiles (perfbench's ``summarise``), and per such
part the pairs each tree won: every metric of the benchmark is better
lower, and a tie counts for neither tree.
"""

import sys
from pathlib import Path

from harness import compare
from workloads import WORKLOADS  # perfbench's, on harness's path

PAIRS = 10
SECONDS = 30
RUN = f"""
import os, runpy, sys
from pathlib import Path
run = str(Path(os.environ["PYTHONPATH"]).parent / "perfbench" / "run.py")
sys.argv = [run, "--workload", sys.argv[1], "--seed", "0", "--seconds",
            "{SECONDS}", "--trace", "0"]
runpy.run_path(run, run_name="__main__")
"""


def perfbench_files(tree):
    """{path under perfbench/: bytes} of a tree's benchmark files."""
    root = Path(tree) / "perfbench"
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts}


def same_benchmark(trees):
    """End this process unless every tree holds the same perfbench/ files."""
    first, *others = (perfbench_files(tree) for tree in trees)
    for tree, files in zip(trees[1:], others):
        differ = sorted(name for name in set(first) | set(files)
                        if first.get(name) != files.get(name))
        if differ:
            raise SystemExit(f"{trees[0]} and {tree} differ in perfbench/: "
                             + ", ".join(differ))


def metrics(run):
    return {f"{run['workload']} {name}": m["value"]
            for name, m in run["metrics"].items()}


def main(argv=None):
    compare(__doc__, RUN, metrics, [{"workload": w} for w in WORKLOADS], argv,
            pairs=PAIRS, check=same_benchmark,
            command=f"perfbench/run.py --workload <workload> --seed 0 "
                    f"--seconds {SECONDS} --trace 0")


if __name__ == "__main__":
    sys.exit(main())
