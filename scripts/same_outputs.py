"""Whether two source trees produce the same pipeline outputs.

    python3 scripts/same_outputs.py --src ../parent --src .

Runs every benchmark workload (``perfbench/workloads.py``) on each tree:
every argv of the workload's ``stages()``, in order, through
``gradmine.cli.main`` in a run of ``harness.run_fresh``; each tree's run
of a workload has its own temporary directory. It then compares, per
workload, ``table.json``, ``variance.json`` and each metrics CSV with its
``wall_ms`` column dropped (the only timed output), byte for byte.

Prints one JSON line per workload and artifact, with the sha256 of the
compared bytes per tree (null where the tree wrote no such file), and
exits 1 if any artifact differs or any stage fails.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from harness import run_fresh
from workloads import WORKLOADS, fill, stages  # perfbench's, on harness's path

RUN = ("import json, sys\n"
       "from gradmine.cli import main\n"
       "status = main(json.loads(sys.argv[1]))\n"
       "print(status)\n"
       "sys.exit(status)\n")
TIMED_COLUMN = "wall_ms"


def run_workload(tree, workload, directory):
    """Run every stage of ``workload`` on ``tree``, writing into ``directory``."""
    for _, argv in stages(workload):
        run_fresh(tree, RUN, json.dumps(fill(argv, directory)), timeout=600,
                  cwd=directory)


def untimed_csv(path):
    """The CSV at ``path`` with its timed column dropped, as bytes."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(TIMED_COLUMN)
    out = io.StringIO()
    csv.writer(out).writerows([c for j, c in enumerate(row) if j != drop]
                              for row in rows)
    return out.getvalue().encode()


def artifacts(directory):
    """{name: compared bytes} of the outputs a workload run left."""
    found = {name: (directory / name).read_bytes()
             for name in ("table.json", "variance.json") if (directory / name).exists()}
    found.update((p.name, untimed_csv(p))
                 for p in sorted(directory.glob("metrics*.csv")))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, type=Path,
                        help="a source tree; give exactly two")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    trees = [tree.resolve() for tree in args.src]
    for tree in trees:
        if not (tree / "src" / "gradmine").is_dir():
            parser.error(f"{tree} has no src/gradmine")

    differ = False
    for workload in WORKLOADS.values():
        outputs = []
        for tree in trees:
            with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
                run_workload(tree, workload, Path(tmp))
                outputs.append(artifacts(Path(tmp)))
        for name in sorted(set(outputs[0]) | set(outputs[1])):
            got = [out.get(name) for out in outputs]
            same = got[0] is not None and got[0] == got[1]
            differ |= not same
            print(json.dumps({
                "workload": workload.name, "artifact": name, "same": same,
                "sha256": [None if b is None else hashlib.sha256(b).hexdigest()
                           for b in got],
            }), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
