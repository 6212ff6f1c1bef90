"""Desk-scale mining time of source trees, in alternating runs.

    python3 scripts/desk_mine.py --src ../parent --src . --out BENCH_desk_mine.json

Mines the desk set of acceptance criterion 9 (``harness.DESK``: the
``gen_seqclass`` set, n=200, and the LSTM with embed 8 and hidden 12;
epsilon 0.003, lr 0.5) with one worker, for seeds 0-2 of that test, in
three pairs of runs per seed on ``harness.compare``.

The output keeps each run's wall seconds of ``mine_importance`` alone and
the sha256 of the mined norms and of the iterations, so that the tables of
the trees can be compared, and per tree and seed the median seconds.
"""

from harness import DESK, DESK_SET, compare

RUN = DESK + """
import hashlib, json, sys, time
from gradmine.fim import FimConfig, mine_importance

cfg = FimConfig(epsilon=0.003, lr=0.5, seed=int(sys.argv[1]))
start = time.perf_counter()
table = mine_importance(ds, spec, cfg, n_workers=1)
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "norms_sha256": hashlib.sha256(table.norms.tobytes()).hexdigest(),
    "iterations_sha256": hashlib.sha256(table.iterations.tobytes()).hexdigest(),
    "private_steps": int(table.iterations.sum()),
}))
"""


def main(argv=None):
    compare(__doc__, RUN, lambda run: {str(run["seed"]): run["seconds"]},
            [{"seed": seed} for seed in (0, 1, 2)], argv, dataset=DESK_SET,
            config="LSTM embed 8, hidden 12; FimConfig(epsilon=0.003, lr=0.5, "
                   "seed=<seed>), n_workers=1")


if __name__ == "__main__":
    main()
