"""Acceptance criterion 9's ten-seed loop, timed per source tree.

    python3 scripts/seed_loop.py --src ../parent --src . --out BENCH_seed_loop.json

Runs the protocol of ``test_criterion_9_desk_scale_convergence`` (the desk
set and spec, ``harness.DESK``; seeds 0-9; lr 0.5, 14 epochs) in two timed
parts: mining the ten seeds' tables, then training the ten seeds x two
samplers (uniform, importance), each run from its seed's ``init_params``
row, as one ``train`` call of 20 runs. The trees run in three pairs on
``harness.compare``.

Each run keeps the seconds of both parts, the epochs to the loss target
0.3 per seed and sampler, and the sha256 of the 20 runs' final parameters
and of their metrics rows without ``wall_ms``, so the trees' results can
be compared. Per tree it keeps the median seconds.
"""

from harness import DESK, DESK_SET, compare

RUN = DESK + """
import hashlib, json, time
import numpy as np
from gradmine.fim import FimConfig, mine_importance
from gradmine.models import get_model
from gradmine.optimizer import TrainConfig, train

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

start = time.perf_counter()
results = train(ds, starts[0].like(np.stack([p.vec for p in starts])), cfgs)
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
    "epochs_to_target": reach,
    "params_sha256": hashlib.sha256(params).hexdigest(),
    "metrics_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
}))
"""


def main(argv=None):
    compare(__doc__, RUN, lambda run: {p: run[p] for p in ("mine_s", "train_s")},
            argv=argv, dataset=DESK_SET,
            config="LSTM embed 8, hidden 12; seeds 0-9; FimConfig(epsilon=0.003, "
                   "lr=0.5, seed=<seed>), n_workers=1; TrainConfig(lr=0.5, "
                   "epochs=14, seed=<seed>) per sampler")


if __name__ == "__main__":
    main()
