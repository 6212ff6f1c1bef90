"""One-row LSTM passes of source trees against the per-sample oracle.

    python3 scripts/lstm_rows.py --src ../parent --src . --out BENCH_lstm_rows.json

On the desk set of acceptance criterion 9 (``harness.DESK``: the
``gen_seqclass`` set, n=200, and the LSTM with embed 8 and hidden 12, at
``init_params`` seed 0), times for every sample the best of ``REPEATS``
calls of ``lstm.forward`` then ``lstm.backward`` on the sample's one-row
batch at a one-row (1, P) ``Params``, as every LSTM ``train`` step takes
them, and the same for the tree's per-sample oracle,
``tests/oracles.py::lstm_forward`` then ``lstm_backward``. Three pairs of
runs on ``harness.compare``.

The output keeps, per run, the mean over samples of each best time in µs
and their ratio, and the sha256 of the library's gradients, so that trees
can be seen to agree; per tree the medians.
"""

from harness import DESK, DESK_SET, compare

REPEATS = 7
RUN = DESK + f"""
import hashlib, json, os, sys, time
sys.path.insert(0, os.path.join(os.path.dirname(os.environ["PYTHONPATH"]), "tests"))
import numpy as np
import oracles
from gradmine.models import get_model, lstm, pack, validate_dataset

params = get_model(spec).init_params(0)
row = params.like(params.vec[None].copy())
samples = validate_dataset(spec, ds)


def best(passes):
    times = []
    for _ in range({REPEATS}):
        start = time.perf_counter()
        out = passes()
        times.append(time.perf_counter() - start)
    return min(times) * 1e6, out


library, oracle, digest = [], [], hashlib.sha256()
for sample in samples:
    batch = pack([sample])
    us, grads = best(lambda: lstm.backward(row, batch, lstm.forward(row, batch)))
    library.append(us)
    digest.update(grads.tobytes())
    oracle.append(best(lambda: oracles.lstm_backward(
        params, sample, oracles.lstm_forward(params, sample)))[0])
print(json.dumps({{
    "library_us": float(np.mean(library)),
    "oracle_us": float(np.mean(oracle)),
    "library_over_oracle": float(np.mean(library) / np.mean(oracle)),
    "grads_sha256": digest.hexdigest(),
}}))
"""


def main(argv=None):
    compare(__doc__, RUN, lambda run: {part: run[part] for part in (
        "library_us", "oracle_us", "library_over_oracle")}, argv=argv,
        dataset=DESK_SET, repeats=REPEATS,
        config="LSTM embed 8, hidden 12, init_params seed 0; one-row batches "
               "at a (1, P) Params; forward then backward per call")


if __name__ == "__main__":
    main()
