"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads desk-lstm train-rnn \
        --seeds 10 --seconds 30 --trace 0 --out summary.json

Runs ``run.py`` once per (workload, seed), one run at a time, and reports
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median. The summary also keeps every raw value.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        results, envs = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            results.append(json.loads(lines[-1]))
            envs.append(json.loads(lines[0])["environment"])
            print(f"{workload} seed {seed}: correct={results[-1]['correct']}",
                  file=sys.stderr, flush=True)
        names = results[0]["metrics"]
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                name: dict(unit=results[0]["metrics"][name]["unit"],
                           **summarise([r["metrics"][name]["value"]
                                        for r in results]))
                for name in names
            },
            "environments": envs,
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:14s} {name:32s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
