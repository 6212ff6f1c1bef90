"""Benchmark of the gradmine pipeline: gen -> mine -> train -> variance.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-lstm --seed 0 --seconds 30 --trace 0

Every stage runs in this one process through ``gradmine.cli.main`` with
``--workers 1`` and BLAS pinned to one thread. A run repeats the whole
pipeline until ``--seconds`` is spent, times a fresh-interpreter set-up
(import plus the gen stages) before each repetition, and reports medians
of calibrated times (see ``SpeedProbe``). With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics instead. The first line of standard output records the
environment; the last is one JSON object: ``correct``, ``attempted``,
``failed`` (stages) and ``metrics``. ``--record-reference`` rewrites the
workload's recorded reference outputs from the current build.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, fill, stages  # noqa: E402

SETUPS = 5  # fresh-interpreter set-ups timed per untraced run
# A stage is run again within a repetition until STAGE_S seconds of it are
# timed, at most STAGE_RUNS times, and its median is kept: a calibrated
# stage of 0.75 s still varied by 10% from run to run, one of 2.5 s by 3%.
STAGE_S = 2.0
STAGE_RUNS = 15
MIN_TRACED = 2  # traced repetitions, so exact counts can be compared
STAGES = ("gen", "mine", "train", "variance")

END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "train_s": "s",
    "variance_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "final_loss.uniform": "nats",
    "final_loss.importance": "nats",
    "var_ratio.mined": "ratio",
}

PER_LAYER = {
    "fim.private_steps": "count",
    "fim.steps_per_sample.p50": "count",
    "fim.steps_per_sample.max": "count",
    "fim.unconverged_frac": "ratio",
    "fim.sample_ms.p50": "ms",
    "fim.sample_ms.p95": "ms",
    "fim.us_per_private_step": "us",
    "fim.forward_share": "ratio",
    "fim.backward_share": "ratio",
    "fim.update_share": "ratio",
    "fim.self_s": "s",
    "lstm.forward_us_per_token": "us",
    "lstm.backward_us_per_token": "us",
    "lstm.forward_calls": "count",
    "lstm.backward_calls": "count",
    "rnn.forward_us_per_token": "us",
    "rnn.backward_us_per_token": "us",
    "rnn.forward_calls": "count",
    "rnn.backward_calls": "count",
    "rnnrbm.forward_us_per_frame": "us",
    "rnnrbm.backward_us_per_frame": "us",
    "rnnrbm.gibbs_step_calls": "count",
    "rnnrbm.gibbs_step_us": "us",
    "tensor.sigmoid_calls": "count",
    "tensor.sigmoid_us_per_call": "us",
    "optimizer.evaluate_calls": "count",
    "optimizer.evaluate_ms": "ms",
    "optimizer.evaluate_share": "ratio",
    "optimizer.forward_s": "s",
    "optimizer.backward_s": "s",
    "optimizer.update_s": "s",
    "sampling.build_alias_us": "us",
    "sampling.draw_us_per_index": "us",
    "analysis.gradient_variance_ms": "ms",
    "analysis.variance_report_ms": "ms",
    "data.gen_ms": "ms",
    "data.load_ms": "ms",
    "data.load_calls": "count",
    "cli.io_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class SpeedProbe:
    """Machine speed, sampled while the program runs.

    On a shared host the speed of this process drifts by up to 2x within
    seconds, and repeated 30 s runs of one build differ by 20-25% in wall
    time. While active, a timer signal runs a fixed numpy loop every
    ``INTERVAL`` seconds (the benchmark's own code, never the program's)
    and records how long it took. A stage's calibrated time is its wall
    time, less the probes run inside it, scaled by ``REFERENCE`` / mean
    probe time: the time the stage would take at the reference speed.
    Averaged over a second or more, the program's speed follows the
    probe's with a slope of about 0.9, so the scaling removes most drift.
    """

    INTERVAL = 0.05
    MIN_SAMPLES = 5
    REFERENCE = 0.0011  # probe seconds at the reference speed

    def __init__(self):
        import numpy as np

        self._a = np.linspace(-1.0, 1.0, 144).reshape(12, 12)
        self._v = np.linspace(0.0, 1.0, 12)
        self._tanh = np.tanh
        self._running = False
        self.samples = []
        self.busy = 0.0  # seconds spent probing, for spans to subtract

    def probe(self):
        if self._running:  # the timer fired during a probe
            return None
        self._running = True
        a, v, tanh = self._a, self._v, self._tanh
        start = time.perf_counter()
        for _ in range(400):
            v = tanh(a @ v + 0.1)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy += elapsed
        self._running = False
        return elapsed

    def _on_timer(self, signum, frame):
        self.probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first):
        """REFERENCE / mean probe time since sample ``first``."""
        return self.REFERENCE / statistics.fmean(self.samples[first:])

    def calibrate(self, wall, first):
        """Calibrated seconds of a span that began at sample ``first``."""
        inside = self.samples[first:]
        busy = sum(inside)
        # A span too short to sample is calibrated by probes right after it.
        while len(inside) < self.MIN_SAMPLES:
            inside.append(self.probe())
        return (wall - busy) * self.REFERENCE / statistics.fmean(inside)


def environment(seed):
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "blas_threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def time_setup(workload, directory):
    """Seconds for a fresh interpreter to import gradmine and run gen."""
    argvs = [fill(a, directory) for a in workload.gen]
    code = ("import json, sys\n"
            "from gradmine.cli import main\n"
            "sys.exit(max(main(a) for a in json.loads(sys.argv[1])))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return elapsed, proc.returncode == 0


def run_stage(argv, probe=None):
    """Run one CLI stage in-process: (wall s, calibrated s, exit code)."""
    from gradmine.cli import main

    out, err = io.StringIO(), io.StringIO()
    first = len(probe.samples) if probe else 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crashing stage is a failed stage
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    calibrated = probe.calibrate(wall, first) if probe else wall
    if code != 0:
        sys.stderr.write(f"stage {argv[0]} failed ({code}): {err.getvalue()}\n")
    return wall, calibrated, code


def run_pipeline(workload, directory, probe=None, repeat=False):
    """All stages once: calibrated and wall seconds per stage, failures.
    With ``repeat``, short stages run again (see STAGE_S)."""
    times = dict.fromkeys(STAGES, 0.0)
    walls = dict.fromkeys(STAGES, 0.0)
    failed = []
    for stage, argv in stages(workload):
        runs = [run_stage(fill(argv, directory), probe)]
        while (repeat and len(runs) < STAGE_RUNS
               and sum(wall for wall, _, _ in runs) < STAGE_S):
            runs.append(run_stage(fill(argv, directory), probe))
        walls[stage] += statistics.median(wall for wall, _, _ in runs)
        times[stage] += statistics.median(cal for _, cal, _ in runs)
        if any(code != 0 for _, _, code in runs):
            failed.append(stage)
    times["pipeline"] = sum(times.values())
    walls["pipeline"] = sum(walls.values())
    return times, walls, failed


def read_outputs(directory):
    """Table, final losses per sampler and variance report; raises on bad
    output."""
    from gradmine import fim, optimizer

    table = fim.load_importance(directory / "table.json")
    losses = {}
    for path in sorted(directory.glob("metrics*.csv")):
        log = optimizer.load_metrics(path)
        copy = directory / (path.name + ".roundtrip")
        optimizer.save_metrics(copy, log)
        if copy.read_bytes() != path.read_bytes():
            raise ValueError(f"{path.name} does not round-trip")
        if not all(math.isfinite(r.loss) for r in log.rows):
            raise ValueError(f"{path.name} holds a non-finite loss")
        # compare writes the sampler name in the split column; train
        # writes "train" and the sampler is in the file name.
        for r in log.rows:
            if r.split in ("uniform", "importance"):
                losses[r.split] = r.loss
            elif r.split == "train":
                losses[path.stem.split("-")[-1]] = r.loss
    report = json.loads((directory / "variance.json").read_text())
    return table, losses, report


def check(directory, reference):
    """Output checks of one repetition: (quality values, failed stages)."""
    try:
        table, losses, report = read_outputs(directory)
    except Exception as exc:
        sys.stderr.write(f"output check failed: {type(exc).__name__}: {exc}\n")
        return None, {"mine", "train", "variance"}
    failed = set()
    if reference is not None and (
            table.iterations.tolist() != reference["iterations"]
            or table.converged.tolist() != reference["converged"]):
        sys.stderr.write("mined iterations/converged differ from reference\n")
        failed.add("mine")
    if sorted(losses) != ["importance", "uniform"]:
        sys.stderr.write(f"metrics CSVs hold samplers {sorted(losses)}\n")
        failed.add("train")
    uniform, mined = report.get("uniform"), report.get("mined")
    if not (uniform and mined and math.isfinite(uniform) and math.isfinite(mined)):
        sys.stderr.write("variance report lacks uniform or mined\n")
        failed.add("variance")
    quality = {
        "final_loss.uniform": losses.get("uniform", math.nan),
        "final_loss.importance": losses.get("importance", math.nan),
        "var_ratio.mined": math.nan if "variance" in failed else mined / uniform,
        "iterations": table.iterations.tolist(),
        "converged": table.converged.tolist(),
    }
    return quality, failed


class Run:
    """One benchmark run: its repetitions, stage counts and failures."""

    def __init__(self, workload, workdir, reference):
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.quality = []

    def repetition(self, tracer=None, probe=None, repeat=False):
        """The pipeline once, in a fresh directory: (calibrated, wall)."""
        directory = self.workdir / f"rep{self.reps}"
        directory.mkdir()
        self.reps += 1
        if tracer is not None:
            tracer.install()
        try:
            times, walls, failed = run_pipeline(
                self.workload, directory, probe, repeat)
        finally:
            if tracer is not None:
                tracer.uninstall()
        quality, check_failed = check(directory, self.reference)
        failed = set(failed) | check_failed
        self.attempted += len(stages(self.workload))
        self.failed += sum(1 for s, _ in stages(self.workload) if s in failed)
        if quality is not None:
            self.quality.append(quality)
        return times, walls


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def pin_to_current_cpu():
    """Keep this process and its children on the CPU it started on, so
    the probe samples the CPU that the measured work runs on."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def time_setups(run, count, setups):
    """Wall times of ``count`` set-ups. The probe cannot run inside their
    subprocess, so the caller calibrates their median by the whole run's
    mean probe time."""
    for _ in range(count):
        directory = run.workdir / f"setup{len(setups)}"
        directory.mkdir()
        wall, ok = time_setup(run.workload, directory)
        setups.append(wall)
        run.attempted += len(run.workload.gen)
        run.failed += 0 if ok else len(run.workload.gen)


def untraced(run, seconds, started):
    probe = SpeedProbe()
    setups, reps, walls = [], [], []
    # One set-up before each repetition, the rest after the last, so the
    # set-ups sample the machine's drift across the run.
    while True:
        time_setups(run, min(1, SETUPS - len(setups)), setups)
        with probe:
            times, wall = run.repetition(probe=probe, repeat=True)
        reps.append(times)
        walls.append(wall)
        if time.perf_counter() - started + wall["pipeline"] > seconds:
            break
    time_setups(run, SETUPS - len(setups), setups)
    q = run.quality[-1] if run.quality else {}
    metrics = {
        "setup_s": statistics.median(setups) * probe.speed(0),
        **{f"{k}_s": median_of(reps, k) for k in STAGES[1:] + ("pipeline",)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss.uniform": q.get("final_loss.uniform", math.nan),
        "final_loss.importance": q.get("final_loss.importance", math.nan),
        "var_ratio.mined": q.get("var_ratio.mined", math.nan),
    }
    info = {
        "repetitions": len(reps),
        "wall_s": {"setup": statistics.median(setups),
                   **{k: median_of(walls, k) for k in STAGES + ("pipeline",)}},
        "probe_s": {"median": statistics.median(probe.samples),
                    "mean": statistics.fmean(probe.samples),
                    "count": len(probe.samples)},
        "calibrated_reps": reps,
        "wall_reps": walls,
        "setup_reps": setups,
    }
    return metrics, info, True


def traced(run, seconds, started):
    """Per-layer metrics from traced repetitions. The tracer leaves the
    probe's time out of every span, and each repetition's times are scaled
    by the speed its probes measured."""
    from spans import EXACT, Tracer, layer_metrics

    probe = SpeedProbe()
    plain, traced_reps, layers, samples = [], [], [], []
    # One untraced repetition, two traced, then alternate, so both kinds
    # see the same share of warm-up and of machine drift.
    with probe:
        for i in itertools.count():
            if i == 0 or (i >= 3 and i % 2):
                plain.append(run.repetition(probe=probe)[0]["pipeline"])
                continue
            tracer = Tracer(probe)
            first = len(probe.samples)
            times, walls = run.repetition(tracer, probe)
            traced_reps.append(times["pipeline"])
            tracer.scale(probe.speed(first))
            layers.append(layer_metrics(tracer))
            samples.extend(ms for ms, _, _ in tracer.samples)
            spent = time.perf_counter() - started
            if (len(traced_reps) >= MIN_TRACED
                    and spent + walls["pipeline"] > seconds):
                break
    repeat_ok = all(
        all(layer[k] == layers[0][k] for k in EXACT) for layer in layers)
    if not repeat_ok:
        sys.stderr.write("exact per-layer counts differ between traced runs\n")
    metrics = {k: layers[0][k] if k in EXACT
               else statistics.median(layer[k] for layer in layers)
               for k in layers[0]}
    metrics["fim.sample_ms.p50"] = statistics.median(samples) if samples else 0.0
    metrics["fim.sample_ms.p95"] = (
        statistics.quantiles(samples, n=20)[-1] if len(samples) > 1 else 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_reps) / statistics.median(plain))
    info = {"untraced_repetitions": len(plain),
            "traced_repetitions": len(traced_reps),
            "timed_private_runs": len(samples),
            "exact_counts_repeat": repeat_ok,
            "predictions": predictions(run.workload, metrics)}
    return metrics, info, repeat_ok


def predictions(workload, metrics):
    """Whether each layer's zero/non-zero call count is as predicted."""
    counts = {
        "lstm": metrics["lstm.forward_calls"],
        "rnn": metrics["rnn.forward_calls"],
        "rnnrbm": metrics["rnnrbm.gibbs_step_calls"],
        "gibbs": metrics["rnnrbm.gibbs_step_calls"],
        "sigmoid": metrics["tensor.sigmoid_calls"],
    }
    return {layer: {"predicted": "absent" if layer in workload.absent else "present",
                    "holds": (count == 0) == (layer in workload.absent)}
            for layer, count in counts.items()}


def record_reference(run, references):
    run.repetition()
    if run.failed or not run.quality:
        print("error: reference run failed", file=sys.stderr)
        return 1
    q = run.quality[0]
    references[run.workload.name] = {k: q[k] for k in (
        "iterations", "converged", "final_loss.uniform",
        "final_loss.importance", "var_ratio.mined")}
    REFERENCE.write_text(json.dumps(references, indent=1) + "\n")
    print(json.dumps(references[run.workload.name]))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only: the workload inputs are pinned")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="run once and store the outputs as the reference")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import gradmine
    except ImportError as exc:
        print(f"error: gradmine sources not found under {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(gradmine.__file__).resolve().is_relative_to(SRC):
        print(f"error: gradmine imported from {gradmine.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = references.get(workload.name)
    if reference is None and not args.record_reference:
        print(f"error: no reference recorded for {workload.name}",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_current_cpu()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = Run(workload, Path(tmp), reference)
        if args.record_reference:
            run.reference = None
            return record_reference(run, references)
        measure = traced if args.trace else untraced
        metrics, info, counts_repeat = measure(run, args.seconds, started)
    units = PER_LAYER if args.trace else END_TO_END
    outputs_repeat = bool(run.quality) and all(
        q == run.quality[0] for q in run.quality)
    if not outputs_repeat:
        sys.stderr.write("pipeline outputs differ between repetitions\n")
    env.update(info, workload=workload.name, loadavg_end=os.getloadavg(),
               failed_frac=run.failed / max(run.attempted, 1),
               measured_s=time.perf_counter() - started)
    print(json.dumps({"environment": env}))
    for name in units:
        print(f"{name:32s} {metrics[name]:14.6g} {units[name]}")
    correct = (run.failed == 0 and counts_repeat and outputs_repeat
               and all(math.isfinite(metrics[k]) for k in units))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
