"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces the public functions of each gradmine layer,
at the module attribute where callers look them up, with wrappers that
time each call. Spans are aggregated in memory per (span, phase), where
the phase is the innermost pipeline activity enclosing the call (mining,
the training loop, evaluation, or the variance stage), so model time is
split by who asked for it. Time the speed probe spends inside a span is
left out of it. ``uninstall`` restores the originals.
"""

import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    ns: int = 0
    child_ns: int = 0  # time covered by directly nested spans
    units: int = 0  # tokens, frames or draws, where the span has a size


# Spans that open a phase for the spans nested in them.
PHASES = {
    "fim.sample": "mine",
    "optimizer.train": "train",
    "optimizer.evaluate": "evaluate",
    "cli.variance": "variance",
}


def _tokens(args, kwargs):
    return int(args[1].tokens.size)


def _frames(args, kwargs):
    return int(args[1].frames.shape[0])


def _draws(args, kwargs):
    return int(args[1])


# (module, attribute, span name, size of the call's work or None)
TARGETS = (
    ("gradmine.cli", "cmd_gen", "cli.gen", None),
    ("gradmine.cli", "cmd_mine", "cli.mine", None),
    ("gradmine.cli", "cmd_train", "cli.train", None),
    ("gradmine.cli", "cmd_compare", "cli.compare", None),
    ("gradmine.cli", "cmd_variance", "cli.variance", None),
    ("gradmine.data", "gen_seqclass", "data.gen", None),
    ("gradmine.data", "gen_pianoroll", "data.gen", None),
    ("gradmine.data", "load_dataset", "data.load", None),
    ("gradmine.fim", "load_importance", "fim.load", None),
    ("gradmine.fim", "mine_importance", "fim.mine", None),
    ("gradmine.fim", "_mine_one", "fim.sample", None),
    ("gradmine.fim", "sgd_step", "update", None),
    ("gradmine.fim", "build_alias", "sampling.build_alias", None),
    ("gradmine.optimizer", "train", "optimizer.train", None),
    ("gradmine.optimizer", "_evaluate", "optimizer.evaluate", None),
    ("gradmine.optimizer", "sgd_step", "update", None),
    ("gradmine.optimizer", "is_sgd_step", "update", None),
    ("gradmine.optimizer", "build_alias", "sampling.build_alias", None),
    ("gradmine.optimizer", "generate_sequence", "sampling.draw", _draws),
    ("gradmine.analysis", "gradient_variance", "analysis.gradient_variance", None),
    ("gradmine.analysis", "variance_report", "analysis.variance_report", None),
    ("gradmine.models.lstm", "forward", "lstm.forward", _tokens),
    ("gradmine.models.lstm", "backward", "lstm.backward", _tokens),
    ("gradmine.models.lstm", "sigmoid", "tensor.sigmoid", None),
    ("gradmine.models.rnn", "forward", "rnn.forward", _tokens),
    ("gradmine.models.rnn", "backward", "rnn.backward", _tokens),
    ("gradmine.models.rnnrbm", "forward", "rnnrbm.forward", _frames),
    ("gradmine.models.rnnrbm", "backward", "rnnrbm.backward", _frames),
    ("gradmine.models.rnnrbm", "gibbs_step", "rnnrbm.gibbs_step", None),
    ("gradmine.models.rnnrbm", "sigmoid", "tensor.sigmoid", None),
)


class Tracer:
    def __init__(self, probe):
        self.probe = probe  # its ``busy`` seconds are left out of spans
        self.stats = defaultdict(Stat)  # (span, phase) -> Stat
        self.samples = []  # (ms, steps, converged) per private mining run
        self._stack = []  # open spans: [name, child_ns]
        self._phases = ["none"]
        self._patched = []

    def install(self):
        for module_name, attr, name, size in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # a later layout may drop a name
                continue
            setattr(module, attr, self._wrap(original, name, size))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, size):
        stack, phases, stats, probe = self._stack, self._phases, self.stats, self.probe
        phase = PHASES.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            if phase:
                phases.append(phase)
            busy = probe.busy
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter_ns() - start
                           - round((probe.busy - busy) * 1e9))
                stack.pop()
                if phase:
                    phases.pop()
                stat = stats[(name, phases[-1])]
                stat.calls += 1
                stat.ns += elapsed
                stat.child_ns += frame[1]
                if size is not None:
                    stat.units += size(args, kwargs)
                if stack:
                    stack[-1][1] += elapsed
            if name == "fim.sample":
                # _mine_one returns (index, norm, steps, converged, ...)
                self.samples.append((elapsed / 1e6, int(result[2]), bool(result[3])))
            return result

        return wrapper

    def scale(self, factor):
        """Multiply every recorded time by ``factor`` (a speed calibration)."""
        for s in self.stats.values():
            s.ns = round(s.ns * factor)
            s.child_ns = round(s.child_ns * factor)
        self.samples = [(ms * factor, steps, ok) for ms, steps, ok in self.samples]

    def total(self, name, phase=None):
        """Summed Stat of a span over one phase, or over all phases."""
        out = Stat()
        for (span, ph), s in self.stats.items():
            if span == name and (phase is None or ph == phase):
                out.calls += s.calls
                out.ns += s.ns
                out.child_ns += s.child_ns
                out.units += s.units
        return out


def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pipeline repetition."""
    t = tracer.total
    m = {}

    mine = t("fim.mine")
    steps = [s for _, s, _ in tracer.samples]
    fwd = sum(t(f"{k}.forward", "mine").ns for k in ("lstm", "rnn", "rnnrbm"))
    bwd = sum(t(f"{k}.backward", "mine").ns for k in ("lstm", "rnn", "rnnrbm"))
    upd = t("update", "mine").ns
    m["fim.private_steps"] = sum(steps)
    m["fim.steps_per_sample.p50"] = statistics.median(steps) if steps else 0.0
    m["fim.steps_per_sample.max"] = max(steps, default=0)
    m["fim.unconverged_frac"] = _div(sum(not ok for *_, ok in tracer.samples),
                                     len(tracer.samples))
    m["fim.us_per_private_step"] = _div(mine.ns / 1e3, sum(steps))
    m["fim.forward_share"] = _div(fwd, mine.ns)
    m["fim.backward_share"] = _div(bwd, mine.ns)
    m["fim.update_share"] = _div(upd, mine.ns)
    m["fim.self_s"] = (mine.ns - fwd - bwd - upd) / 1e9

    for kind, unit in (("lstm", "token"), ("rnn", "token"), ("rnnrbm", "frame")):
        f, b = t(f"{kind}.forward"), t(f"{kind}.backward")
        m[f"{kind}.forward_us_per_{unit}"] = _div(f.ns / 1e3, f.units)
        m[f"{kind}.backward_us_per_{unit}"] = _div(b.ns / 1e3, b.units)
        if kind != "rnnrbm":
            m[f"{kind}.forward_calls"] = f.calls
            m[f"{kind}.backward_calls"] = b.calls
    gibbs = t("rnnrbm.gibbs_step")
    m["rnnrbm.gibbs_step_calls"] = gibbs.calls
    m["rnnrbm.gibbs_step_us"] = _div(gibbs.ns / 1e3, gibbs.calls)

    sig = t("tensor.sigmoid")
    m["tensor.sigmoid_calls"] = sig.calls
    m["tensor.sigmoid_us_per_call"] = _div(sig.ns / 1e3, sig.calls)

    train, ev = t("optimizer.train"), t("optimizer.evaluate")
    m["optimizer.evaluate_calls"] = ev.calls
    m["optimizer.evaluate_ms"] = _div(ev.ns / 1e6, ev.calls)
    m["optimizer.evaluate_share"] = _div(ev.ns, train.ns)
    m["optimizer.forward_s"] = sum(
        t(f"{k}.forward", "train").ns for k in ("lstm", "rnn", "rnnrbm")) / 1e9
    m["optimizer.backward_s"] = sum(
        t(f"{k}.backward", "train").ns for k in ("lstm", "rnn", "rnnrbm")) / 1e9
    m["optimizer.update_s"] = t("update", "train").ns / 1e9

    alias, draw = t("sampling.build_alias"), t("sampling.draw")
    m["sampling.build_alias_us"] = _div(alias.ns / 1e3, alias.calls)
    m["sampling.draw_us_per_index"] = _div(draw.ns / 1e3, draw.units)

    gv, vr = t("analysis.gradient_variance"), t("analysis.variance_report")
    m["analysis.gradient_variance_ms"] = _div(gv.ns / 1e6, gv.calls)
    m["analysis.variance_report_ms"] = _div(vr.ns / 1e6, vr.calls)

    load = t("data.load")
    m["data.gen_ms"] = t("data.gen").ns / 1e6
    m["data.load_ms"] = load.ns / 1e6
    m["data.load_calls"] = load.calls
    stages = [t(f"cli.{s}") for s in ("gen", "mine", "train", "compare", "variance")]
    m["cli.io_ms"] = sum(s.ns - s.child_ns for s in stages) / 1e6
    return m


# Metrics that count work rather than time: they must repeat exactly
# between traced repetitions of one build.
EXACT = (
    "fim.private_steps",
    "fim.steps_per_sample.p50",
    "fim.steps_per_sample.max",
    "fim.unconverged_frac",
    "lstm.forward_calls",
    "lstm.backward_calls",
    "rnn.forward_calls",
    "rnn.backward_calls",
    "rnnrbm.gibbs_step_calls",
    "tensor.sigmoid_calls",
    "optimizer.evaluate_calls",
    "data.load_calls",
)
