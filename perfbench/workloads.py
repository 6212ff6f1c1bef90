"""The benchmark's workloads: the README pipeline as CLI argument lists.

Each workload is one pinned set of inputs (dataset seed, model seed,
sizes) run stage by stage through ``gradmine.cli.main``. Inputs are pinned
rather than drawn from the benchmark seed because every quality output of
the pipeline is chaotic in its inputs: across dataset seeds 0-9 at 50
samples the desk final train loss ranged over 0.13-0.71 and the mined step
total over +-12%, which no bound of 25% could hold. Pinned inputs make the losses,
the variance ratio and every per-layer count exact for a given build, so a
change that alters them shows, and timings vary only with the machine.

Sizes are an eighth (seqclass) and a sixth (pianoroll) of the ROADMAP
desk figures, so that three or more repetitions of a pipeline fit in one
30 s run.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    gen: list  # argv lists of the gen stage(s); the first is the train set
    mine: list
    train: list  # one argv per training command (compare, or train twice)
    variance: list
    # Layers whose calls are predicted to be zero on this workload.
    absent: tuple = field(default=())


_SEQ = ["gen", "--task", "seqclass", "--vocab", "50", "--len-min", "6",
        "--len-max", "40", "--hard", "0.25"]

DESK_MODEL = ["--model", "lstm", "--embed-dim", "8", "--hidden", "12"]
RNN_MODEL = ["--model", "rnn", "--embed-dim", "8", "--hidden", "8"]
RBM_MODEL = ["--model", "rnnrbm", "--hidden", "16", "--context", "8",
             "--cd-k", "1"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-lstm",
            gen=[_SEQ + ["--n", "24", "--seed", "0", "--out", "{dir}/data.jsonl"]],
            mine=["mine", "--data", "{dir}/data.jsonl", *DESK_MODEL,
                  "--epsilon", "0.003", "--lr", "0.5", "--seed", "0",
                  "--workers", "1", "--out", "{dir}/table.json"],
            train=[["compare", "--data", "{dir}/data.jsonl", *DESK_MODEL,
                    "--lr", "0.5", "--epochs", "14",
                    "--importance", "{dir}/table.json", "--seed", "0",
                    "--out", "{dir}/metrics.csv"]],
            variance=["variance", "--data", "{dir}/data.jsonl", *DESK_MODEL,
                      "--importance", "{dir}/table.json", "--seed", "0",
                      "--out", "{dir}/variance.json"],
            absent=("rnn", "rnnrbm", "gibbs"),
        ),
        Workload(
            name="train-rnn",
            gen=[_SEQ + ["--n", "32", "--seed", "0", "--out", "{dir}/data.jsonl"],
                 _SEQ + ["--n", "32", "--seed", "1", "--out", "{dir}/eval.jsonl"]],
            mine=["mine", "--data", "{dir}/data.jsonl", *RNN_MODEL,
                  "--epsilon", "0.03", "--lr", "0.1", "--seed", "0",
                  "--workers", "1", "--out", "{dir}/table.json"],
            train=[["train", "--data", "{dir}/data.jsonl",
                    "--eval-data", "{dir}/eval.jsonl", *RNN_MODEL,
                    "--lr", "0.1", "--epochs", "30", "--sampler", sampler,
                    "--importance", "{dir}/table.json", "--seed", "0",
                    "--out", "{dir}/metrics-" + sampler + ".csv"]
                   for sampler in ("uniform", "importance")],
            variance=["variance", "--data", "{dir}/data.jsonl", *RNN_MODEL,
                      "--importance", "{dir}/table.json", "--seed", "0",
                      "--out", "{dir}/variance.json"],
            absent=("lstm", "rnnrbm", "gibbs", "sigmoid"),
        ),
        Workload(
            name="frames-rnnrbm",
            gen=[["gen", "--task", "pianoroll", "--n", "16", "--nv", "16",
                  "--len-min", "8", "--len-max", "32", "--seed", "0",
                  "--out", "{dir}/data.jsonl"]],
            mine=["mine", "--data", "{dir}/data.jsonl", *RBM_MODEL,
                  "--epsilon", "0.15", "--lr", "0.01", "--t-max", "500",
                  "--seed", "0", "--workers", "1", "--out", "{dir}/table.json"],
            train=[["compare", "--data", "{dir}/data.jsonl", *RBM_MODEL,
                    "--lr", "0.01", "--epochs", "10",
                    "--importance", "{dir}/table.json", "--seed", "0",
                    "--out", "{dir}/metrics.csv"]],
            variance=["variance", "--data", "{dir}/data.jsonl", *RBM_MODEL,
                      "--importance", "{dir}/table.json", "--seed", "0",
                      "--out", "{dir}/variance.json"],
            absent=("lstm", "rnn"),
        ),
    )
}


def fill(argv, directory):
    """Substitute the run directory into an argv template."""
    return [a.replace("{dir}", str(directory)) for a in argv]


def stages(workload):
    """(stage, argv) pairs in pipeline order."""
    out = [("gen", a) for a in workload.gen]
    out.append(("mine", workload.mine))
    out.extend(("train", a) for a in workload.train)
    out.append(("variance", workload.variance))
    return out
