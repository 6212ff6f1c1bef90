"""Datasets: sample containers, synthetic generators, and JSONL persistence.

Two sample flavors exist. ``SequenceSample`` holds a token sequence plus
either one class label (classification) or per-step target tokens (sequence
labeling). ``FrameSequence`` holds consecutive binary frames (piano-roll
slices) for the generative model.

The synthetic classification generator has a controllable "hard fraction":
hard samples are longer and drawn from a rarer token band, so their
gradients stay large for longer during training. That gives importance
mining a real signal to find at desk scale.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ParseError

SEQCLASS = "seqclass"
SEQLABEL = "seqlabel"
PIANOROLL = "pianoroll"

# Token ids 0 and 1 double as class-indicator tokens in generated data.
_N_INDICATOR = 2


@dataclass
class SequenceSample:
    """A token sequence with either a single label or per-step targets."""

    tokens: np.ndarray
    label: int | None = None
    targets: np.ndarray | None = None

    def __post_init__(self):
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.int64)
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise InvalidInputError("tokens must be a non-empty 1-D index list")
        if (self.label is None) == (self.targets is None):
            raise InvalidInputError("exactly one of label/targets must be set")
        if self.targets is not None:
            self.targets = np.ascontiguousarray(self.targets, dtype=np.int64)
            if self.targets.shape != self.tokens.shape:
                raise InvalidInputError("targets must match tokens in length")
        else:
            self.label = int(self.label)

    @property
    def length(self):
        return int(self.tokens.size)

    @property
    def is_classification(self):
        return self.label is not None

    def __eq__(self, other):
        if not isinstance(other, SequenceSample):
            return NotImplemented
        return (
            np.array_equal(self.tokens, other.tokens)
            and self.label == other.label
            and (
                (self.targets is None and other.targets is None)
                or (
                    self.targets is not None
                    and other.targets is not None
                    and np.array_equal(self.targets, other.targets)
                )
            )
        )


@dataclass
class FrameSequence:
    """Consecutive binary frames of fixed width."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] == 0:
            raise InvalidInputError("frames must be a non-empty (T, width) array")
        if not np.all((self.frames == 0.0) | (self.frames == 1.0)):
            raise InvalidInputError("frame entries must be 0 or 1")

    @property
    def length(self):
        return int(self.frames.shape[0])

    @property
    def width(self):
        return int(self.frames.shape[1])

    def __eq__(self, other):
        if not isinstance(other, FrameSequence):
            return NotImplemented
        return np.array_equal(self.frames, other.frames)


@dataclass
class Dataset:
    """A list of samples plus the manifest that reproduces it."""

    kind: str
    samples: list
    vocab: int
    manifest: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.vocab == other.vocab
            and self.samples == other.samples
        )


def token_bands(vocab):
    """(common, rare) half-open token ranges outside the indicator ids.

    The rare band is a narrow tail of the vocabulary, so hard samples of
    both classes collide on the same few ids and the ids carry no label
    signal on their own.
    """
    rare_width = 2 if vocab >= 6 else 1
    return (_N_INDICATOR, vocab - rare_width), (vocab - rare_width, vocab)


def gen_seqclass(n, vocab, length_range=(6, 40), hard_fraction=0.25, seed=0):
    """Binary-labeled token sequences with a difficulty knob.

    Every sample contains one indicator token equal to its label. Easy
    samples are short, lead with the indicator, and fill from the common
    token band. Hard samples are long, hide the indicator in the second
    half, and otherwise repeat a single rare-band token that both classes
    share, so their recurrent gradients stay large until the buried
    indicator is separated from the dominating noise token.
    """
    if n <= 0:
        raise InvalidInputError("n must be >= 1")
    if vocab < 4:
        raise InvalidInputError("vocab must be >= 4 (indicator + two bands)")
    lo, hi = int(length_range[0]), int(length_range[1])
    if lo < 2 or hi < lo:
        raise InvalidInputError("length_range must satisfy 2 <= lo <= hi")
    if not 0.0 <= hard_fraction <= 1.0:
        raise InvalidInputError("hard_fraction must be in [0, 1]")

    rng = np.random.default_rng(seed)
    common, rare = token_bands(vocab)
    third = max(1, (hi - lo) // 3)
    n_hard = int(round(hard_fraction * n))
    hard_idx = set(rng.permutation(n)[:n_hard].tolist())

    def make(label, hard):
        if hard:
            length = int(rng.integers(max(lo, hi - third), hi + 1))
            noise_id = int(rng.integers(rare[0], rare[1]))
            tokens = np.full(length, noise_id)
            pos = int(rng.integers(length // 2, length))
        else:
            length = int(rng.integers(lo, min(hi, lo + third) + 1))
            tokens = rng.integers(common[0], common[1], size=length)
            pos = 0
        tokens[pos] = label
        return SequenceSample(tokens=tokens, label=label)

    samples = []
    labels = []
    for i in range(n):
        label = int(rng.integers(0, 2))
        samples.append(make(label, i in hard_idx))
        labels.append(label)
    if n >= 2 and len(set(labels)) == 1:
        flipped = 1 - labels[-1]
        samples[-1] = make(flipped, (n - 1) in hard_idx)

    manifest = {
        "kind": SEQCLASS,
        "n_samples": n,
        "vocab": vocab,
        "generator": {
            "length_range": [lo, hi],
            "hard_fraction": hard_fraction,
        },
        "seed": int(seed),
    }
    return Dataset(kind=SEQCLASS, samples=samples, vocab=vocab, manifest=manifest)


def gen_pianoroll(n, n_v=16, length_range=(8, 32), patterns=4, seed=0):
    """Binary frame sequences built from overlapping periodic note motifs."""
    if n <= 0:
        raise InvalidInputError("n must be >= 1")
    if n_v < 4:
        raise InvalidInputError("n_v must be >= 4")
    if patterns < 1:
        raise InvalidInputError("patterns must be >= 1")
    lo, hi = int(length_range[0]), int(length_range[1])
    if lo < 1 or hi < lo:
        raise InvalidInputError("length_range must satisfy 1 <= lo <= hi")

    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(patterns):
        n_pitch = int(rng.integers(1, max(2, n_v // 4) + 1))
        pool.append(
            {
                "pitches": rng.choice(n_v, size=n_pitch, replace=False),
                "period": int(rng.integers(2, 8)),
                "duration": 1,
                "phase": 0,
            }
        )
        pool[-1]["duration"] = int(rng.integers(1, pool[-1]["period"]))
        pool[-1]["phase"] = int(rng.integers(0, pool[-1]["period"]))

    samples = []
    for _ in range(n):
        length = int(rng.integers(lo, hi + 1))
        k = int(rng.integers(1, min(3, patterns) + 1))
        active = rng.choice(patterns, size=k, replace=False)
        frames = np.zeros((length, n_v))
        for pi in active:
            pat = pool[pi]
            for t in range(length):
                if (t + pat["phase"]) % pat["period"] < pat["duration"]:
                    frames[t, pat["pitches"]] = 1.0
        noise = rng.random((length, n_v)) < 0.02
        frames = np.abs(frames - noise.astype(np.float64))
        samples.append(FrameSequence(frames=frames))

    manifest = {
        "kind": PIANOROLL,
        "n_samples": n,
        "vocab": n_v,
        "generator": {"length_range": [lo, hi], "patterns": patterns},
        "seed": int(seed),
    }
    return Dataset(kind=PIANOROLL, samples=samples, vocab=n_v, manifest=manifest)


def chunk_frames(dataset, frames_per_sample):
    """Regroup piano-roll sequences into consecutive chunks of fixed size.

    Each chunk becomes one training sample; a trailing remainder shorter
    than ``frames_per_sample`` is kept as its own sample.
    """
    if dataset.kind != PIANOROLL:
        raise InvalidInputError("chunk_frames applies to piano-roll datasets")
    if frames_per_sample < 1:
        raise InvalidInputError("frames_per_sample must be >= 1")
    chunks = []
    for s in dataset.samples:
        for start in range(0, s.length, frames_per_sample):
            part = s.frames[start : start + frames_per_sample]
            if part.shape[0] > 0:
                chunks.append(FrameSequence(frames=part.copy()))
    manifest = dict(dataset.manifest)
    manifest["n_samples"] = len(chunks)
    manifest["frames_per_sample"] = int(frames_per_sample)
    return Dataset(
        kind=PIANOROLL, samples=chunks, vocab=dataset.vocab, manifest=manifest
    )


def infer_vocab(samples):
    """Symbol-space size of samples that no manifest describes: the frame
    width, or one more than the largest token or target id. Class labels
    do not count; each model's ``check_sample`` bounds them."""
    if not samples:
        raise InvalidInputError("empty dataset")
    if isinstance(samples[0], FrameSequence):
        return samples[0].width
    return 1 + max(
        int(max(s.tokens.max(), -1 if s.targets is None else s.targets.max()))
        for s in samples
    )


def _sample_to_obj(sample):
    if isinstance(sample, FrameSequence):
        return {"frames": sample.frames.astype(int).tolist()}
    if sample.is_classification:
        return {"tokens": sample.tokens.tolist(), "label": sample.label}
    return {"tokens": sample.tokens.tolist(), "targets": sample.targets.tolist()}


def _json_ints(value):
    """Whether ``value`` is a JSON integer or nested lists of them. The
    sample constructors would cast 1.7 and true to 1 without complaint."""
    if isinstance(value, list):
        return all(_json_ints(v) for v in value)
    return type(value) is int


def _obj_to_sample(obj, line):
    if not isinstance(obj, dict):
        raise ParseError("sample line must be a JSON object", line=line)
    try:
        if "frames" in obj:
            n_v = obj.get("n_v", 0)
            if not (_json_ints(obj["frames"]) and type(n_v) is int):
                raise InvalidInputError("frames and n_v must be JSON integers")
            seq = FrameSequence(frames=np.asarray(obj["frames"]))
            if "n_v" in obj and n_v != seq.width:
                raise InvalidInputError(
                    f"n_v {n_v} does not match frame width {seq.width}")
            return seq
        for key in ("label", "targets"):
            if key in obj:
                tokens, ids = obj["tokens"], obj[key]
                if not _json_ints([tokens, ids]):
                    raise InvalidInputError(f"tokens and {key} must be JSON integers")
                return SequenceSample(tokens=tokens, **{key: ids})
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        raise ParseError(str(exc), line=line) from exc
    raise ParseError("unrecognized sample keys", line=line)


def manifest_path(path):
    return str(path) + ".manifest.json"


def save_dataset(path, dataset):
    """Write one JSON object per sample, plus a manifest sidecar."""
    with open(path, "w") as fh:
        for sample in dataset.samples:
            fh.write(json.dumps(_sample_to_obj(sample)) + "\n")
    with open(manifest_path(path), "w") as fh:
        json.dump(dataset.manifest, fh, indent=2)
        fh.write("\n")


def load_dataset(path):
    """Load a JSONL dataset; malformed lines report their line number."""
    samples = []
    kind = None
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=i) from exc
            sample = _obj_to_sample(obj, i)
            this_kind = (
                PIANOROLL
                if isinstance(sample, FrameSequence)
                else (SEQCLASS if sample.is_classification else SEQLABEL)
            )
            if kind is None:
                kind = this_kind
            elif kind != this_kind:
                raise ParseError(f"mixed sample kinds ({kind} vs {this_kind})", line=i)
            samples.append(sample)
    if not samples:
        raise InvalidInputError(f"no samples in {path}")

    manifest = {}
    try:
        with open(manifest_path(path)) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        pass
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {manifest_path(path)}: {exc.msg}",
                         line=exc.lineno) from exc
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path(path)} must hold a JSON object")
    for key in ("n_samples", "vocab"):
        if key in manifest and type(manifest[key]) is not int:
            raise ParseError(f"{manifest_path(path)}: {key} must be a JSON integer")
    if manifest.get("n_samples", len(samples)) != len(samples):
        raise InvalidInputError(
            f"{path}: manifest lists {manifest['n_samples']} samples "
            f"but the file holds {len(samples)}"
        )

    vocab = manifest["vocab"] if "vocab" in manifest else infer_vocab(samples)
    if kind == PIANOROLL:
        widths = {s.width for s in samples}
        if len(widths) != 1:
            raise InvalidInputError(f"inconsistent frame widths: {sorted(widths)}")
    manifest.setdefault("kind", kind)
    manifest.setdefault("n_samples", len(samples))
    manifest.setdefault("vocab", vocab)
    manifest["source"] = str(path)
    return Dataset(kind=kind, samples=samples, vocab=vocab, manifest=manifest)
