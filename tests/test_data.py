import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmine.data import (
    Dataset,
    FrameSequence,
    SequenceSample,
    chunk_frames,
    gen_pianoroll,
    gen_seqclass,
    infer_vocab,
    load_dataset,
    save_dataset,
    token_bands,
    write_text,
)
from gradmine.errors import InvalidInputError, ParseError
from gradmine.optimizer import as_dataset


class TestSequenceSample:
    def test_requires_exactly_one_target_kind(self):
        with pytest.raises(InvalidInputError):
            SequenceSample(tokens=[1, 2])
        with pytest.raises(InvalidInputError):
            SequenceSample(tokens=[1, 2], label=0, targets=[0, 1])

    def test_target_length_must_match(self):
        with pytest.raises(InvalidInputError):
            SequenceSample(tokens=[1, 2, 3], targets=[0, 1])


class TestGenSeqclass:
    def test_label_decidable_from_first_token_when_no_hard(self):
        ds = gen_seqclass(n=40, vocab=20, hard_fraction=0.0, seed=3)
        for s in ds:
            assert s.tokens[0] == s.label

    def test_hard_samples_are_longer_and_rare_banded(self):
        ds = gen_seqclass(n=40, vocab=20, length_range=(6, 30), hard_fraction=0.5, seed=3)
        lens = np.array([s.length for s in ds])
        _, rare = token_bands(20)
        hard = lens > np.median(lens)
        for s, h in zip(ds, hard):
            if h:
                others = s.tokens[s.tokens >= 2]
                assert np.all((others >= rare[0]) & (others < rare[1]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_seqclass(n=0, vocab=20)

    def test_small_vocab_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_seqclass(n=5, vocab=3)

    def test_minimum_vocab_works(self):
        ds = gen_seqclass(n=6, vocab=4, length_range=(4, 8), seed=0)
        assert all(int(s.tokens.max()) < 4 for s in ds)

    def test_same_seed_identical_bytes(self, tmp_path):
        digests = []
        for _ in range(2):
            ds = gen_seqclass(n=30, vocab=16, seed=11)
            path = tmp_path / "d.jsonl"
            save_dataset(path, ds)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_both_classes_present(self):
        for seed in range(30):
            ds = gen_seqclass(n=2, vocab=8, length_range=(4, 8), seed=seed)
            assert {s.label for s in ds} == {0, 1}


class TestGenPianoroll:
    def test_single_pattern_shares_motif(self):
        ds = gen_pianoroll(n=6, n_v=12, length_range=(24, 32), patterns=1, seed=5)
        # the noise rate is 2%, so active columns align across sequences
        active = [set(np.flatnonzero(s.frames.mean(axis=0) > 0.2)) for s in ds]
        assert all(a == active[0] for a in active)

    def test_fixed_seed_reproducible(self):
        a = gen_pianoroll(n=4, n_v=8, seed=9)
        b = gen_pianoroll(n=4, n_v=8, seed=9)
        assert a == b

    def test_density_strictly_interior(self):
        ds = gen_pianoroll(n=20, n_v=16, seed=1)
        density = np.mean([s.frames.mean() for s in ds])
        assert 0.0 < density < 1.0

    def test_width_validation(self):
        with pytest.raises(InvalidInputError):
            gen_pianoroll(n=3, n_v=3)


class TestChunkFrames:
    def test_regroups_consecutive_frames(self):
        ds = gen_pianoroll(n=3, n_v=8, length_range=(10, 10), seed=2)
        chunked = chunk_frames(ds, 4)
        assert [c.length for c in chunked] == [4, 4, 2] * 3
        joined = np.concatenate([c.frames for c in chunked.samples[:3]])
        np.testing.assert_array_equal(joined, ds.samples[0].frames)

    def test_only_for_pianoroll(self):
        ds = gen_seqclass(n=4, vocab=8)
        with pytest.raises(InvalidInputError):
            chunk_frames(ds, 4)


@pytest.mark.parametrize("make, name", [
    (lambda: gen_seqclass(n=2.5, vocab=8), "n"),
    (lambda: gen_seqclass(n=4, vocab=8.0), "vocab"),
    (lambda: gen_pianoroll(n=2, patterns=1.5), "patterns"),
    (lambda: gen_pianoroll(n=2, n_v=True), "n_v"),
    (lambda: gen_seqclass(n=4, vocab=8, seed=-1), "seed"),
    (lambda: gen_pianoroll(n=2, seed=1.5), "seed"),
    (lambda: chunk_frames(gen_pianoroll(n=2), float("nan")), "frames_per_sample"),
    (lambda: gen_seqclass(n=4, vocab=8, length_range=(2.9, 3.5)), "length_range"),
    (lambda: gen_seqclass(n=4, vocab=8, length_range=(4, 8.0)), "length_range"),
    (lambda: gen_pianoroll(n=3, length_range=(True, 2.7)), "length_range"),
    (lambda: gen_pianoroll(n=3, length_range=(1, True)), "length_range"),
    (lambda: gen_seqclass(n=4, vocab=8, length_range=(4, 6, 8)), "length_range"),
], ids=["seqclass-n", "seqclass-vocab", "pianoroll-patterns", "pianoroll-n_v",
        "seqclass-seed", "pianoroll-seed", "chunk-nan", "seqclass-length-fractions",
        "seqclass-length-float-end", "pianoroll-length-bool-fraction",
        "pianoroll-length-bool-end", "seqclass-length-three-ends"])
def test_generators_reject_bad_sizes_naming_the_argument(make, name):
    with pytest.raises(InvalidInputError, match=f"^{name} must be "):
        make()


def test_length_range_takes_numpy_integers():
    ends = (np.int64(3), np.uint8(5))
    seq = gen_seqclass(n=4, vocab=8, length_range=ends)
    roll = gen_pianoroll(n=3, length_range=ends)
    for ds in (seq, roll):
        assert ds.manifest["generator"]["length_range"] == [3, 5]
        assert all(type(v) is int for v in ds.manifest["generator"]["length_range"])


def token_lists(length):
    return st.lists(st.integers(0, 2**63 - 1), min_size=length, max_size=length)


@st.composite
def datasets(draw):
    """1-4 samples of one kind, each 1-5 steps long, with ids up to the
    int64 limit, and a manifest or none."""
    kind = draw(st.sampled_from(["seqclass", "seqlabel", "pianoroll"]))
    width = draw(st.integers(1, 4))
    samples = []
    for length in draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)):
        if kind == "pianoroll":
            frames = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=width,
                                            max_size=width), min_size=length,
                                   max_size=length))
            samples.append(FrameSequence(frames))
        elif kind == "seqclass":
            samples.append(SequenceSample(
                draw(token_lists(length)), label=draw(st.integers(-2**63, 2**63 - 1))))
        else:
            samples.append(SequenceSample(
                draw(token_lists(length)), targets=draw(token_lists(length))))
    vocab = infer_vocab(samples)
    manifest = draw(st.sampled_from([{}, {"kind": kind, "vocab": vocab}]))
    return Dataset(kind=kind, samples=samples, vocab=vocab, manifest=manifest)


def test_listed_and_loaded_samples_take_one_kind(tmp_path):
    # ``as_dataset`` of a sample list names its kind as ``load_dataset`` does.
    cases = [(SequenceSample(tokens=[1, 2], label=1), "seqclass"),
             (SequenceSample(tokens=[1, 2], targets=[2, 3]), "seqlabel"),
             (FrameSequence(frames=[[0, 1], [1, 0]]), "pianoroll")]
    for sample, kind in cases:
        path = tmp_path / f"{kind}.jsonl"
        save_dataset(path, Dataset(kind=kind, samples=[sample], vocab=4))
        assert load_dataset(path).kind == kind
        assert as_dataset([sample]).kind == kind


@pytest.mark.parametrize("other", [
    SequenceSample(tokens=[1, 2], targets=[2, 3]),
    FrameSequence(frames=[[0, 1], [1, 0]]),
])
def test_listed_and_loaded_samples_reject_mixed_kinds(tmp_path, other):
    # The file names the line of the first sample of another kind, the list
    # its index.
    samples = [SequenceSample(tokens=[1, 2], label=1)] * 2 + [other]
    path = tmp_path / "mixed.jsonl"
    save_dataset(path, Dataset(kind="seqclass", samples=samples, vocab=4))
    with pytest.raises(ParseError, match="mixed sample kinds") as err:
        load_dataset(path)
    assert err.value.line == 3
    with pytest.raises(InvalidInputError, match=r"sample 2: mixed sample kinds"):
        as_dataset(samples)


@pytest.mark.parametrize("item", [{"tokens": [1, 2], "label": 0}, [1, 2, 3], None],
                         ids=["dict", "list", "none"])
def test_a_listed_non_sample_is_named(item):
    with pytest.raises(InvalidInputError, match="sample 0: .* is not a sample"):
        as_dataset([item])


class TestRoundTrips:
    @settings(deadline=None, max_examples=200)
    @given(ds=datasets())
    def test_save_then_load_gives_the_same_dataset(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            save_dataset(path, ds)
            loaded = load_dataset(path)
        assert loaded == ds
        assert loaded.manifest == {**ds.manifest, "kind": ds.kind,
                                   "n_samples": len(ds), "vocab": ds.vocab,
                                   "source": str(path)}

    def test_seqclass_round_trip(self, tmp_path):
        ds = gen_seqclass(n=25, vocab=12, seed=4)
        path = tmp_path / "d.jsonl"
        save_dataset(path, ds)
        assert load_dataset(path) == ds

    def test_seqlabel_round_trip(self, tmp_path):
        samples = [
            SequenceSample(tokens=[1, 2, 3], targets=[0, 1, 2]),
            SequenceSample(tokens=[4, 0], targets=[1, 1]),
        ]
        ds = Dataset(kind="seqlabel", samples=samples, vocab=5,
                     manifest={"kind": "seqlabel", "vocab": 5})
        path = tmp_path / "d.jsonl"
        save_dataset(path, ds)
        assert load_dataset(path) == ds

    def test_pianoroll_round_trip(self, tmp_path):
        ds = gen_pianoroll(n=6, n_v=8, seed=13)
        path = tmp_path / "p.jsonl"
        save_dataset(path, ds)
        assert load_dataset(path) == ds

    def test_truncated_line_reports_line_number(self, tmp_path):
        ds = gen_seqclass(n=5, vocab=8, seed=1)
        path = tmp_path / "d.jsonl"
        save_dataset(path, ds)
        text = path.read_text().splitlines()
        text[2] = text[2][: len(text[2]) // 2]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 3

    def test_dropped_last_line_rejected(self, tmp_path):
        ds = gen_seqclass(n=5, vocab=8, seed=1)
        path = tmp_path / "d.jsonl"
        save_dataset(path, ds)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(InvalidInputError, match=r"lists 5 samples.*holds 4"):
            load_dataset(path)

    def test_malformed_manifest_names_file_and_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(path, gen_seqclass(n=3, vocab=8, seed=1))
        manifest = tmp_path / "d.jsonl.manifest.json"
        manifest.write_text('{\n  "n_samples": 3,\n  "vocab": \n}\n')
        with pytest.raises(ParseError, match="d.jsonl.manifest.json") as err:
            load_dataset(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("text", ["[1]\n", "7\n", '"n_samples"\n'])
    def test_manifest_that_is_not_an_object_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "d.jsonl"
        save_dataset(path, gen_seqclass(n=3, vocab=8, seed=1))
        (tmp_path / "d.jsonl.manifest.json").write_text(text)
        with pytest.raises(ParseError, match="d.jsonl.manifest.json"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("vocab", "abc"), ("vocab", 2.5), ("vocab", True), ("vocab", None),
        ("n_samples", None), ("n_samples", 3.0), ("n_samples", "3"),
    ])
    def test_manifest_counts_must_be_json_integers(self, tmp_path, key, value):
        path = tmp_path / "d.jsonl"
        ds = gen_seqclass(n=3, vocab=8, seed=1)
        ds.manifest[key] = value
        save_dataset(path, ds)
        with pytest.raises(ParseError, match=f"d.jsonl.manifest.json: {key}"):
            load_dataset(path)

    def test_every_manifest_key_a_writer_writes_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        for ds in (gen_seqclass(n=3, vocab=8, seed=1),
                   chunk_frames(gen_pianoroll(n=2, n_v=6, length_range=(4, 6)), 3)):
            save_dataset(path, ds)
            save_dataset(path, load_dataset(path))  # now with "source" too
            assert load_dataset(path).manifest == {**ds.manifest, "source": str(path)}

    @pytest.mark.parametrize("key", ["model", "probs", "Vocab"])
    def test_manifest_key_that_no_writer_writes_is_a_parse_error(self, tmp_path, key):
        path = tmp_path / "d.jsonl"
        ds = gen_seqclass(n=3, vocab=8, seed=1)
        ds.manifest[key] = 1
        save_dataset(path, ds)
        with pytest.raises(ParseError, match=f"d.jsonl.manifest.json: unknown key '{key}'"):
            load_dataset(path)

    @pytest.mark.parametrize("kind", ["pianoroll", "seqlabel", 7, None])
    def test_manifest_kind_must_be_the_kind_of_the_samples(self, tmp_path, kind):
        path = tmp_path / "d.jsonl"
        ds = gen_seqclass(n=3, vocab=8, seed=1)
        ds.manifest["kind"] = kind
        save_dataset(path, ds)
        with pytest.raises(ParseError, match="d.jsonl.manifest.json: kind"):
            load_dataset(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            json.dumps({"tokens": [1, 2], "label": 0})
            + "\n"
            + json.dumps({"frames": [[0, 1]]})
            + "\n"
        )
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_vocab_inferred_without_manifest(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"tokens": [3, 7], "label": 1}) + "\n")
        ds = load_dataset(path)
        assert ds.vocab == 8 and ds.kind == "seqclass"

    def test_vocab_inferred_from_targets_too(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"tokens": [0, 1, 1], "targets": [1, 2, 3]}) + "\n")
        ds = load_dataset(path)
        assert ds.vocab == 4 and ds.kind == "seqlabel"
        assert infer_vocab([SequenceSample(tokens=[5, 0], label=9)]) == 6

    @pytest.mark.parametrize("obj", [
        {"tokens": [1.7, 2], "label": 1},
        {"tokens": [1, 2], "label": 1.9},
        {"tokens": [1, 2], "label": True},
        {"tokens": [True, 2], "label": 1},
        {"tokens": [1, 2], "targets": [1.0, 2]},
        {"tokens": [1, 2], "targets": [0, False]},
    ], ids=["float-token", "float-label", "bool-label", "bool-token",
            "float-target", "bool-target"])
    def test_non_integer_ids_are_a_parse_error(self, tmp_path, obj):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"tokens": [0, 1], "label": 0}) + "\n"
                        + json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="JSON integers") as err:
            load_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("obj", [
        {"frames": [[True, False], [1, 0]]},
        {"frames": [[1.0, 0], [1, 0]]},
        {"n_v": 3.7, "frames": [[1, 0, 1], [0, 1, 0]]},
        {"n_v": True, "frames": [[1], [0]]},
    ], ids=["bool-frame", "float-frame", "float-n_v", "bool-n_v"])
    def test_non_integer_frames_are_a_parse_error(self, tmp_path, obj):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"frames": [[0, 1]]}) + "\n"
                        + json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="JSON integers") as err:
            load_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("obj", [
        {"tokens": [10**20, 2], "label": 0},
        {"tokens": [-10**20, 2], "label": 0},
        {"tokens": [1, 2], "targets": [10**20, 1]},
    ], ids=["huge-token", "huge-negative-token", "huge-target"])
    def test_ids_beyond_int64_are_a_parse_error(self, tmp_path, obj):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps({"tokens": [0, 1], "label": 0}) + "\n"
                        + json.dumps(obj) + "\n")
        with pytest.raises(ParseError, match="too large") as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_pianoroll_line_accepts_width_annotation(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"n_v": 3, "frames": [[0, 1, 0], [1, 1, 0]]}) + "\n")
        ds = load_dataset(path)
        assert ds.vocab == 3 and ds.samples[0].length == 2
        path.write_text(json.dumps({"n_v": 5, "frames": [[0, 1, 0]]}) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 1


class Crash:
    """Stands in for a sample; reading it raises, as a process killed
    mid-write would stop there."""

    def __getattr__(self, name):
        raise KeyboardInterrupt


class TestWriteText:
    def test_interrupted_first_save_leaves_no_file(self, tmp_path):
        good = gen_seqclass(n=12, vocab=10, seed=1).samples
        ds = Dataset(kind="seqclass", samples=good[:6] + [Crash()] + good[7:],
                     vocab=10, manifest={"kind": "seqclass"})
        path = tmp_path / "d.jsonl"
        with pytest.raises(KeyboardInterrupt):
            save_dataset(path, ds)
        assert os.listdir(tmp_path) == []

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        save_dataset(path, gen_seqclass(n=5, vocab=10, seed=1))
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_dataset(path, gen_seqclass(n=8, vocab=10, seed=2))
        assert path.read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_keeps_the_text_exactly(self, tmp_path):
        path = tmp_path / "t.txt"
        write_text(path, "a\r\nb\n")
        assert path.read_bytes() == b"a\r\nb\n"

    def test_file_mode_is_that_of_plain_open(self, tmp_path):
        write_text(tmp_path / "a", "x")
        with open(tmp_path / "b", "w") as fh:
            fh.write("x")
        assert os.stat(tmp_path / "a").st_mode == os.stat(tmp_path / "b").st_mode


SEQ = SequenceSample(tokens=[1, 2, 3], label=0)
TAGGED = SequenceSample(tokens=[1, 2, 3], targets=[0, 1, 2])
FRAMES = FrameSequence(frames=[[0, 1], [1, 0]])


class TestEquality:
    @pytest.mark.parametrize("a, b", [
        (SEQ, SequenceSample(tokens=[1, 2, 4], label=0)),
        (SEQ, SequenceSample(tokens=[1, 2, 3], label=1)),
        (TAGGED, SequenceSample(tokens=[1, 2, 3], targets=[0, 1, 1])),
        (FRAMES, FrameSequence(frames=[[0, 1], [1, 1]])),
        (FRAMES, FrameSequence(frames=[[0, 1]])),
        (SequenceSample(tokens=[0], label=0), SequenceSample(tokens=[0], targets=[0])),
        (SequenceSample(tokens=[0, 1], label=0), FrameSequence(frames=[[0, 1]])),
        (SEQ, {"tokens": [1, 2, 3], "label": 0}),
        (FRAMES, None),
        (Dataset(kind="seqclass", samples=[SEQ], vocab=4),
         Dataset(kind="seqclass", samples=[SEQ], vocab=5)),
        (Dataset(kind="seqclass", samples=[TAGGED], vocab=4),
         Dataset(kind="seqlabel", samples=[TAGGED], vocab=4)),
    ], ids=["token", "label", "target", "frame-bit", "frame-count",
            "label-vs-targets", "sequence-vs-frames", "sample-vs-its-json",
            "sample-vs-none", "dataset-vocab", "dataset-kind"])
    def test_unequal(self, a, b):
        assert a != b and b != a
        assert not a == b

    @pytest.mark.parametrize("a, b", [
        (SEQ, SequenceSample(tokens=np.array([1, 2, 3], dtype=np.int32), label=0)),
        (FRAMES, FrameSequence(frames=np.array([[False, True], [True, False]]))),
        (Dataset(kind="seqclass", samples=[SEQ], vocab=4, manifest={"seed": 1}),
         Dataset(kind="seqclass", samples=[SEQ], vocab=4, manifest={"seed": 2})),
    ], ids=["token-dtype", "frame-dtype", "dataset-manifest"])
    def test_equal(self, a, b):
        assert a == b and b == a
