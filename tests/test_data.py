import hashlib
import json

import numpy as np
import pytest

from gradmine.data import (
    Dataset,
    SequenceSample,
    chunk_frames,
    gen_pianoroll,
    gen_seqclass,
    infer_vocab,
    load_dataset,
    save_dataset,
    token_bands,
)
from gradmine.errors import InvalidInputError, ParseError


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


class TestRoundTrips:
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

    def test_pianoroll_line_accepts_width_annotation(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"n_v": 3, "frames": [[0, 1, 0], [1, 1, 0]]}) + "\n")
        ds = load_dataset(path)
        assert ds.vocab == 3 and ds.samples[0].length == 2
        path.write_text(json.dumps({"n_v": 5, "frames": [[0, 1, 0]]}) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 1
