import dataclasses
import json

import numpy as np
import pytest

from lipsync import features, mesh, synthdata
from lipsync.errors import DataError, FileFormatError
from lipsync.features import FeatureSequence, SurrogateProvider
from lipsync.synthdata import CorpusManifest, OracleArticulator


class TestMakeHead:
    def test_deterministic(self):
        a = synthdata.make_head(100, seed=7)
        b = synthdata.make_head(100, seed=7)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)
        assert np.array_equal(a.landmarks, b.landmarks)

    def test_exact_vertex_count(self):
        for v in (20, 57, 100, 333):
            assert synthdata.make_head(v, seed=1).n_vertices == v

    def test_landmarks_unique_and_in_range(self):
        head = synthdata.make_head(80, seed=2)
        assert len(head.landmarks) == 20
        assert len(np.unique(head.landmarks)) == 20
        assert head.landmarks.max() < head.n_vertices
        assert head.lip_mask.sum() == 8

    def test_mouth_below_eyes(self):
        head = synthdata.make_head(120, seed=3)
        lip_y = head.vertices[head.landmarks[head.lip_mask], 1].mean()
        eye_y = head.vertices[head.landmarks[8:10], 1].mean()  # first two face landmarks
        assert lip_y < eye_y

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            synthdata.make_head(19)


class TestArticulate:
    def oracle(self, seed=0, **kw):
        head = synthdata.make_head(60, seed=seed)
        return head, OracleArticulator.seeded(head, seed=seed, **kw)

    def test_zero_features_zero_offsets(self):
        _, oracle = self.oracle()
        out = synthdata.articulate(oracle, FeatureSequence(data=np.zeros((10, 29))))
        assert np.array_equal(out.frames, np.zeros((10, 60, 3)))

    def test_constant_features_converge_to_fixed_point(self):
        _, oracle = self.oracle()
        rng = np.random.default_rng(1)
        row = rng.random(29)
        seq = FeatureSequence(data=np.tile(row, (200, 1)))
        out = synthdata.articulate(oracle, seq)
        fixed_code = row @ oracle.readout
        fixed_frame = (oracle.basis @ fixed_code).reshape(60, 3)
        assert np.allclose(out.frames[-1], fixed_frame, atol=1e-6)

    def test_frame_delta_bound(self):
        # |f_t - f_{t-1}|_F <= (1 - a) * smax(basis) * |p_t - code_{t-1}|
        _, oracle = self.oracle(seed=2)
        rng = np.random.default_rng(2)
        seq = FeatureSequence(data=rng.random((40, 29)))
        out = synthdata.articulate(oracle, seq)
        smax = np.linalg.svd(oracle.basis, compute_uv=False)[0]
        a = oracle.smoothing
        projected = seq.data @ oracle.readout
        code = np.zeros(projected.shape[1])
        prev_frame = None
        for t in range(len(projected)):
            bound = (1 - a) * smax * np.linalg.norm(projected[t] - code)
            code = a * code + (1 - a) * projected[t]
            frame = (oracle.basis @ code).reshape(60, 3)
            if prev_frame is not None:
                assert np.linalg.norm(frame - prev_frame) <= bound + 1e-12
                assert np.allclose(frame, out.frames[t], atol=1e-12)
            prev_frame = frame

    def test_basis_columns_unit_norm(self):
        _, oracle = self.oracle(seed=3)
        norms = np.linalg.norm(oracle.basis, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_lip_concentration(self):
        # strongest offmouth vertex stays under 5% of the strongest lip vertex
        head, oracle = self.oracle(seed=4)
        v = oracle.basis.shape[0] // 3
        mags = np.linalg.norm(oracle.basis.reshape(v, 3, -1), axis=(1, 2))
        # the vertices the oracle weights as lips: within _LIP_RADIUS of the mouth centre
        mouth_center = synthdata._MOUTH_DIR / np.linalg.norm(synthdata._MOUTH_DIR) * synthdata._SEMI_AXES
        lip = np.linalg.norm(head.vertices - mouth_center, axis=1) <= synthdata._LIP_RADIUS
        assert lip.any() and (~lip).any()
        assert mags[~lip].max() < 0.05 * mags[lip].max()

    def test_smoothing_reduces_jitter(self):
        head, oracle = self.oracle(seed=5)
        m = features.surrogate_features(
            __import__("lipsync.audio", fromlist=["mfcc"]).mfcc(
                synthdata.synth_speech(1.0, np.random.default_rng(5))
            ),
            SurrogateProvider.seeded(5),
        )
        smooth = synthdata.articulate(oracle, m).frames
        raw_codes = m.data @ oracle.readout
        raw = (raw_codes @ oracle.basis.T).reshape(len(raw_codes), -1, 3)
        smooth_delta = np.linalg.norm(np.diff(smooth, axis=0), axis=(1, 2)).mean()
        raw_delta = np.linalg.norm(np.diff(raw, axis=0), axis=(1, 2)).mean()
        assert smooth_delta < raw_delta

    def test_anticipation_averages_future_frames(self):
        _, oracle0 = self.oracle(seed=6)
        oracle2 = OracleArticulator(
            basis=oracle0.basis, readout=oracle0.readout, smoothing=oracle0.smoothing,
            anticipation=2,
        )
        rng = np.random.default_rng(6)
        data = rng.random((12, 29))
        out = synthdata.articulate(oracle2, FeatureSequence(data=data))
        look = np.stack([data[t : t + 3].mean(axis=0) for t in range(12)])
        projected = look @ oracle0.readout
        code = np.zeros(projected.shape[1])
        a = oracle0.smoothing
        for t in range(12):
            code = a * code + (1 - a) * projected[t]
        expected_last = (oracle0.basis @ code).reshape(-1, 3)
        assert np.allclose(out.frames[-1], expected_last, atol=1e-12)

    def test_head_without_mouth_vertices_rejected(self):
        head = synthdata.make_head(60, seed=0)
        far = dataclasses.replace(head, vertices=head.vertices + 10.0)
        with pytest.raises(DataError, match="no vertices near the mouth"):
            OracleArticulator.seeded(far, seed=0)

    def test_dimension_mismatch(self):
        _, oracle = self.oracle()
        with pytest.raises(DataError, match="oracle readout expects 29-dim features, got 13"):
            synthdata.articulate(oracle, FeatureSequence(data=np.zeros((5, 13))))


class TestGenerateCorpus:
    def test_split_ratio_18_1_1(self, tmp_path):
        head = synthdata.make_head(40, seed=8)
        manifest = synthdata.generate_corpus(
            tmp_path,
            20,
            duration_range=(0.5, 0.7),
            provider=SurrogateProvider.seeded(8),
            oracle=OracleArticulator.seeded(head, seed=8),
            seed=8,
        )
        assert len(manifest.split("train")) == 18
        assert len(manifest.split("val")) == 1
        assert len(manifest.split("test")) == 1

    def test_split_counts_helper(self):
        assert synthdata.split_counts(20) == (18, 1, 1)
        assert synthdata.split_counts(60, (50, 5, 5)) == (50, 5, 5)
        assert synthdata.split_counts(14, (8, 2, 4)) == (8, 2, 4)
        with pytest.raises(ValueError):
            synthdata.split_counts(2)
        with pytest.raises(ValueError, match=r"split ratio \(0, 1, 1\) leaves no training items for n=3"):
            synthdata.split_counts(3, (0, 1, 1))

    def test_regeneration_is_identical(self, tmp_path):
        head = synthdata.make_head(30, seed=9)
        kw = dict(
            duration_range=(0.5, 0.7),
            provider=SurrogateProvider.seeded(9),
            oracle=OracleArticulator.seeded(head, seed=9),
            seed=9,
        )
        m1 = synthdata.generate_corpus(tmp_path / "a", 4, **kw)
        m2 = synthdata.generate_corpus(tmp_path / "b", 4, **kw)
        assert (tmp_path / "a" / "corpus.jsonl").read_text() == (
            tmp_path / "b" / "corpus.jsonl"
        ).read_text()
        for item in m1.items:
            assert (tmp_path / "a" / item.features).read_bytes() == (
                tmp_path / "b" / item.features
            ).read_bytes()
            assert (tmp_path / "a" / item.anim).read_bytes() == (
                tmp_path / "b" / item.anim
            ).read_bytes()
        assert m2 is not m1

    def test_feature_anim_frame_counts_match(self, mini_corpus):
        manifest = mini_corpus["manifest"]
        for split in ("train", "val", "test"):
            for s in synthdata.load_split(manifest, split):
                assert s.features.n_frames == s.displacements.n_frames

    def test_load_split_names_a_frame_count_mismatch(self, mini_corpus, tmp_path):
        manifest = mini_corpus["manifest"]
        item = manifest.split("test")[0]
        anim = mesh.load_anim(manifest.resolve(item.anim))
        mesh.save_anim(mesh.DisplacementSequence(frames=anim.frames[:-2], fps=anim.fps), tmp_path / "cut.lsa1")
        cut = CorpusManifest(items=[dataclasses.replace(item, anim=str(tmp_path / "cut.lsa1"))], root=manifest.root)
        n = anim.n_frames
        message = f"item {item.id!r}: {n} feature frames vs {n - 2} displacement frames"
        with pytest.raises(DataError, match=message):
            synthdata.load_split(cut, "test")

    def test_manifest_round_trip(self, mini_corpus):
        root = mini_corpus["root"]
        manifest = CorpusManifest.load(root / "corpus.jsonl")
        assert len(manifest.items) == 8
        assert {i.split for i in manifest.items} == {"train", "val", "test"}
        first = manifest.items[0]
        assert manifest.resolve(first.features).exists()

    def test_manifest_skips_blank_lines(self, mini_corpus, tmp_path):
        path = mini_corpus["root"] / "corpus.jsonl"
        (tmp_path / "m.jsonl").write_text("\n" + path.read_text().replace("\n", "\n\n  \n"))
        assert CorpusManifest.load(tmp_path / "m.jsonl").items == CorpusManifest.load(path).items

    def test_manifest_nested_too_deep_names_its_line(self, tmp_path):
        # json recurses once per bracket, so this line exceeds the interpreter's depth limit
        (tmp_path / "m.jsonl").write_bytes(b"\n" + b"[" * 5000 + b"\n")
        with pytest.raises(FileFormatError, match=r"m\.jsonl: bad manifest line: .* \(line 2\)$") as info:
            CorpusManifest.load(tmp_path / "m.jsonl")
        assert info.value.line == 2

    @pytest.mark.parametrize("duration", ['"abc"', "true", "1e400", None])
    def test_manifest_duration_is_not_read(self, mini_corpus, tmp_path, duration):
        # generate_corpus writes each sentence's duration; loading neither needs nor parses it
        written = json.loads((mini_corpus["root"] / "corpus.jsonl").read_text().splitlines()[0])
        assert isinstance(written["duration"], float)
        del written["duration"]
        line = json.dumps(written)
        if duration is not None:
            line = line[:-1] + f', "duration": {duration}}}'
        (tmp_path / "m.jsonl").write_text(line + "\n")
        (item,) = CorpusManifest.load(tmp_path / "m.jsonl").items
        assert (item.id, item.duration) == (written["id"], None)


class TestSynthSpeech:
    def test_deterministic_and_bounded(self):
        a = synthdata.synth_speech(0.8, np.random.default_rng(3))
        b = synthdata.synth_speech(0.8, np.random.default_rng(3))
        assert np.array_equal(a.samples, b.samples)
        assert np.abs(a.samples).max() <= 0.85 + 1e-12
        assert len(a.samples) == round(0.8 * 16000)
