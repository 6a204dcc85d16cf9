import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsync import audio, features
from lipsync.errors import DataError, FileFormatError
from lipsync.features import FeatureKind, FeatureSequence, SurrogateProvider


def mfcc_fixture(seconds=1.0, seed=0):
    rng = np.random.default_rng(seed)
    n = int(16000 * seconds)
    t = np.arange(n) / 16000.0
    x = 0.3 * np.sin(2 * np.pi * 300 * t) + 0.1 * rng.standard_normal(n)
    w = audio.Waveform(samples=x, sample_rate=16000)
    return audio.mfcc(w), w.duration


class TestSurrogate:
    def test_zero_weights_give_uniform_rows(self):
        provider = SurrogateProvider(projection=np.zeros((13, 29)), bias=np.zeros(29))
        seq = features.surrogate_features(*mfcc_fixture(), provider)
        assert np.allclose(seq.data, 1.0 / 29.0, atol=1e-12)
        assert seq.kind == FeatureKind.CHAR_PROB_SURROGATE

    def test_rows_are_simplex(self):
        seq = features.surrogate_features(*mfcc_fixture(), SurrogateProvider.seeded(3))
        assert seq.data.min() >= 0.0
        assert np.allclose(seq.data.sum(axis=1), 1.0, atol=1e-6)

    def test_deterministic_for_fixed_seed(self):
        m = mfcc_fixture(seed=42)
        a = features.surrogate_features(*m, SurrogateProvider.seeded(42))
        b = features.surrogate_features(*m, SurrogateProvider.seeded(42))
        assert np.array_equal(a.data, b.data)

    def test_frame_count_follows_the_duration_argument(self):
        # the same cepstra of a 1 s clip: the duration passed, not the 98 MFCC frames, sets the row count
        cepstra, _ = mfcc_fixture()
        provider = SurrogateProvider.seeded(0)
        assert features.surrogate_features(cepstra, 1.0, provider).n_frames == 60
        assert features.surrogate_features(cepstra, 1.01, provider).n_frames == 61

    def test_frame_count_follows_duration(self):
        # 60T frames for a T-second clip, not 60 * (mfcc frames / 100)
        for seconds in (0.5, 1.0, 2.0, 3.7):
            seq = features.surrogate_features(*mfcc_fixture(seconds), SurrogateProvider.seeded(0))
            assert seq.n_frames == round(60 * seconds)
            assert seq.dim == 29


def reference_context_average(frames, before=2, after=2):
    """Per-row mean over the clamped window: the oracle. With ``before=0``
    it is the look-ahead loop ``synthdata.articulate`` ran before it called
    ``_context_average``."""
    n = len(frames)
    out = np.empty_like(frames)
    for i in range(n):
        out[i] = frames[max(0, i - before) : min(n, i + after + 1)].mean(axis=0)
    return out


class TestContextAverage:
    @pytest.mark.parametrize("n", [*range(1, 13), 57, 400])
    def test_matches_loop_bitwise(self, n):
        rng = np.random.default_rng(n)
        frames = rng.standard_normal((n, 13)) * 10.0 ** rng.integers(-3, 4, size=(n, 13))
        frames[rng.random((n, 13)) < 0.1] = -0.0
        frames[:, 0] = -0.0  # mean sums from +0.0: an all -0.0 window gives +0.0
        out = features._context_average(frames, 2, 2)
        expected = reference_context_average(frames)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    @pytest.mark.parametrize("after", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 57, 200])
    def test_one_sided_window_matches_articulate_loop(self, n, after):
        rng = np.random.default_rng(100 * n + after)
        frames = rng.standard_normal((n, 29)) * 10.0 ** rng.integers(-3, 4, size=(n, 29))
        frames[rng.random((n, 29)) < 0.1] = -0.0
        frames[:, 0] = -0.0
        out = features._context_average(frames, 0, after)
        expected = reference_context_average(frames, 0, after)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_zero_signs_follow_mean(self):
        frames = np.array([[-0.0, 0.0, -0.0]] * 7)
        frames[3, 2] = 1.0
        out = features._context_average(frames, 2, 2)
        assert not np.signbit(out).any()
        assert np.array_equal(out, reference_context_average(frames))


class TestResampleFeatures:
    def test_constant_rows_stay_constant(self):
        data = np.tile([1.5, -2.0, 0.25], (10, 1))
        out = features.resample_features(data, 0.1)
        assert out.shape == (6, 3)
        assert np.allclose(out, data[0], atol=1e-12)

    def test_one_second_at_100hz_gives_60_rows(self):
        out = features.resample_features(np.random.default_rng(0).random((100, 4)), 1.0)
        assert len(out) == 60

    def test_two_rows_linear_interpolation(self):
        # rows at 100 Hz: frame 1 (1/60 s) lies 2/3 of the way from row 1 to row 2
        data = np.array([[0.0], [1.0], [3.0]])
        out = features.resample_features(data, 0.1)
        assert len(out) == 6
        assert abs(out[1, 0] - (1.0 + 2.0 * 2 / 3)) < 1e-9
        assert out[0, 0] == 0.0
        # frames past the last source time clamp to the final row
        assert np.all(out[2:, 0] == 3.0)

    def test_needs_two_rows(self):
        with pytest.raises(DataError, match="feature resampling needs at least two rows"):
            features.resample_features(np.ones((1, 4)), 0.01)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(2, 40))
    def test_simplex_preserved(self, seed, rows):
        rng = np.random.default_rng(seed)
        raw = rng.random((rows, 7)) + 1e-3
        simplex = raw / raw.sum(axis=1, keepdims=True)
        out = features.resample_features(simplex, rows / 100)
        if len(out):
            assert out.min() >= 0.0
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestFeatureFiles:
    def test_round_trip_bitwise(self, tmp_path):
        data = np.random.default_rng(1).random((30, 29)).astype(np.float32)
        seq = FeatureSequence(data=data, fps=60, kind=FeatureKind.CHAR_PROB_SURROGATE)
        features.save_features(seq, tmp_path / "f.lsf1")
        back = features.load_features(tmp_path / "f.lsf1")
        assert np.array_equal(back.data, data)
        assert back.fps == 60
        assert back.kind == FeatureKind.CHAR_PROB_SURROGATE

    def test_truncated_file(self, tmp_path):
        seq = FeatureSequence(data=np.ones((4, 3), dtype=np.float32))
        features.save_features(seq, tmp_path / "t.lsf1")
        raw = (tmp_path / "t.lsf1").read_bytes()
        (tmp_path / "t.lsf1").write_bytes(raw[:-5])
        with pytest.raises(FileFormatError):
            features.load_features(tmp_path / "t.lsf1")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.lsf1").write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FileFormatError):
            features.load_features(tmp_path / "m.lsf1")

    def test_unknown_kind_byte(self, tmp_path):
        payload = np.zeros((2, 2), dtype="<f4").tobytes()
        raw = b"LSF1" + struct.pack("<IIIB", 2, 2, 60, 9) + payload
        (tmp_path / "k.lsf1").write_bytes(raw)
        with pytest.raises(FileFormatError):
            features.load_features(tmp_path / "k.lsf1")

    def test_external_fixture_file(self, tmp_path):
        # the container an external recognizer would produce: 60 fps, D=29
        rng = np.random.default_rng(7)
        rows = rng.random((120, 29)).astype("<f4")
        raw = b"LSF1" + struct.pack("<IIIB", 120, 29, 60, int(FeatureKind.EXTERNAL)) + rows.tobytes()
        (tmp_path / "ext.lsf1").write_bytes(raw)
        seq = features.load_features(tmp_path / "ext.lsf1")
        assert seq.kind == FeatureKind.EXTERNAL
        assert seq.n_frames == 120 and seq.dim == 29
        assert np.array_equal(seq.data, rows)
