import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import BYTE_MUTATIONS, mutate
from lipsync import audio, synthdata
from lipsync.errors import DataError, FileFormatError, LipSyncError


def wav_bytes(frames, rate=16000, channels=1, bits=16, audio_format=1, extension=b""):
    """Hand-assembled RIFF/WAVE container for fixture files; ``extension`` follows the 16-byte fmt fields."""
    payload = struct.pack(f"<{len(frames)}h", *frames)
    fmt = struct.pack(
        "<HHIIHH", audio_format, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    ) + extension
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_wav(tmp_path, name, **kw):
    p = tmp_path / name
    p.write_bytes(wav_bytes(**kw))
    return p


def extensible(subformat_tag):
    """The 24 bytes a WAVE_FORMAT_EXTENSIBLE fmt chunk adds: cbSize 22, valid bits, channel mask, SubFormat GUID."""
    return struct.pack("<HHIH", 22, 16, 0, subformat_tag) + bytes.fromhex("000000001000800000aa00389b71")


class TestLoadWav:
    def test_int16_scaling(self, tmp_path):
        p = write_wav(tmp_path, "a.wav", frames=[0, 16384, -32768])
        w = audio.load_wav(p)
        assert np.array_equal(w.samples, [0.0, 0.5, -1.0])
        assert w.sample_rate == 16000

    def test_stereo_averaged(self, tmp_path):
        # one stereo frame: left 0.5, right 0.0 -> mono 0.25
        p = write_wav(tmp_path, "s.wav", frames=[16384, 0], channels=2)
        w = audio.load_wav(p)
        assert np.array_equal(w.samples, [0.25])

    def test_duration_one_second(self, tmp_path):
        p = write_wav(tmp_path, "d.wav", frames=[0] * 16000)
        w = audio.load_wav(p)
        assert len(w.samples) == 16000
        assert w.duration == 1.0

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(FileFormatError, match=r"not a RIFF/WAVE file \(byte offset 0\)"):
            audio.load_wav(p)

    def test_truncated_chunk(self, tmp_path):
        raw = wav_bytes(frames=[0] * 100)
        p = tmp_path / "trunc.wav"
        p.write_bytes(raw[:-50])
        with pytest.raises(FileFormatError, match="truncated chunk"):
            audio.load_wav(p)

    def test_non_pcm_codec(self, tmp_path):
        p = write_wav(tmp_path, "f.wav", frames=[0, 0], audio_format=3)
        with pytest.raises(DataError, match="audio format 3 is not PCM"):
            audio.load_wav(p)

    def test_extensible_pcm_averaged(self, tmp_path):
        # one 6-channel frame: 0.5, 0, -0.5, 0.25, 0, 0 -> mono 0.25 / 6
        frames = [16384, 0, -16384, 8192, 0, 0]
        p = write_wav(tmp_path, "x.wav", frames=frames, channels=6, audio_format=0xFFFE, extension=extensible(1))
        assert np.array_equal(audio.load_wav(p).samples, [0.25 / 6])

    @pytest.mark.parametrize(
        "extension", [extensible(3), extensible(1)[:-2], b"\0\0"], ids=["float", "guid-cut", "no-guid"]
    )
    def test_extensible_without_pcm_subformat(self, tmp_path, extension):
        p = write_wav(tmp_path, "x.wav", frames=[0, 0], audio_format=0xFFFE, extension=extension)
        with pytest.raises(DataError, match="audio format 65534 is not PCM"):
            audio.load_wav(p)

    def test_zero_length_data(self, tmp_path):
        p = write_wav(tmp_path, "e.wav", frames=[])
        with pytest.raises(DataError, match="data chunk holds no samples"):
            audio.load_wav(p)

    # 1 Hz is a small file claiming hours of output; 1000003 Hz a kernel of
    # thousands of taps per phase. Both bounds are standard rates.
    @pytest.mark.parametrize("rate", [0, 1, 7999, 192_001, 1_000_003, 2**31 - 1])
    def test_rate_outside_range(self, tmp_path, rate):
        p = write_wav(tmp_path, "r.wav", frames=[0] * 200, rate=rate)
        with pytest.raises(DataError, match=f"sample rate {rate} Hz"):
            audio.load_wav(p)

    @pytest.mark.parametrize("rate", [8000, 192_000])
    def test_rate_bounds_accepted(self, tmp_path, rate):
        assert audio.load_wav(write_wav(tmp_path, "r.wav", frames=[0] * 200, rate=rate)).sample_rate == rate

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        w = audio.Waveform(samples=rng.uniform(-0.9, 0.9, 500), sample_rate=16000)
        audio.save_wav(w, tmp_path / "r.wav")
        back = audio.load_wav(tmp_path / "r.wav")
        assert back.sample_rate == 16000
        assert np.allclose(back.samples, w.samples, atol=1.0 / 32768)


# Small valid files at the canonical rate and at one that resamples.
_VALID_WAVS = {
    rate: wav_bytes(frames=np.random.default_rng(rate).integers(-2000, 2000, rate // 20).tolist(), rate=rate)
    for rate in (16000, 44100)
}
_RATE_FIELD = 24  # byte offset of the u32 sample rate in ``wav_bytes`` output


class TestWavMutation:
    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.sampled_from(sorted(_VALID_WAVS)),
        mutations=BYTE_MUTATIONS,
    )
    @example(rate=16000, mutations=[("u32", 0, 1)])
    @example(rate=44100, mutations=[("u32", 0, 1_000_003)])
    @example(rate=44100, mutations=[("u32", 0, 2**32 - 1)])
    @example(rate=16000, mutations=[("truncate", 44)])
    def test_only_lipsync_errors_and_bounded_resampling(self, tmp_path_factory, rate, mutations):
        path = tmp_path_factory.mktemp("wav") / "mutated.wav"
        path.write_bytes(mutate(_VALID_WAVS[rate], mutations, (_RATE_FIELD,)))
        try:
            w = audio.load_wav(path)
        except LipSyncError:
            return
        assert len(audio.resample(w).samples) <= 2 * len(w.samples)
        try:
            audio.mfcc(audio.resample(w))
        except LipSyncError:
            pass


def reference_resample(w):
    """The resampler before the per-phase kernel table, kept as the oracle.

    It evaluates the windowed-sinc kernel afresh for every output sample, at
    input position k / ratio, and reads zeros outside the input.
    """
    target_rate = audio.CANONICAL_RATE
    x = np.asarray(w.samples, dtype=np.float64)
    n_in = len(x)
    ratio = target_rate / w.sample_rate
    n_out = int(round(n_in * ratio))
    cutoff = min(1.0, ratio)
    half = audio._SINC_CROSSINGS / cutoff
    n_taps = int(2 * half) + 2

    out = np.empty(n_out)
    offsets = np.arange(n_taps)
    for start in range(0, n_out, 8192):
        stop = min(start + 8192, n_out)
        centers = np.arange(start, stop) / ratio
        first = np.ceil(centers - half).astype(np.int64)
        idx = first[:, None] + offsets[None, :]
        delta = centers[:, None] - idx
        kernel = cutoff * np.sinc(cutoff * delta) * audio._kaiser_window(delta / half)
        valid = (idx >= 0) & (idx < n_in)
        gathered = np.where(valid, x[np.clip(idx, 0, n_in - 1)], 0.0)
        out[start:stop] = np.einsum("ij,ij->i", kernel, gathered)
    return audio.Waveform(samples=out, sample_rate=int(target_rate))


def reference_resample_gather(w):
    """The path the strided-view resampler replaced, kept as its equivalence oracle.

    For each block of about 8192 outputs it gathers every (phase, repeat,
    tap) input window from a zero-padded copy of the span the block reads,
    and takes one batched dot with the phase rows of the kernel table.
    """
    target_rate = audio.CANONICAL_RATE
    if w.sample_rate == target_rate:
        return w

    x = np.asarray(w.samples, dtype=np.float64)
    n_in = len(x)
    n_out = int(round(n_in * (target_rate / w.sample_rate)))
    g = math.gcd(w.sample_rate, target_rate)
    up, down = target_rate // g, w.sample_rate // g

    # out[r, p] is output p + up*r; the last row runs past n_out into zeros.
    n_phases = min(up, n_out)
    out = np.empty((-(-n_out // up), n_phases))
    for p0 in range(0, n_phases, _GATHER_BLOCK):
        first, table = gather_phase_table(w.sample_rate, target_rate, p0, min(p0 + _GATHER_BLOCK, n_phases))
        n_taps = table.shape[1]
        repeats = max(1, _GATHER_BLOCK // len(first))
        for r0 in range(0, len(out), repeats):
            rows = slice(r0, min(r0 + repeats, len(out)))
            starts = first[:, None] + down * np.arange(rows.start, rows.stop)
            # Zero-padded input span that this block of outputs reads.
            lo, hi = starts[0, 0], starts[-1, -1] + n_taps
            span = np.zeros(hi - lo)
            a, b = np.clip((lo, hi), 0, n_in)
            span[a - lo : b - lo] = x[a:b]
            # (phase, repeat, tap): the table row of each phase meets all its repeats.
            windows = np.lib.stride_tricks.sliding_window_view(span, n_taps)[starts - lo]
            out[rows, p0 : p0 + len(first)] = np.matmul(windows, table[:, :, None])[..., 0].T
    return audio.Waveform(samples=out.ravel()[:n_out], sample_rate=int(target_rate))


_GATHER_BLOCK = 8192  # outputs per block of the gather path


def gather_phase_table(source_rate, target_rate, p0, p1):
    """(first, table) of the gather path: phase p's first input sample and its (n_taps,) kernel row."""
    ratio = target_rate / source_rate
    cutoff = min(1.0, ratio)
    half = audio._SINC_CROSSINGS / cutoff
    centers = np.arange(p0, p1) / ratio
    first = np.ceil(centers - half).astype(np.int64)
    delta = centers[:, None] - (first[:, None] + np.arange(int(2 * half) + 2))
    return first, cutoff * np.sinc(cutoff * delta) * audio._kaiser_window(delta / half)


def resample_peak(rate, seconds):
    """Resample ``seconds`` of noise at ``rate`` to 16 kHz from an empty kernel
    cache; returns the output and the tracemalloc peak in bytes."""
    w = audio.Waveform(samples=np.random.default_rng(0).uniform(-1, 1, seconds * rate), sample_rate=rate)
    audio._phase_table.cache_clear()
    tracemalloc.start()
    try:
        out = audio.resample(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.samples) == round(seconds * rate * 16000 / rate)
    return out, peak


def tone_gain_db(resampler, source_rate, freq):
    """Gain of a unit tone through a resampler to 16 kHz, from the RMS of an
    interior stretch of 200 periods of 1 kHz (a whole number of periods of
    every tone tested, also after aliasing)."""
    t = np.arange(source_rate // 4) / source_rate
    w = audio.Waveform(samples=np.sin(2 * np.pi * freq * t), sample_rate=source_rate)
    interior = resampler(w).samples[400:3600]
    return 20 * np.log10(np.sqrt(2 * np.mean(interior**2)))


class TestResample:
    def test_48k_to_16k_length(self):
        w = audio.Waveform(samples=np.zeros(48000), sample_rate=48000)
        out = audio.resample(w)
        assert len(out.samples) == 16000
        assert out.sample_rate == 16000

    def test_identity_rate_returns_input(self):
        w = audio.Waveform(samples=np.zeros(100), sample_rate=16000)
        assert audio.resample(w) is w

    def test_sine_tone_preserved(self):
        # oracle: the dominant DFT bin of a 440 Hz tone stays at 440 Hz
        t = np.arange(48000) / 48000.0
        w = audio.Waveform(samples=0.5 * np.sin(2 * np.pi * 440.0 * t), sample_rate=48000)
        out = audio.resample(w)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak = int(np.argmax(spectrum))  # 1 s of output -> 1 Hz bins
        assert abs(peak - 440) <= 1

    def test_kernel_table_cached(self, monkeypatch):
        # a second call at the same rates reuses the table, bit for bit
        audio._phase_table.cache_clear()
        built = []
        window = audio._kaiser_window
        monkeypatch.setattr(audio, "_kaiser_window", lambda u: built.append(u.shape) or window(u))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(44100)
        first = audio.resample(audio.Waveform(samples=x, sample_rate=44100)).samples
        assert built == [(160, 90)]
        again = audio.resample(audio.Waveform(samples=x, sample_rate=44100)).samples
        shorter = audio.resample(audio.Waveform(samples=x[:20000], sample_rate=44100)).samples
        assert built == [(160, 90)]
        info = audio._phase_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        assert np.array_equal(again, first)
        audio._phase_table.cache_clear()
        assert np.array_equal(shorter, audio.resample(audio.Waveform(samples=x[:20000], sample_rate=44100)).samples)
        # the one entry is the 44.1 kHz table (32 phases a group, 90 taps in 177 samples); it is read-only
        starts, mats = audio._phase_table(44100, 0, 160, 32, 90, 177)
        assert audio._phase_table.cache_info()[:2] == (1, 1)
        assert not starts.flags.writeable and not mats.flags.writeable

    def test_table_cache_bounded(self):
        audio._phase_table.cache_clear()
        rng = np.random.default_rng(4)
        # 0.5 s at 22051 Hz: 8000 coprime phases x 90 padded taps, more than one block
        audio.resample(audio.Waveform(samples=rng.standard_normal(11026), sample_rate=22051))
        assert audio._phase_table.cache_info().currsize == 0

        def resample_at(rate):
            audio.resample(audio.Waveform(samples=rng.standard_normal(rate // 10), sample_rate=rate))
            return audio._phase_table.cache_info()

        # one rate more than the cache holds, each with a one-block table
        rates = [17_000 + 1_000 * k for k in range(audio._TABLE_CACHE_SIZE + 1)]
        for rate in rates[:-1]:
            resample_at(rate)
        resample_at(rates[0])  # a hit: the first rate becomes the most recently used
        info = resample_at(rates[-1])  # full: the least recently used, the second rate, goes
        assert info.currsize == audio._TABLE_CACHE_SIZE
        assert resample_at(rates[0]).hits == info.hits + 1
        assert resample_at(rates[1]).misses == info.misses + 1
        assert audio._phase_table.cache_info().currsize == audio._TABLE_CACHE_SIZE

    def test_short_outputs_share_their_rate_table(self):
        # outputs shorter than one period (435..537 < up = 640 at 11.025 kHz)
        # read the rate's one table of every phase, and evict nothing
        audio._phase_table.cache_clear()
        rng = np.random.default_rng(5)

        def resample(n, rate):
            w = audio.Waveform(samples=rng.uniform(-1, 1, n), sample_rate=rate)
            out = audio.resample(w).samples
            assert np.abs(out - reference_resample_gather(w).samples).max() <= 1e-13
            return out

        x = rng.uniform(-1, 1, 4800)
        first = audio.resample(audio.Waveform(samples=x, sample_rate=48000)).samples
        for n in range(300, 371, 10):
            resample(n, 11025)
        again = audio.resample(audio.Waveform(samples=x, sample_rate=48000)).samples
        info = audio._phase_table.cache_info()
        assert (info.hits, info.misses, info.currsize) == (8, 2, 2)
        assert np.array_equal(again, first)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=200, max_value=5000),
        rates=st.sampled_from([(48000, 16000), (44100, 16000), (8000, 16000)]),
    )
    def test_duration_preserved_within_one_sample(self, n, rates):
        src, dst = rates
        w = audio.Waveform(samples=np.zeros(n), sample_rate=src)
        out = audio.resample(w)
        assert len(out.samples) == round(n * dst / src)
        assert abs(out.duration - w.duration) <= 1.0 / dst

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20000),
        rates=st.sampled_from(
            [(src, 16000) for src in (8000, 11025, 22050, 22051, 44100, 48000, 96000)]
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=1, rates=(48000, 16000), seed=0)  # no output sample at all
    @example(n=440, rates=(11025, 16000), seed=0)  # n_out < up = 640
    @example(n=20000, rates=(22051, 16000), seed=0)  # coprime: up = 16000 > n_out
    @example(n=20000, rates=(11025, 16000), seed=1)  # n_out spans many repeats of up
    def test_matches_per_output_kernel(self, n, rates, seed):
        src, dst = rates
        w = audio.Waveform(samples=np.random.default_rng(seed).uniform(-1, 1, n), sample_rate=src)
        got = audio.resample(w).samples
        want = reference_resample(w).samples
        assert len(got) == len(want) == round(n * dst / src)
        assert len(got) == 0 or np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("source_rate", [44100, 48000])
    def test_tone_response(self, source_rate):
        for freq in (1000, 6000):
            gain = tone_gain_db(audio.resample, source_rate, freq)
            assert abs(gain - tone_gain_db(reference_resample, source_rate, freq)) <= 0.01
            assert abs(gain) <= 0.01
        assert tone_gain_db(audio.resample, source_rate, 10000) <= -80

    # 60 s of input; the output alone is 7.3 MiB. The peaks measured with an
    # empty cache were 7.6 MiB at 48 kHz and 8.7 MiB at 44.1 kHz; the bound
    # leaves 1.3 MiB above the larger one.
    def test_memory_bounded_on_long_input(self):
        assert resample_peak(48000, 60)[1] <= 10 * 2**20

    def test_memory_bounded_on_long_input_44k(self):
        assert resample_peak(44100, 60)[1] <= 10 * 2**20

    # 1 s of input. The kernel of a coprime rate such as 191999 Hz has 16000
    # phases of 385 taps, 49 MB in all; it is built a byte-bounded block at a time.
    @pytest.mark.parametrize("rate", [191_999, 192_000, 22_051])
    def test_memory_bounded_at_high_and_coprime_rates(self, rate):
        assert resample_peak(rate, 1)[1] <= 32 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20000),
        rates=st.sampled_from(
            [(src, 16000) for src in (8000, 11025, 22050, 22051, 44100, 48000, 96000, 191_999, 192_000)]
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=1, rates=(48000, 16000), seed=0)  # no output sample at all
    @example(n=440, rates=(11025, 16000), seed=0)  # n_out < up = 640
    @example(n=20000, rates=(22051, 16000), seed=0)  # coprime: up = 16000 > n_out
    @example(n=20000, rates=(11025, 16000), seed=1)  # n_out spans many repeats of up
    @example(n=8033, rates=(8001, 16000), seed=0)  # a phase block whose last row reads only zeros
    def test_matches_gather_path(self, n, rates, seed):
        # Same kernel rows and windows; only the order of each output's sum differs.
        src, dst = rates
        w = audio.Waveform(samples=np.random.default_rng(seed).uniform(-1, 1, n), sample_rate=src)
        got = audio.resample(w).samples
        want = reference_resample_gather(w).samples
        assert len(got) == len(want) == round(n * dst / src)
        assert len(got) == 0 or np.abs(got - want).max() <= 1e-13


def speechlike(seconds=1.0):
    # tones (including one low enough for the first mel band) plus broadband
    # noise, so every filterbank energy stays far above the log floor even at
    # a 0.1 gain, and a peak low enough that a 4x gain cannot clip
    n = int(16000 * seconds)
    t = np.arange(n) / 16000.0
    x = (
        np.sin(2 * np.pi * 220 * t)
        + 0.5 * np.sin(2 * np.pi * 880 * t + 0.3)
        + 0.25 * np.sin(2 * np.pi * 1760 * t + 1.1)
        + 0.5 * np.sin(2 * np.pi * 50 * t)
        + 0.3 * np.random.default_rng(1234).standard_normal(n)
    )
    raw = (0.5 * (1 - np.cos(2 * np.pi * 4 * t)) + 0.3) * x
    return audio.Waveform(samples=raw * (0.98 / (4.0 * np.abs(raw).max())), sample_rate=16000)


class TestMfcc:
    def test_silence_constant_frames(self):
        w = audio.Waveform(samples=np.zeros(16000), sample_rate=16000)
        m = audio.mfcc(w)
        # every frame identical; energy floor puts the whole log vector at a
        # constant, whose DCT lives entirely in c0
        assert np.ptp(m, axis=0).max() == 0.0
        assert np.all(np.abs(m[:, 1:]) < 1e-10)
        assert abs(m[0, 0]) > 1.0

    def test_one_second_gives_98_frames(self):
        # floor((16000 - 400) / 160) + 1
        m = audio.mfcc(speechlike(1.0))
        assert len(m) == 98
        assert audio.MFCC_FRAME_RATE == 100

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=400, max_value=40000))
    def test_frame_count_formula(self, n):
        w = audio.Waveform(samples=np.zeros(n), sample_rate=16000)
        assert len(audio.mfcc(w)) == (n - 400) // 160 + 1

    def test_gain_shifts_only_c0(self):
        base = speechlike()
        ref = audio.mfcc(base)
        for gain in (0.1, 0.5, 2.0, 4.0):
            scaled = audio.mfcc(audio.Waveform(samples=base.samples * gain, sample_rate=16000))
            assert np.allclose(scaled[:, 1:], ref[:, 1:], rtol=1e-6, atol=1e-9)
            if gain != 1.0:
                assert not np.allclose(scaled[:, 0], ref[:, 0], rtol=1e-6)

    def test_deterministic(self):
        w = speechlike()
        a = audio.mfcc(w)
        b = audio.mfcc(w)
        assert np.array_equal(a, b)

    def test_too_short_raises(self):
        w = audio.Waveform(samples=np.zeros(399), sample_rate=16000)
        with pytest.raises(DataError, match=r"audio shorter than one analysis window \(400 samples\)"):
            audio.mfcc(w)

    def test_wrong_rate_rejected(self):
        w = audio.Waveform(samples=np.zeros(48000), sample_rate=48000)
        with pytest.raises(ValueError):
            audio.mfcc(w)


def scipy_cepstra(log_energies):
    """The oracle: scipy's orthonormal DCT-II, which the MFCC used before the numpy one."""
    return scipy.fft.dct(log_energies, type=2, norm="ortho")[:, : audio.N_CEPSTRA]


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCepstra:
    """The numpy DCT-II gives scipy's bits, sign bits included."""

    # Any finite value a log can return, from the smallest subnormal to the largest double.
    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(audio.N_MEL_FILTERS)),
                        elements=st.floats(-745.0, 710.0)))
    def test_any_finite_rows(self, x):
        assert_same_bits(audio._cepstra(x), scipy_cepstra(x))

    # Log energies between 1e-12 and 1e3, a share of them at the floor.
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), floor_share=st.floats(0.0, 1.0))
    @example(seed=0, floor_share=1.0)
    def test_log_energy_rows(self, seed, floor_share):
        rng = np.random.default_rng(seed)
        x = rng.uniform(np.log(1e-12), np.log(1e3), (500, audio.N_MEL_FILTERS))
        x[rng.random(x.shape) < floor_share] = np.log(audio.LOG_FLOOR)
        assert_same_bits(audio._cepstra(x), scipy_cepstra(x))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rate=st.sampled_from([16000, 44100]))
    def test_speech_log_energies(self, seed, rate):
        w = synthdata.synth_speech(1.0, np.random.default_rng(seed), sample_rate=rate)
        with mock.patch.object(audio, "_cepstra", wraps=audio._cepstra) as spy:
            coeffs = audio.mfcc(audio.resample(w))
        assert_same_bits(coeffs, scipy_cepstra(spy.call_args.args[0]))
