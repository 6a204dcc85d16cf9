"""PCM audio loading, sample-rate conversion, and MFCC extraction.

The front end is fixed to the conventional speech-recognition setup:
16 kHz mono input, 25 ms Hann windows with a 10 ms hop, 26 triangular
mel filters spanning 0-8000 Hz, and 13 cepstral coefficients.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FileFormatError

CANONICAL_RATE = 16_000
WINDOW_SECONDS = 0.025
HOP_SECONDS = 0.010
N_MEL_FILTERS = 26
N_CEPSTRA = 13
PREEMPHASIS = 0.97
NFFT = 512
LOG_FLOOR = 1e-10
_WIN = int(round(WINDOW_SECONDS * CANONICAL_RATE))  # samples per analysis window
_HOP = int(round(HOP_SECONDS * CANONICAL_RATE))
MFCC_FRAME_RATE = CANONICAL_RATE // _HOP  # MFCC frames per second
# WAV sample rates accepted: every standard rate. Resampling cost and its
# kernel table grow with the rate pair, not with the file's size, so a small
# file at an odd rate could otherwise ask for gigabytes.
_MIN_WAV_RATE = 8_000
_MAX_WAV_RATE = 192_000

# Windowed-sinc resampler: half-width in zero crossings of the cutoff-scaled
# sinc, and the Kaiser shape parameter.
_SINC_CROSSINGS = 16
_KAISER_BETA = 8.6
# Consecutive phases that share one padded kernel matrix, and so one BLAS
# product per block of outputs.
_GROUP = 32
# Bytes of padded kernel matrices built at a time; the kernel's own
# temporaries scale with it. Bounds memory at coprime rates, whose
# phases number up to 16000.
_BLOCK_BYTES = 1 << 20
# Kernel tables kept across resample calls, least recently used dropped
# first: enough for the common standard rates, each table 13-292 KB, and at
# most _TABLE_CACHE_SIZE * _BLOCK_BYTES (8 MiB) in all. A table is kept only
# when one block holds all of a rate's phases: a coprime rate's number up to
# 16000 and are rebuilt each call, only those its output uses.
_TABLE_CACHE_SIZE = 8


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class MfccFrames:
    """Cepstral coefficients at ``MFCC_FRAME_RATE`` frames per second.

    ``source_duration`` keeps the exact length of the originating clip in
    seconds; the frame grid alone underestimates it because only complete
    analysis windows produce frames.
    """

    frames: np.ndarray
    source_duration: float

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def load_wav(path) -> Waveform:
    """Read a 16-bit PCM RIFF/WAVE file; stereo is averaged down to mono."""
    path = Path(path)
    raw = path.read_bytes()
    view = memoryview(raw)  # chunk bodies are slices of the file's bytes, not copies
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FileFormatError("not a RIFF/WAVE file", path=str(path), offset=0)

    fmt_chunk = None
    data_chunk = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FileFormatError("truncated chunk", path=str(path), offset=pos)
        if chunk_id == b"fmt ":
            fmt_chunk = body
        elif chunk_id == b"data":
            data_chunk = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt_chunk is None or data_chunk is None:
        raise FileFormatError("missing fmt or data chunk", path=str(path), offset=pos)
    if len(fmt_chunk) < 16:
        raise FileFormatError("fmt chunk too short", path=str(path))

    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_chunk)
    if audio_format != 1:
        raise DataError(f"audio format {audio_format} is not PCM")
    if bits != 16:
        raise DataError(f"{bits}-bit samples unsupported, expected 16")
    if channels < 1:
        raise FileFormatError("invalid channel count", path=str(path))
    if not _MIN_WAV_RATE <= rate <= _MAX_WAV_RATE:
        raise DataError(
            f"{path}: sample rate {rate} Hz outside {_MIN_WAV_RATE}..{_MAX_WAV_RATE} Hz"
        )
    if len(data_chunk) == 0:
        raise DataError(f"{path}: data chunk holds no samples")

    frame_bytes = 2 * channels
    usable = len(data_chunk) - len(data_chunk) % frame_bytes
    ints = np.frombuffer(data_chunk[:usable], dtype="<i2")
    samples = ints.astype(np.float64) / 32768.0
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return Waveform(samples=samples, sample_rate=int(rate))


def save_wav(w: Waveform, path) -> None:
    """Write a mono 16-bit PCM WAV file (samples clipped to [-1, 1])."""
    scaled = np.round(np.asarray(w.samples, dtype=np.float64) * 32768.0)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    rate = int(w.sample_rate)
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def _kaiser_window(u: np.ndarray) -> np.ndarray:
    # Continuous Kaiser window on u in [-1, 1], zero outside.
    inside = np.clip(1.0 - u * u, 0.0, None)
    return np.where(np.abs(u) <= 1.0, np.i0(_KAISER_BETA * np.sqrt(inside)) / np.i0(_KAISER_BETA), 0.0)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _phase_table(source_rate, p0, p1, group, n_taps, width):
    """Padded kernel matrices of phases p0..p1-1 from ``source_rate`` to 16 kHz.

    Returns (starts, mats), both read-only. Group k holds phases
    p0 + group*k onward, none of whose windows starts before input sample
    starts[k]. mats[k, j] is the Kaiser-windowed sinc row of the group's
    phase j, placed at that phase's first input sample within the group's
    ``width`` samples and zero elsewhere.
    """
    ratio = CANONICAL_RATE / source_rate
    cutoff = min(1.0, ratio)
    half = _SINC_CROSSINGS / cutoff
    centers = np.arange(p0, p1) / ratio
    first = np.ceil(centers - half).astype(np.int64)
    delta = centers[:, None] - (first[:, None] + np.arange(n_taps))
    table = cutoff * np.sinc(cutoff * delta) * _kaiser_window(delta / half)
    starts = first[::group].copy()
    # Flat index of each row's first tap: its row, plus its offset in the group.
    row_firsts = np.arange(0, (p1 - p0) * width, width) + first - starts.repeat(group)[: p1 - p0]
    mats = np.zeros((len(starts), group, width))
    mats.reshape(-1)[row_firsts[:, None] + np.arange(n_taps)] = table
    starts.setflags(write=False)
    mats.setflags(write=False)
    return starts, mats


def resample(w: Waveform) -> Waveform:
    """Band-limited conversion to ``CANONICAL_RATE`` with a Kaiser-windowed sinc kernel.

    The output has exactly round(n * target/source) samples, so duration is
    preserved to within one sample period. Downsampling low-passes at the
    target Nyquist to avoid aliasing into the mel bands.

    Both rates are integers, so with g = gcd(source, target) output
    k = p + up*r (up = target/g, down = source/g, both scaled up to give at
    least one group of phases) sits at input position p*down/up + down*r:
    its kernel row is that of phase p, and its input window starts down*r
    samples after phase p's. Row r = m*s + i is sub-row i of row s; with
    m*down at least the width of a group's windows, the windows of one
    group and sub-row, over all s, are the rows of a strided view of the
    input that BLAS reads in place. One product of those views with the
    group's padded kernel matrix gives the group's outputs.
    """
    if w.sample_rate == CANONICAL_RATE:
        return w

    x = np.ascontiguousarray(w.samples, dtype=np.float64)
    n_in = len(x)
    ratio = CANONICAL_RATE / w.sample_rate
    n_out = int(round(n_in * ratio))
    g = math.gcd(w.sample_rate, CANONICAL_RATE)
    scale = -(-_GROUP // (CANONICAL_RATE // g))
    up, down = scale * CANONICAL_RATE // g, scale * w.sample_rate // g
    group = up if up < 2 * _GROUP else _GROUP
    n_taps = int(2 * _SINC_CROSSINGS / min(1.0, ratio)) + 2
    # The windows of a group start within ceil((group-1)*down/up) samples of
    # each other; one sample more covers a ceil that rounding moved up.
    width = n_taps + -(-(group - 1) * down // up) + (group > 1)
    m = -(-width // down)
    stride = m * down

    # out[s, i, p] is output p + up*(m*s + i); the last rows run past n_out.
    n_phases = min(up, n_out)
    n_rows = -(-n_out // (up * m))
    out = np.empty((n_rows, m, n_phases))
    block = max(1, _BLOCK_BYTES // (8 * group * width)) * group
    for p0 in range(0, n_phases, block):
        p1 = min(p0 + block, n_phases)
        if up <= block:  # one table holds every phase: built once per rate, also for a short output
            starts, mats = _phase_table(w.sample_rate, 0, up, group, n_taps, width)
        else:
            starts, mats = _phase_table.__wrapped__(w.sample_rate, p0, p1, group, n_taps, width)
        starts = starts[: -(-(p1 - p0) // group)].tolist()  # the groups of phases p0..p1-1
        # Row s of every group and sub-row reads reach samples from starts[0] + stride*s.
        reach = starts[-1] - starts[0] + (m - 1) * down + width
        inner_lo = min(n_rows, max(0, -(starts[0] // stride)))
        inner_hi = min(n_rows, max(inner_lo, (n_in - starts[0] - reach) // stride + 1))
        # Rows that read before or past the input read a zero-padded copy of
        # just their span; the rows between them read the input itself.
        for s0, s1 in ((0, inner_lo), (inner_lo, inner_hi), (inner_hi, n_rows)):
            if s0 == s1:
                continue
            lo = starts[0] + stride * s0
            hi = lo + stride * (s1 - s0 - 1) + reach
            if 0 <= lo and hi <= n_in:
                span, origin = x, 0
            else:
                span, origin = np.zeros(hi - lo), lo
                a = max(lo, 0)
                b = max(a, min(hi, n_in))
                span[a - lo : b - lo] = x[a:b]
            for k, start in enumerate(starts):
                g0, g1 = p0 + k * group, min(p0 + (k + 1) * group, p1)
                windows = np.ndarray(  # (sub-row, row, tap), read in place
                    (m, s1 - s0, width), buffer=span, offset=8 * (start + stride * s0 - origin),
                    strides=(8 * down, 8 * stride, 8),
                )
                np.matmul(windows, mats[k, : g1 - g0].T, out=out[s0:s1, :, g0:g1].transpose(1, 0, 2))
    return Waveform(samples=out.reshape(-1)[:n_out], sample_rate=CANONICAL_RATE)


def _mel_filterbank() -> np.ndarray:
    """(N_MEL_FILTERS, NFFT // 2 + 1) triangular filters spanning 0 Hz to the Nyquist rate."""

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_points = np.linspace(to_mel(0.0), to_mel(CANONICAL_RATE / 2.0), N_MEL_FILTERS + 2)
    bins = np.floor((NFFT + 1) * from_mel(mel_points) / CANONICAL_RATE).astype(int)
    fbank = np.zeros((N_MEL_FILTERS, NFFT // 2 + 1))
    for j in range(N_MEL_FILTERS):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            fbank[j, i] = (i - left) / max(center - left, 1)
        for i in range(center, right):
            fbank[j, i] = (right - i) / max(right - center, 1)
    return fbank


_PI_LONG = np.longdouble("3.141592653589793238462643383279502884197")  # pocketfft's pi literal


def _dct_twiddles() -> np.ndarray:
    """cos(2*pi*k / (4 * N_MEL_FILTERS)), k = 1..N_MEL_FILTERS-1, rounded as pocketfft rounds them.

    pocketfft's sincos_2pibyn(4N) rounds the long double step pi/(16N) to a
    double, takes cos and sin of octant-reduced multiples of it, and builds
    index k as the complex product of two table entries, k & mask and
    k & ~mask. np.cos(2 * np.pi * k / 104) misses 12 of these 25 values, by 1-9 ulp.
    """
    n = 4 * N_MEL_FILTERS
    ang = float(np.longdouble(0.25) * _PI_LONG / n)

    def cos_sin(k):  # first quadrant only: every k here is below n/4
        x = 8 * k
        if x < n:
            return math.cos(x * ang), math.sin(x * ang)
        return math.sin((2 * n - x) * ang), math.cos((2 * n - x) * ang)

    shift = 1
    while 1 << (2 * shift) < (n + 2) // 2:
        shift += 1
    mask = (1 << shift) - 1
    table = []
    for k in range(1, N_MEL_FILTERS):
        (r1, i1), (r2, i2) = cos_sin(k & mask), cos_sin(k & ~mask)
        table.append(r1 * r2 - i1 * i2)
    return np.array(table)


_MEL_FBANK = _mel_filterbank()
_HANN = np.hanning(_WIN)
_DCT_TWIDDLE = _dct_twiddles()
# Orthonormal scale 1/sqrt(2N), taken in long double as pocketfft takes it.
_DCT_SCALE = float(1 / np.sqrt(np.longdouble(2 * N_MEL_FILTERS)))
_MEL_FBANK.setflags(write=False)
_HANN.setflags(write=False)
_DCT_TWIDDLE.setflags(write=False)


def _cepstra(log_energies: np.ndarray) -> np.ndarray:
    """c0..c12 of the orthonormal DCT-II of each row of (T, N_MEL_FILTERS) log energies.

    Bit-equal to ``scipy.fft.dct(x, type=2, norm="ortho")[:, :N_CEPSTRA]``:
    it runs pocketfft's DCT-II operations in pocketfft's order, and
    ``np.fft.irfft`` is the same pocketfft real backward transform. Importing
    scipy.fft would cost about 0.3 s of every command's start-up.
    """
    n, x = N_MEL_FILTERS, log_energies
    # Edge doubling and the pair step c[k+1] -= c[k], c[k] += old c[k+1] for
    # odd k, written straight into the complex half-spectrum (real, imag pairs).
    spec = np.zeros((len(x), n + 2))
    spec[:, 0] = 2 * x[:, 0]
    odd, even = x[:, 1 : n - 1 : 2], x[:, 2 : n - 1 : 2]
    spec[:, 2:n:2] = odd + even
    spec[:, 3:n:2] = even - odd
    spec[:, n] = 2 * x[:, n - 1]
    c = np.fft.irfft(spec.view(np.complex128), n=n, norm="forward") * _DCT_SCALE
    # Butterfly of c[k] with c[n-k], k = 1..N_CEPSTRA-1; only the low outputs are kept.
    lo, hi = c[:, 1:N_CEPSTRA], c[:, n - 1 : n - N_CEPSTRA : -1]
    tw_lo, tw_hi = _DCT_TWIDDLE[: N_CEPSTRA - 1], _DCT_TWIDDLE[n - 2 : n - 1 - N_CEPSTRA : -1]
    t1 = tw_lo * hi + tw_hi * lo
    t2 = tw_lo * lo - tw_hi * hi
    out = np.empty((len(x), N_CEPSTRA))
    out[:, 0] = c[:, 0] * (math.sqrt(2) * 0.5)
    out[:, 1:] = 0.5 * (t1 + t2)
    return out


def mfcc(w: Waveform) -> MfccFrames:
    """13 mel-frequency cepstral coefficients per 10 ms frame.

    Pipeline: pre-emphasis 0.97, 25 ms Hann window with 10 ms hop, power
    spectrum, 26 triangular mel filters over 0-8000 Hz, log with an absolute
    floor, then an orthonormal DCT-II keeping c0..c12. Only complete windows
    produce frames: T = floor((n - win) / hop) + 1.
    """
    if w.sample_rate != CANONICAL_RATE:
        raise ValueError(f"mfcc expects {CANONICAL_RATE} Hz input, got {w.sample_rate}")
    x = np.asarray(w.samples, dtype=np.float64)
    if len(x) < _WIN:
        raise DataError(f"audio shorter than one analysis window ({_WIN} samples)")

    emphasized = np.concatenate(([x[0]], x[1:] - PREEMPHASIS * x[:-1]))
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, _WIN)[::_HOP]
    spectrum = np.fft.rfft(frames * _HANN, n=NFFT)
    power = (spectrum.real**2 + spectrum.imag**2) / NFFT

    energies = power @ _MEL_FBANK.T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    return MfccFrames(frames=_cepstra(log_energies), source_duration=w.duration)
