"""Per-video-frame speech features for the animation network.

The production front end of choice would be a pretrained speech recognizer
emitting 29 character probabilities per frame. Here that role is filled by
a seeded surrogate: context-averaged MFCCs pushed through a fixed random
affine map and a softmax. Real recognizer output can be dropped in through
the ``EXTERNAL`` feature-file kind without code changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import MFCC_FRAME_RATE, N_CEPSTRA, MfccFrames, load_wav, mfcc, resample
from .container import Format
from .errors import DataError, FileFormatError

FEATURE_FPS = 60
CHAR_PROB_DIM = 29  # 26 letters + apostrophe + space + blank

FEATURE_MAGIC = b"LSF1"
_LSF1 = Format(FEATURE_MAGIC, "<IIIB")  # T, D, fps, kind
_CONTEXT = 2  # MFCC frames averaged on each side before projection
# The logit scale trades softmax confidence against smoothness; 0.25 gives
# confident rows that still move with the cepstral content.
_LOGIT_SCALE = 0.25


class FeatureKind(enum.IntEnum):
    CHAR_PROB_SURROGATE = 0
    # 1 is reserved: it marked raw MFCC rows, which no network reads, so
    # load_features refuses a file of that kind.
    EXTERNAL = 2


@dataclass(frozen=True)
class FeatureSequence:
    """T x D feature rows at a fixed animation frame rate."""

    data: np.ndarray
    fps: int = FEATURE_FPS
    kind: FeatureKind = FeatureKind.CHAR_PROB_SURROGATE

    @property
    def n_frames(self) -> int:
        return len(self.data)

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SurrogateProvider:
    """Fixed random projection standing in for a recognizer front end.

    ``_CONTEXT`` MFCC frames on each side are averaged before projection, a
    cheap nod to the temporal receptive field of the network it replaces.
    """

    projection: np.ndarray  # (N_CEPSTRA, CHAR_PROB_DIM)
    bias: np.ndarray  # (CHAR_PROB_DIM,)

    @classmethod
    def seeded(cls, seed: int):
        rng = np.random.default_rng(seed)
        projection = rng.standard_normal((N_CEPSTRA, CHAR_PROB_DIM)) * _LOGIT_SCALE
        bias = rng.standard_normal(CHAR_PROB_DIM) * 0.1
        return cls(projection=projection, bias=bias)


def resample_features(data: np.ndarray, duration: float) -> np.ndarray:
    """Linear time interpolation of MFCC_FRAME_RATE feature rows onto the FEATURE_FPS frame grid.

    Output row k is the source signal evaluated at time k / FEATURE_FPS,
    clamped to the source's frame range, for k = 0 .. round(FEATURE_FPS * duration)-1.
    Rows on the probability simplex stay on it: every output row is a
    convex combination of two inputs.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) < 2:
        raise DataError("feature resampling needs at least two rows")
    n_out = int(round(FEATURE_FPS * duration))
    times = np.arange(n_out) / FEATURE_FPS
    pos = np.clip(times * MFCC_FRAME_RATE, 0.0, len(data) - 1.0)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, len(data) - 1)
    frac = (pos - lo)[:, None]
    return (1.0 - frac) * data[lo] + frac * data[hi]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _context_average(frames: np.ndarray, before: int, after: int) -> np.ndarray:
    """Mean of each row with up to ``before`` rows before it and ``after``
    rows after it, clamped at the ends.

    Makes the sum ``mean`` makes, vectorized over rows: from +0.0 (so an all
    -0.0 window gives +0.0, as ``mean`` does) each row adds the rows of its
    window in row order, then divides by how many there were.
    """
    n = len(frames)
    acc = np.zeros_like(frames)
    count = np.zeros(n)
    for k in range(-before, after + 1):
        lo, hi = max(0, -k), min(n, n - k)  # rows i with 0 <= i + k < n
        if lo < hi:
            acc[lo:hi] += frames[lo + k : hi + k]
            count[lo:hi] += 1
    return acc / count[:, None]


def surrogate_features(m: MfccFrames, provider: SurrogateProvider) -> FeatureSequence:
    """Character-probability style rows from MFCCs, resampled to 60 fps."""
    averaged = _context_average(np.asarray(m.frames, dtype=np.float64), _CONTEXT, _CONTEXT)
    logits = averaged @ provider.projection + provider.bias
    simplex = _softmax_rows(logits)
    data = resample_features(simplex, m.source_duration)
    return FeatureSequence(data=data, fps=FEATURE_FPS, kind=FeatureKind.CHAR_PROB_SURROGATE)


def features_from_wav(path, provider: SurrogateProvider) -> FeatureSequence:
    """Full front end: load WAV, resample to 16 kHz, MFCC, surrogate rows."""
    return surrogate_features(mfcc(resample(load_wav(path))), provider)


def save_features(f: FeatureSequence, path) -> None:
    """Write the LSF1 container: magic | u32 T | u32 D | u32 fps | u8 kind | f32 rows."""
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, which the write refuses
        data = np.ascontiguousarray(f.data, dtype="<f4")
    _LSF1.write(path, (*data.shape, int(f.fps), int(f.kind)), data)


def load_features(path) -> FeatureSequence:
    path = Path(path)
    with _LSF1.open(path) as (fh, size, (t, d, fps, kind_code)):
        try:
            kind = FeatureKind(kind_code)
        except ValueError:
            raise FileFormatError(f"unknown feature kind {kind_code}", path=str(path), offset=16)
        return FeatureSequence(data=_LSF1.array(fh, size, path, (t, d)), fps=int(fps), kind=kind)
