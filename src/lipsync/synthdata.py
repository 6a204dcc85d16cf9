"""Deterministic synthetic corpus: procedural head plus a feature-driven oracle.

Ground-truth displacements are produced from the speech features themselves
through a smooth causal map (feature -> articulation code -> mouth-weighted
offset basis), so the corpus is learnable by construction and every run is
reproducible from its seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, HOP_SECONDS, WINDOW_SECONDS, Waveform, mfcc
from .errors import ConfigError, DataError, FileFormatError
from .features import (
    CHAR_PROB_DIM,
    FeatureSequence,
    SurrogateProvider,
    _context_average,
    load_features,
    save_features,
    surrogate_features,
)
from .mesh import DisplacementSequence, TemplateMesh, load_anim, save_anim

# Head frame: x right, y up, z out of the face.
_SEMI_AXES = np.array([0.55, 0.68, 0.60])
_MOUTH_DIR = np.array([0.0, -0.35, 0.93])
_LIP_RADIUS = 0.30
_N_CODES = 8  # articulation codes K
_READOUT_SCALE = 0.25
# Shortest sentence that gives two MFCC frames, the fewest that feature resampling takes.
_MIN_DURATION = WINDOW_SECONDS + HOP_SECONDS
# Longest sentence; a sentence's audio and feature arrays grow with it.
_MAX_DURATION = 60.0
# Most vertices of a generated head, ten times FLAME's 5023; every LSA1 file,
# the decoder and each training step grow with it.
_MAX_VERTICES = 50_000
DURATION_RANGE = (0.8, 1.6)  # default sentence durations, seconds
SPLIT_RATIO = (18, 1, 1)  # default train/val/test proportions

# Canonical landmark directions; the first 8 are the lip set, upper-lip-middle
# first so trajectory tools can pick it by convention.
_LIP_DIRS = [
    (0.00, -0.28, 0.94),  # upper lip middle
    (0.00, -0.44, 0.88),  # lower lip middle
    (-0.20, -0.35, 0.90),  # left corner
    (0.20, -0.35, 0.90),  # right corner
    (-0.09, -0.29, 0.93),
    (0.09, -0.29, 0.93),
    (-0.09, -0.43, 0.89),
    (0.09, -0.43, 0.89),
]
_FACE_DIRS = [
    (-0.35, 0.30, 0.85),  # eyes
    (0.35, 0.30, 0.85),
    (-0.35, 0.46, 0.78),  # brows
    (0.35, 0.46, 0.78),
    (0.00, -0.05, 1.00),  # nose tip
    (0.00, 0.16, 0.95),  # nose bridge
    (0.00, -0.80, 0.55),  # chin
    (0.00, 0.72, 0.62),  # forehead
    (-0.62, -0.15, 0.70),  # cheeks
    (0.62, -0.15, 0.70),
    (-0.52, -0.55, 0.55),  # jaw
    (0.52, -0.55, 0.55),
]


@dataclass(frozen=True)
class OracleArticulator:
    """Maps feature rows to vertex offsets through K articulation codes.

    codes follow an exponential moving average of the projected features
    (code_t = a * code_{t-1} + (1-a) * readout^T f_t), which keeps the
    ground truth smooth; the offset basis concentrates on the lip region.

    ``anticipation`` > 0 averages that many upcoming feature frames into the
    projection, mimicking the mouth pre-shaping ahead of the sound. The
    default of 0 keeps the map strictly causal.
    """

    basis: np.ndarray  # (V*3, K), unit Frobenius norm per column
    readout: np.ndarray  # (D, K)
    smoothing: float = 0.6
    anticipation: int = 0

    @classmethod
    def seeded(
        cls,
        mesh: TemplateMesh,
        seed: int,
        smoothing: float = 0.6,
        anticipation: int = 0,
    ) -> "OracleArticulator":
        rng = np.random.default_rng(seed)
        v = mesh.n_vertices
        mouth_center = _MOUTH_DIR / np.linalg.norm(_MOUTH_DIR) * _SEMI_AXES
        dist = np.linalg.norm(mesh.vertices - mouth_center, axis=1)
        lip_mask = dist <= _LIP_RADIUS
        if not lip_mask.any():
            raise DataError("no vertices near the mouth; head too coarse for the oracle")

        weight = np.where(lip_mask, 1.0, 0.02)
        raw = rng.standard_normal((v, 3, _N_CODES)) * weight[:, None, None]
        flat = raw.reshape(v * 3, _N_CODES)
        flat = flat / np.linalg.norm(flat, axis=0, keepdims=True)
        readout = rng.standard_normal((CHAR_PROB_DIM, _N_CODES)) * _READOUT_SCALE
        return cls(basis=flat, readout=readout, smoothing=smoothing, anticipation=anticipation)


@dataclass
class CorpusItem:
    id: str
    features: str  # path relative to the manifest
    anim: str
    split: str
    duration: float | None = None  # seconds; written by generate_corpus, not read back


@dataclass
class Sample:
    """One corpus item: features paired with ground-truth displacements, frame for frame."""

    id: str
    features: FeatureSequence
    displacements: DisplacementSequence

    def __post_init__(self):
        if self.features.n_frames != self.displacements.n_frames:
            raise DataError(
                f"item {self.id!r}: {self.features.n_frames} feature frames vs "
                f"{self.displacements.n_frames} displacement frames"
            )


@dataclass
class CorpusManifest:
    items: list
    root: Path

    def split(self, name: str) -> list:
        return [item for item in self.items if item.split == name]

    def resolve(self, relpath: str) -> Path:
        return self.root / relpath

    def save(self, path) -> None:
        path = Path(path)
        lines = [json.dumps(asdict(item), sort_keys=True) for item in self.items]
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        path = Path(path)
        items = []
        for lineno, line in enumerate(FileFormatError.read_lines(path), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                text = {key: rec[key] for key in ("id", "features", "anim", "split")}
                if not all(isinstance(value, str) for value in text.values()):
                    raise TypeError("id, features, anim and split must be strings")
                items.append(CorpusItem(**text))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                # TypeError: not an object, or a non-string field; RecursionError: nested too deep to parse
                raise FileFormatError(f"bad manifest line: {exc}", path=str(path), line=lineno)
        ids = [item.id for item in items]
        if len(set(ids)) != len(ids):
            raise FileFormatError("duplicate item ids in manifest", path=str(path))
        return cls(items=items, root=path.parent)


def _fibonacci_directions(n: int) -> np.ndarray:
    idx = np.arange(n) + 0.5
    y = 1.0 - 2.0 * idx / n
    theta = np.pi * (1.0 + np.sqrt(5.0)) * idx
    r = np.sqrt(1.0 - y * y)
    return np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=1)


def make_head(v_target: int, seed: int = 0) -> TemplateMesh:
    """Procedural ellipsoid head with a denser lip patch and 20 landmarks."""
    if not 20 <= v_target <= _MAX_VERTICES:
        raise ConfigError(f"v_target must be in 20..{_MAX_VERTICES}, got {v_target}")
    rng = np.random.default_rng(seed)
    n_lip = max(8, v_target // 6)
    n_base = v_target - n_lip

    base = _fibonacci_directions(n_base)
    mouth = _MOUTH_DIR / np.linalg.norm(_MOUTH_DIR)
    cluster = mouth[None, :] + 0.22 * rng.standard_normal((n_lip, 3))
    cluster /= np.linalg.norm(cluster, axis=1, keepdims=True)
    dirs = np.vstack([base, cluster])
    vertices = dirs * _SEMI_AXES

    from scipy.spatial import ConvexHull  # only gen-corpus builds a head; at the top it adds 0.1 s to start-up

    faces = ConvexHull(vertices).simplices.astype(int)

    unit = vertices / np.linalg.norm(vertices, axis=1, keepdims=True)
    chosen: list[int] = []
    for target in _LIP_DIRS + _FACE_DIRS:
        t = np.asarray(target, dtype=float)
        t /= np.linalg.norm(t)
        scores = unit @ t
        scores[chosen] = -np.inf
        chosen.append(int(np.argmax(scores)))

    lip_mask = np.array([True] * len(_LIP_DIRS) + [False] * len(_FACE_DIRS))
    return TemplateMesh(
        vertices=vertices,
        faces=faces,
        landmarks=np.asarray(chosen, dtype=int),
        lip_mask=lip_mask,
    )


def articulate(oracle: OracleArticulator, feats: FeatureSequence) -> DisplacementSequence:
    """Ground-truth displacements for a feature sequence (EMA-smoothed codes)."""
    data = np.asarray(feats.data, dtype=np.float64)
    if data.shape[1] != oracle.readout.shape[0]:
        raise DataError(
            f"oracle readout expects {oracle.readout.shape[0]}-dim features, got {data.shape[1]}"
        )
    if oracle.anticipation > 0:
        data = _context_average(data, 0, oracle.anticipation)
    projected = data @ oracle.readout  # (T, K)
    codes = np.empty_like(projected)
    code = np.zeros(projected.shape[1])
    a = oracle.smoothing
    for t in range(len(projected)):
        code = a * code + (1.0 - a) * projected[t]
        codes[t] = code
    frames = (codes @ oracle.basis.T).reshape(len(codes), -1, 3)
    return DisplacementSequence(frames=frames, fps=feats.fps)


def synth_speech(duration: float, rng, sample_rate: int = CANONICAL_RATE) -> Waveform:
    """Speech-shaped test signal: 2-5 sine/noise bursts under a 4 Hz envelope."""
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    signal = np.zeros(n)
    for _ in range(int(rng.integers(2, 6))):
        length = rng.uniform(0.25, 0.8) * duration
        start = rng.uniform(0.0, max(duration - length, 1e-3))
        window = np.clip((t - start) / length, 0.0, 1.0)
        burst_win = np.sin(np.pi * np.clip(window, 0, 1)) * ((t >= start) & (t <= start + length))
        syllable = 0.5 * (1.0 - np.cos(2.0 * np.pi * 4.0 * t + rng.uniform(0, 2 * np.pi)))
        if rng.random() < 0.7:
            freq = rng.uniform(80.0, 2500.0)
            carrier = np.sin(2.0 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        else:
            carrier = rng.standard_normal(n) * 0.5
        signal += rng.uniform(0.3, 1.0) * burst_win * syllable * carrier
    peak = np.abs(signal).max()
    if peak > 0:
        signal *= 0.85 / peak
    return Waveform(samples=signal, sample_rate=sample_rate)


def split_counts(n: int, ratio=SPLIT_RATIO) -> tuple[int, int, int]:
    if n < 3:
        raise ConfigError("need at least 3 sentences, one per split")
    total = sum(ratio)
    n_val = max(1, int(round(n * ratio[1] / total)))
    n_test = max(1, int(round(n * ratio[2] / total)))
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ConfigError(f"split ratio {ratio} leaves no training items for n={n}")
    return n_train, n_val, n_test


def generate_corpus(
    out_dir,
    n_sentences: int,
    *,
    provider: SurrogateProvider,
    oracle: OracleArticulator,
    duration_range=DURATION_RANGE,
    seed: int = 0,
    split_ratio=SPLIT_RATIO,
) -> CorpusManifest:
    """Write paired feature/animation files plus a JSONL manifest.

    Every sentence gets its own RNG substream, so regeneration with the same
    seed reproduces each file bit for bit.
    """
    lo, hi = duration_range
    if not _MIN_DURATION <= lo <= hi <= _MAX_DURATION:  # false for NaN too
        raise ConfigError(
            f"sentence durations need {_MIN_DURATION} <= min <= max <= {_MAX_DURATION} seconds, got {lo}..{hi}"
        )
    n_train, n_val, n_test = split_counts(n_sentences, split_ratio)
    splits = ["train"] * n_train + ["val"] * n_val + ["test"] * n_test

    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "anims").mkdir(parents=True, exist_ok=True)

    items = []
    for i in range(n_sentences):
        rng = np.random.default_rng([seed, i])
        duration = float(rng.uniform(lo, hi))
        wav = synth_speech(duration, rng)
        feats = surrogate_features(mfcc(wav), provider)
        disp = articulate(oracle, feats)

        sid = f"s{i:04d}"
        feat_rel = f"features/{sid}.lsf1"
        anim_rel = f"anims/{sid}.lsa1"
        save_features(feats, out_dir / feat_rel)
        save_anim(disp, out_dir / anim_rel)
        items.append(
            CorpusItem(id=sid, features=feat_rel, anim=anim_rel, duration=duration, split=splits[i])
        )

    manifest = CorpusManifest(items=items, root=out_dir)
    manifest.save(out_dir / "corpus.jsonl")
    return manifest


def load_split(manifest: CorpusManifest, split: str) -> list[Sample]:
    """The Samples of one split of the corpus, in manifest order; each checks its own frame counts."""
    return [
        Sample(
            id=item.id,
            features=load_features(manifest.resolve(item.features)),
            displacements=load_anim(manifest.resolve(item.anim)),
        )
        for item in manifest.split(split)
    ]
