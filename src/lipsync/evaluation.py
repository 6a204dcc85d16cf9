"""Landmark-based error metrics and trajectory export.

Designated mesh vertices stand in for detected 2D landmarks: posed vertices
are orthographically projected onto the XY plane at a configurable pixel
scale (v axis flipped to image convention). Errors are mean Euclidean
distances, pooled over frames and landmarks; the velocity variant compares
backward frame differences and therefore ignores any constant offset.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .mesh import DisplacementSequence, TemplateMesh
from .model import NetworkParams, predictions

METRIC_KEYS = ("pos_all", "pos_lip", "vel_all", "vel_lip")
_METRIC_LABELS = {
    "pos_all": "position error, all landmarks (px)",
    "pos_lip": "position error, lip landmarks (px)",
    "vel_all": "velocity error, all landmarks (px/frame)",
    "vel_lip": "velocity error, lip landmarks (px/frame)",
}


@dataclass(frozen=True)
class ProjectionConfig:
    px_per_unit: float = 100.0

    def __post_init__(self):
        if not (math.isfinite(self.px_per_unit) and self.px_per_unit > 0):
            raise ConfigError("px_per_unit must be finite and positive")


@dataclass
class EvalReport:
    pos_all: float
    pos_lip: float
    vel_all: float
    vel_lip: float
    per_sentence: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def project_landmarks(
    mesh: TemplateMesh, d: DisplacementSequence, cfg: ProjectionConfig = ProjectionConfig()
) -> np.ndarray:
    """Pixel trajectories (T, L, 2) of the landmark vertices across an animation."""
    if d.n_vertices != mesh.n_vertices:
        raise DataError(
            f"animation has {d.n_vertices} vertices, mesh has {mesh.n_vertices}"
        )
    lm = mesh.landmarks
    posed = mesh.vertices[None, lm, :] + np.asarray(d.frames, dtype=np.float64)[:, lm, :]
    s = cfg.px_per_unit
    # v is flipped to image convention; 0.0 - y keeps an exact zero at +0.0
    traj = np.stack([posed[:, :, 0] * s, (0.0 - posed[:, :, 1]) * s], axis=2)
    if not np.isfinite(traj).all():
        raise DataError(f"landmark pixel coordinates overflow at {s} px per unit")
    return traj


def _distances(pred_traj, truth_traj):
    """Per (frame, landmark) position distances, and velocity distances from the second frame."""
    p = np.asarray(pred_traj, dtype=np.float64)
    y = np.asarray(truth_traj, dtype=np.float64)
    if p.shape != y.shape:
        raise DataError(f"trajectory shapes differ: {p.shape} vs {y.shape}")
    return np.linalg.norm(p - y, axis=2), np.linalg.norm((p[1:] - p[:-1]) - (y[1:] - y[:-1]), axis=2)


def positional_error(pred_traj: np.ndarray, truth_traj: np.ndarray) -> float:
    """Mean Euclidean landmark distance over all frames and landmarks."""
    return float(_distances(pred_traj, truth_traj)[0].mean())


def velocity_error(pred_traj: np.ndarray, truth_traj: np.ndarray) -> float:
    """Mean distance between backward frame differences, from the second frame."""
    vel = _distances(pred_traj, truth_traj)[1]
    if not len(vel):
        raise DataError("velocity error needs at least two frames")
    return float(vel.mean())


def lip_trajectory_csv(traj: np.ndarray, landmark: int, path) -> None:
    """Write `frame,v_pixels` rows for one landmark's vertical pixel motion."""
    traj = np.asarray(traj)
    if not 0 <= landmark < traj.shape[1]:
        raise ConfigError(f"landmark index {landmark} is outside the {traj.shape[1]} landmarks")
    lines = ["frame,v_pixels"]
    lines += [f"{t},{float(traj[t, landmark, 1])!r}" for t in range(len(traj))]
    Path(path).write_text("\n".join(lines) + "\n")


def _lip_columns(mesh: TemplateMesh) -> np.ndarray:
    """Positions of the lip-flagged landmarks in the landmark list; there must be some."""
    flagged = np.flatnonzero(mesh.lip_mask)
    if not len(flagged):
        raise DataError("mesh has no lip-flagged landmarks")
    return flagged


def default_lip_landmark(mesh: TemplateMesh) -> int:
    """Position of the upper-lip-middle point in the landmark list."""
    return int(_lip_columns(mesh)[0])


def _aggregate(mesh: TemplateMesh, samples, predictions, cfg: ProjectionConfig) -> EvalReport:
    """Landmark metrics of each sample's prediction against ground truth, pooled over every
    (frame, landmark) pair so that long sentences weigh more. ``predictions`` yields
    ``(j, prediction of samples[j])`` in any order; every sum is taken in sample order."""
    if not samples:
        raise DataError("no samples to score")
    lip_cols = _lip_columns(mesh)
    for s in samples:
        if s.displacements.n_frames < 2:
            raise DataError(
                f"sentence {s.id!r} has {s.displacements.n_frames} frame(s); velocity error needs at least two"
            )
    sums = [None] * len(samples)  # per sample, a (sum, size) pair per metric
    for j, pred in predictions:
        dist, vel = _distances(
            project_landmarks(mesh, pred, cfg=cfg), project_landmarks(mesh, samples[j].displacements, cfg=cfg)
        )
        del pred  # otherwise it lives on while the next batch runs
        sums[j] = [(d.sum(), d.size) for d in (dist, dist[:, lip_cols], vel, vel[:, lip_cols])]  # METRIC_KEYS order

    totals = {k: [0.0, 0] for k in METRIC_KEYS}
    per_sentence = {}
    for s, pairs in zip(samples, sums):
        per_sentence[s.id] = {k: total / size for k, (total, size) in zip(METRIC_KEYS, pairs)}
        for k, (total, size) in zip(METRIC_KEYS, pairs):
            totals[k][0] += total
            totals[k][1] += size

    pooled = {k: totals[k][0] / totals[k][1] for k in METRIC_KEYS}
    if not np.isfinite(list(pooled.values())).all():
        raise DataError(f"landmark errors overflow at {cfg.px_per_unit} px per unit")
    return EvalReport(per_sentence=per_sentence, **pooled)


def evaluate(
    net: NetworkParams,
    mesh: TemplateMesh,
    samples,
    cfg: ProjectionConfig = ProjectionConfig(),
) -> EvalReport:
    """Run inference on every sample and aggregate the four landmark metrics."""
    if net.vertex_count != mesh.n_vertices:
        raise DataError(
            f"checkpoint decodes {net.vertex_count} vertices, mesh has {mesh.n_vertices}"
        )
    return _aggregate(mesh, samples, predictions(net, [s.features for s in samples]), cfg)


def evaluate_self(mesh: TemplateMesh, samples, cfg: ProjectionConfig = ProjectionConfig()) -> EvalReport:
    """Ground truth against itself; a correct pipeline reports all zeros."""
    return _aggregate(mesh, samples, enumerate(s.displacements for s in samples), cfg)


def format_table(reports: dict) -> str:
    """Side-by-side error table, one column per model label."""
    labels = list(reports)
    name_width = max(len(_METRIC_LABELS[k]) for k in METRIC_KEYS)
    col_width = max(12, *(len(lab) + 2 for lab in labels))
    header = " " * name_width + "".join(lab.rjust(col_width) for lab in labels)
    lines = [header, "-" * len(header)]
    for key in METRIC_KEYS:
        cells = "".join(f"{getattr(reports[lab], key):.3f}".rjust(col_width) for lab in labels)
        lines.append(_METRIC_LABELS[key].ljust(name_width) + cells)
    return "\n".join(lines)
