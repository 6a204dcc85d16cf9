"""Landmark-based error metrics and trajectory export.

Designated mesh vertices stand in for detected 2D landmarks: posed vertices
are orthographically projected onto the XY plane at a configurable pixel
scale (v axis flipped to image convention). Errors are mean Euclidean
distances, pooled over frames and landmarks; the velocity variant compares
backward frame differences and therefore ignores any constant offset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InsufficientFramesError, ShapeError
from .mesh import DisplacementSequence, TemplateMesh
from .model import NetworkParams, forward

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
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.px_per_unit <= 0:
            raise ConfigError("px_per_unit must be positive")


@dataclass
class EvalReport:
    pos_all: float
    pos_lip: float
    vel_all: float
    vel_lip: float
    per_sentence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "pos_all": self.pos_all,
            "pos_lip": self.pos_lip,
            "vel_all": self.vel_all,
            "vel_lip": self.vel_lip,
            "per_sentence": self.per_sentence,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def project_landmarks(
    mesh: TemplateMesh,
    d: DisplacementSequence,
    indices=None,
    cfg: ProjectionConfig = ProjectionConfig(),
) -> np.ndarray:
    """Pixel trajectories (T, L, 2) of the landmark vertices across an animation."""
    if indices is None:
        indices = mesh.landmarks
    indices = np.asarray(indices, dtype=int)
    if len(indices) and (indices.min() < 0 or indices.max() >= mesh.n_vertices):
        raise IndexError(f"landmark index out of range 0..{mesh.n_vertices - 1}")
    if d.n_vertices != mesh.n_vertices:
        raise ShapeError(
            f"animation has {d.n_vertices} vertices, mesh has {mesh.n_vertices}"
        )
    posed = mesh.vertices[None, indices, :] + np.asarray(d.frames, dtype=np.float64)[:, indices, :]
    s = cfg.px_per_unit
    u = posed[:, :, 0] * s + cfg.origin[0]
    v = -posed[:, :, 1] * s + cfg.origin[1]
    return np.stack([u, v], axis=2)


def _distances(pred_traj, truth_traj):
    """Per (frame, landmark) position distances, and velocity distances from the second frame."""
    p = np.asarray(pred_traj, dtype=np.float64)
    y = np.asarray(truth_traj, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError(f"trajectory shapes differ: {p.shape} vs {y.shape}")
    return np.linalg.norm(p - y, axis=2), np.linalg.norm((p[1:] - p[:-1]) - (y[1:] - y[:-1]), axis=2)


def positional_error(pred_traj: np.ndarray, truth_traj: np.ndarray) -> float:
    """Mean Euclidean landmark distance over all frames and landmarks."""
    return float(_distances(pred_traj, truth_traj)[0].mean())


def velocity_error(pred_traj: np.ndarray, truth_traj: np.ndarray) -> float:
    """Mean distance between backward frame differences, from the second frame."""
    vel = _distances(pred_traj, truth_traj)[1]
    if not len(vel):
        raise InsufficientFramesError("velocity error needs at least two frames")
    return float(vel.mean())


def lip_trajectory_csv(traj: np.ndarray, landmark: int, path) -> None:
    """Write `frame,v_pixels` rows for one landmark's vertical pixel motion."""
    traj = np.asarray(traj)
    if not 0 <= landmark < traj.shape[1]:
        raise IndexError(f"unknown landmark id {landmark}, trajectory has {traj.shape[1]}")
    lines = ["frame,v_pixels"]
    lines += [f"{t},{float(traj[t, landmark, 1])!r}" for t in range(len(traj))]
    Path(path).write_text("\n".join(lines) + "\n")


def default_lip_landmark(mesh: TemplateMesh) -> int:
    """Position of the upper-lip-middle point in the landmark list."""
    flagged = np.flatnonzero(mesh.lip_mask)
    if not len(flagged):
        raise ShapeError("mesh has no lip-flagged landmarks")
    return int(flagged[0])


def _aggregate(mesh: TemplateMesh, samples, predict, cfg: ProjectionConfig) -> EvalReport:
    """Landmark metrics of ``predict(sample)`` against ground truth, pooled over every
    (frame, landmark) pair so that long sentences weigh more."""
    if not samples:
        raise DataError("no samples to score")
    lip_cols = np.flatnonzero(mesh.lip_mask)
    totals = {k: [0.0, 0] for k in METRIC_KEYS}
    per_sentence = {}
    for s in samples:
        dist, vel = _distances(
            project_landmarks(mesh, predict(s), cfg=cfg), project_landmarks(mesh, s.displacements, cfg=cfg)
        )
        sums = {
            "pos_all": (dist.sum(), dist.size),
            "pos_lip": (dist[:, lip_cols].sum(), dist[:, lip_cols].size),
            "vel_all": (vel.sum(), vel.size),
            "vel_lip": (vel[:, lip_cols].sum(), vel[:, lip_cols].size),
        }
        per_sentence[s.id] = {k: sums[k][0] / sums[k][1] for k in METRIC_KEYS}
        for k in METRIC_KEYS:
            totals[k][0] += sums[k][0]
            totals[k][1] += sums[k][1]

    pooled = {k: (totals[k][0] / totals[k][1] if totals[k][1] else 0.0) for k in METRIC_KEYS}
    return EvalReport(per_sentence=per_sentence, **pooled)


def evaluate(
    net: NetworkParams,
    mesh: TemplateMesh,
    samples,
    cfg: ProjectionConfig = ProjectionConfig(),
) -> EvalReport:
    """Run inference on every sample and aggregate the four landmark metrics."""
    if net.vertex_count != mesh.n_vertices:
        raise ShapeError(
            f"checkpoint decodes {net.vertex_count} vertices, mesh has {mesh.n_vertices}"
        )
    return _aggregate(mesh, samples, lambda s: forward(net, s.features), cfg)


def evaluate_self(mesh: TemplateMesh, samples, cfg: ProjectionConfig = ProjectionConfig()) -> EvalReport:
    """Ground truth against itself; a correct pipeline reports all zeros."""
    return _aggregate(mesh, samples, lambda s: s.displacements, cfg)


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
