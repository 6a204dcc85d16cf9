"""Template head mesh, displacement animations, and their file formats.

Geometry travels as Wavefront OBJ (v/f records only). Animations travel in
the LSA1 binary container. Landmarks live in a plain-text sidecar, one
0-based vertex index per line, lip entries prefixed "lip:". Landmark order
is meaningful: the first lip entry is the upper-lip-middle point used for
trajectory plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import Format
from .errors import DataError, FileFormatError

ANIM_MAGIC = b"LSA1"
_LSA1 = Format(ANIM_MAGIC, "<III")  # T, V, fps


@dataclass(frozen=True)
class TemplateMesh:
    """Neutral-pose head: V vertices, triangle faces, designated landmarks."""

    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray  # (F, 3) int
    landmarks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    lip_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self):
        # Faces come from load_obj, which checks each index at its line, or
        # from make_head's hull; lip_mask is built beside the landmarks.
        v = len(self.vertices)
        if v < 4:
            raise DataError(f"mesh needs at least 4 vertices, got {v}")
        if len(self.landmarks):
            if self.landmarks.min() < 0 or self.landmarks.max() >= v:
                raise DataError("landmark index out of range")
            if len(np.unique(self.landmarks)) != len(self.landmarks):
                raise DataError("landmark indices must be unique")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class DisplacementSequence:
    """Per-frame vertex offsets from the template, T x V x 3 at a fixed fps."""

    frames: np.ndarray
    fps: int = 60

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def n_vertices(self) -> int:
        return self.frames.shape[1]


def load_landmarks(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    indices = []
    lip = []
    for lineno, line in enumerate(FileFormatError.read_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        is_lip = text.startswith("lip:")
        if is_lip:
            text = text[4:].strip()
        try:
            indices.append(int(text))
        except ValueError:
            raise FileFormatError(f"bad landmark index {text!r}", path=str(path), line=lineno)
        if not -(2**63) <= indices[-1] < 2**63:
            raise FileFormatError(f"landmark index {text} outside int64", path=str(path), line=lineno)
        lip.append(is_lip)
    return np.asarray(indices, dtype=int), np.asarray(lip, dtype=bool)


def save_landmarks(indices, lip_mask, path) -> None:
    lines = [f"lip:{i}" if flag else str(i) for i, flag in zip(indices, lip_mask)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_obj(path, landmark_path=None) -> TemplateMesh:
    """Parse v/f records; polygons are fan-triangulated.

    A face names vertices defined above it: index k > 0 is the k-th vertex
    of the file, and k < 0 counts back from the last vertex before the face.
    """
    path = Path(path)
    vertices = []
    faces = []
    for lineno, line in enumerate(FileFormatError.read_lines(path), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise FileFormatError("vertex record needs 3 coordinates", path=str(path), line=lineno)
            try:
                xyz = [float(value) for value in parts[1:4]]
            except ValueError:
                raise FileFormatError(f"non-numeric vertex {line.strip()!r}", path=str(path), line=lineno)
            if not all(map(math.isfinite, xyz)):
                raise FileFormatError(f"non-finite vertex {line.strip()!r}", path=str(path), line=lineno)
            vertices.append(xyz)
        elif tag == "f":
            corner = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    idx = int(head)
                except ValueError:
                    raise FileFormatError(f"non-numeric face index {head!r}", path=str(path), line=lineno)
                if idx < 0:
                    idx += len(vertices) + 1
                if not 1 <= idx <= len(vertices):
                    raise FileFormatError(
                        f"face index {head} out of range 1..{len(vertices)}", path=str(path), line=lineno
                    )
                corner.append(idx - 1)
            if len(corner) < 3:
                raise FileFormatError("face needs at least 3 indices", path=str(path), line=lineno)
            faces += [(corner[0], a, b) for a, b in zip(corner[1:-1], corner[2:])]
        # everything else (vn, vt, o, g, usemtl, ...) is ignored

    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=int).reshape(-1, 3)
    if landmark_path is None:
        return TemplateMesh(vertices=vertices, faces=faces)
    landmarks, lip_mask = load_landmarks(landmark_path)
    return TemplateMesh(vertices=vertices, faces=faces, landmarks=landmarks, lip_mask=lip_mask)


def vertex_lines(vertices) -> str:
    """OBJ ``v`` records of a (V, 3) array, 8 decimals, one format call."""
    return ("v %.8f %.8f %.8f\n" * len(vertices)) % tuple(np.ravel(vertices).tolist())


def face_lines(faces) -> str:
    """OBJ ``f`` records of a (F, 3) array of 0-based indices, one format call."""
    return ("f %d %d %d\n" * len(faces)) % tuple((np.ravel(faces) + 1).tolist())


def save_obj(mesh: TemplateMesh, path, landmark_path=None) -> None:
    Path(path).write_text(vertex_lines(mesh.vertices) + face_lines(mesh.faces))
    if landmark_path is not None and len(mesh.landmarks):
        save_landmarks(mesh.landmarks, mesh.lip_mask, landmark_path)


def apply_displacements(template: TemplateMesh, d: DisplacementSequence) -> np.ndarray:
    """Posed vertices per frame: template + offset, elementwise."""
    if d.n_vertices != template.n_vertices:
        raise DataError(
            f"animation has {d.n_vertices} vertices, template has {template.n_vertices}"
        )
    return template.vertices[None, :, :] + np.asarray(d.frames)


def save_anim(d: DisplacementSequence, path) -> None:
    """Write the LSA1 container: magic | u32 T | u32 V | u32 fps | f32 offsets."""
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, which the write refuses
        frames = np.ascontiguousarray(d.frames, dtype="<f4")
    t, v, _ = frames.shape
    _LSA1.write(path, (t, v, int(d.fps)), frames)


def load_anim(path) -> DisplacementSequence:
    path = Path(path)
    with _LSA1.open(path) as (fh, size, (t, v, fps)):
        return DisplacementSequence(frames=_LSA1.array(fh, size, path, (t, v, 3)), fps=int(fps))
