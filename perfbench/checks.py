"""Output checks, written against the file formats rather than the program's
own loaders. Each raises ``CheckFailed`` with a one-line reason."""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

CANONICAL_RATE = 16000
FPS = 60
EVAL_KEYS = ("pos_all", "pos_lip", "vel_all", "vel_lip")


class CheckFailed(Exception):
    pass


def expected_frames(samples: int, rate: int) -> int:
    """round(60 T) for the 16 kHz signal the front end analyses.

    A clip at another rate becomes exactly round(n * 16000 / rate) samples
    (``audio.resample``'s contract), which moves T by under one 16 kHz sample.
    """
    n16 = samples if rate == CANONICAL_RATE else int(round(samples * (CANONICAL_RATE / rate)))
    return int(round(FPS * (n16 / CANONICAL_RATE)))


def check_anim(path, frames: int, vertices: int) -> None:
    """LSA1 with exactly ``frames`` x ``vertices`` x 3 finite offsets at 60 fps."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != b"LSA1":
        raise CheckFailed(f"{path}: not an LSA1 file")
    t, v, fps = struct.unpack_from("<III", raw, 4)
    if (t, v, fps) != (frames, vertices, FPS):
        raise CheckFailed(f"{path}: header {t}x{v}@{fps}, want {frames}x{vertices}@{FPS}")
    if len(raw) != 16 + 12 * t * v:
        raise CheckFailed(f"{path}: {len(raw)} bytes, want {16 + 12 * t * v}")
    if not np.isfinite(np.frombuffer(raw, dtype="<f4", offset=16)).all():
        raise CheckFailed(f"{path}: non-finite offsets")


def read_metrics_csv(path, epochs: int) -> float:
    """Finite `epoch,split,lp,lv,total` rows, train and val per epoch; returns
    the last val total."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["epoch", "split", "lp", "lv", "total"]:
        raise CheckFailed(f"{path}: bad header")
    body = rows[1:]
    want = [[str(e), split] for e in range(1, epochs + 1) for split in ("train", "val")]
    if [row[:2] for row in body] != want or any(len(row) != 5 for row in body):
        raise CheckFailed(f"{path}: rows {[row[:2] for row in body]}, want {want}")
    try:
        values = [float(x) for row in body for x in row[2:]]
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}")
    if not all(math.isfinite(x) for x in values):
        raise CheckFailed(f"{path}: non-finite loss")
    return values[-1]


def read_eval_json(path, items: int) -> dict:
    """Finite pooled and per-sentence metrics for ``items`` sentences."""
    try:
        report = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}")
    per_sentence = report.get("per_sentence", {}) if isinstance(report, dict) else {}
    if len(per_sentence) != items:
        raise CheckFailed(f"{path}: {len(per_sentence)} sentences, want {items}")
    for entry in [report, *per_sentence.values()]:
        values = [entry.get(k) for k in EVAL_KEYS]
        if not all(isinstance(x, float) and math.isfinite(x) for x in values):
            raise CheckFailed(f"{path}: non-finite or missing metric in {values}")
    return report
