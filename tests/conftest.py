import os

# One BLAS thread for the whole suite: the second thread only spins here. It
# must be set before numpy is first imported; an explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math
import struct
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from lipsync import evaluation, features, mesh, model, synthdata
from lipsync.errors import FileFormatError
from lipsync.model import ArchConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from run_ablation import ABLATION, build_corpus, run_matrix  # noqa: E402

# Reduced stack for gradient checks and fast unit tests: conv channels 4,
# LSTM 6/6/3/3, small dense head, 5 vertices.
TINY_ARCH = ArchConfig(conv_channels=4, lstm_sizes=(6, 6, 3, 3), fc1_size=10, embedding_size=6)
TINY_ARCH_NO_CONV = ArchConfig(conv_channels=0, lstm_sizes=(6, 6, 3, 3), fc1_size=10, embedding_size=6)


def tiny_net(seed=0, vertices=5, conv=True):
    return model.init_params(seed, vertices, TINY_ARCH if conv else TINY_ARCH_NO_CONV)


# Tiny networks whose LSN1 files are consistent with an input 13 wide
# (through conv1 or, without convs, lstm1) or with 3-wide conv kernels.
OTHER_WIDTHS = ["conv-13-wide", "lstm-13-wide", "kernel-3"]


def other_width_tensors(defect):
    """(name bytes, array) pairs of a tiny network with the ``defect`` of
    ``OTHER_WIDTHS``: no command writes such a file."""
    named = []
    for name, arr in tiny_net(conv=defect != "lstm-13-wide").items():
        if defect == "conv-13-wide" and name == "conv1.kernels":
            arr = arr[:, :13]
        elif defect == "lstm-13-wide" and name.startswith("lstm1.W_"):
            arr = arr[:, :-16]
        elif defect == "kernel-3" and name.endswith(".kernels"):
            arr = arr[:, :, 1:4]
        named.append((name.encode(), arr))
    return named


def random_features(rng, t_len, dim=29):
    return features.FeatureSequence(data=rng.standard_normal((t_len, dim)) * 0.5)


def write_lsn1(path, vertex_count, named):
    """LSN1 bytes from (name bytes, array) pairs, written independently of save_checkpoint."""
    blobs = [b"LSN1", struct.pack("<II", vertex_count, len(named))]
    for name, arr in named:
        blobs += [struct.pack("<I", len(name)), name, struct.pack("<I", arr.ndim)]
        blobs += [struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f8").tobytes()]
    path.write_bytes(b"".join(blobs))


def reference_load(path):
    """(V, arch, flat) of an LSN1 file: the reference for ``model.load_checkpoint``.

    Parses the whole file from its bytes, one tensor at a time, checking
    each payload for NaN and inf as it is read; a later tensor of a name
    replaces an earlier one. Raises the loader's FileFormatError for each
    defect, with its message and byte offset.
    """
    raw = Path(path).read_bytes()

    def fail(message, offset=None):
        return FileFormatError(message, path=str(path), offset=offset)

    if len(raw) < 12:
        raise fail("file too short for header", 0)
    if raw[:4] != b"LSN1":
        raise fail("bad magic, expected LSN1", 0)
    vertex_count, n_tensors = struct.unpack_from("<II", raw, 4)
    tensors = {}
    pos = 12
    for _ in range(n_tensors):
        start = pos
        try:
            (name_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos : pos + name_len].decode()
            pos += name_len
            (rank,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
        except struct.error:
            raise fail("truncated tensor table", pos)
        except UnicodeDecodeError:
            raise fail("tensor name is not UTF-8", pos)
        if not 1 <= rank <= 3 or 0 in dims:
            raise fail(f"tensor {name!r} has dims {dims}", start)
        count = math.prod(dims)
        if len(raw) - pos < 8 * count:
            raise fail("truncated tensor payload", pos)
        values = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(dims)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise fail("non-finite value in payload", pos + 8 * int(bad[0]))
        tensors[name] = values
        pos += 8 * count

    def rows(name):
        if name not in tensors:
            raise fail(f"missing tensor {name}")
        return tensors[name].shape[0]

    n_lstm = 0
    while f"lstm{n_lstm + 1}.W_f" in tensors:
        n_lstm += 1
    arch = ArchConfig(
        conv_channels=rows("conv1.kernels") if "conv1.kernels" in tensors else 0,
        lstm_sizes=tuple(rows(f"lstm{n}.W_f") for n in range(1, n_lstm + 1)),
        fc1_size=rows("fc1.weight"),
        embedding_size=rows("fc2.weight"),
    )
    layout = model._tensors(arch, vertex_count)
    for name, shape in layout:
        if name not in tensors:
            raise fail(f"missing tensor {name}")
        if tensors[name].shape != shape:
            message = f"tensor {name} has shape {tensors[name].shape}, the layout needs {shape}"
            if sum(math.prod(s) for _, s in layout) > sum(a.size for a in tensors.values()):
                message = f"tensor shapes describe a network larger than the payload: {message}"
            raise fail(message)
    unexpected = set(tensors) - {name for name, _ in layout}
    if unexpected:
        raise fail(f"unexpected tensor {min(unexpected)}")
    net = model._bind(arch, vertex_count)
    for name, view in net.items():
        view[...] = tensors[name]
    return vertex_count, arch, net.flat


def reference_load_container(path, magic: bytes, header: str, shape_of):
    """(header fields, payload) of an LSF1 or LSA1 file: the reference for
    ``load_features`` and ``load_anim``.

    Reads the whole file into ``bytes`` and returns the f32 payload as a
    read-only view of them. ``shape_of(fields, fail)`` gives the payload
    shape, raising ``fail(message, offset)`` for a header it refuses. Raises
    the loaders' FileFormatError for each defect, with its message and byte
    offset.
    """
    raw = Path(path).read_bytes()

    def fail(message, offset=None):
        return FileFormatError(message, path=str(path), offset=offset)

    start = len(magic) + struct.calcsize(header)
    if len(raw) < start:
        raise fail("file too short for header", 0)
    if raw[: len(magic)] != magic:
        raise fail(f"bad magic, expected {magic.decode()}", 0)
    fields = struct.unpack_from(header, raw, len(magic))
    shape = shape_of(fields, fail)
    expected = start + 4 * math.prod(shape)
    if len(raw) != expected:
        raise fail(f"payload size mismatch: expected {expected} bytes, found {len(raw)}", min(len(raw), expected))
    if expected == start:
        raise fail(f"empty payload, header shape {shape}", start)
    values = np.frombuffer(raw, dtype="<f4", offset=start).reshape(shape)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise fail("non-finite value in payload", start + 4 * int(bad[0]))
    return fields, values


def reference_load_features(path):
    """(data, fps, kind) of an LSF1 file, read by ``reference_load_container``."""

    def shape_of(fields, fail):
        if fields[3] not in {kind.value for kind in features.FeatureKind}:
            raise fail(f"unknown feature kind {fields[3]}", 16)
        return fields[:2]

    (_, _, fps, kind), data = reference_load_container(path, b"LSF1", "<IIIB", shape_of)
    return data, fps, features.FeatureKind(kind)


def reference_load_anim(path):
    """(frames, fps) of an LSA1 file, read by ``reference_load_container``."""
    (_, _, fps), frames = reference_load_container(path, b"LSA1", "<III", lambda fields, fail: (*fields[:2], 3))
    return frames, fps


# Up to four byte-level edits of a valid file, applied in order by ``mutate``.
BYTE_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("u32"), st.integers(0, 2**16), st.integers(0, 2**32 - 1)),
    ),
    min_size=1,
    max_size=4,
)


def mutate(raw: bytes, mutations, u32_fields) -> bytes:
    """``raw`` after each edit: XOR one byte, cut the tail, append bytes, or
    write a value into one of the u32 fields at byte offsets ``u32_fields``."""
    data = bytearray(raw)
    for kind, *arg in mutations:
        if kind == "flip" and data:
            data[arg[0] % len(data)] ^= arg[1]
        elif kind == "truncate":
            del data[arg[0] % (len(data) + 1) :]
        elif kind == "extend":
            data += arg[0]
        elif kind == "u32":
            at = u32_fields[arg[0] % len(u32_fields)]
            if len(data) >= at + 4:
                data[at : at + 4] = struct.pack("<I", arg[1])
    return bytes(data)


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """Small corpus + head for CLI and evaluation tests: 8 sentences, V=40."""
    root = tmp_path_factory.mktemp("mini_corpus")
    head = synthdata.make_head(40, seed=5)
    mesh.save_obj(head, root / "template.obj", landmark_path=root / "template.landmarks.txt")
    provider = features.SurrogateProvider.seeded(5)
    oracle = synthdata.OracleArticulator.seeded(head, seed=5)
    manifest = synthdata.generate_corpus(
        root,
        8,
        duration_range=(0.6, 0.9),
        provider=provider,
        oracle=oracle,
        seed=5,
        split_ratio=(6, 1, 1),
    )
    return {"root": root, "head": head, "manifest": manifest}


@pytest.fixture(scope="session")
def corpus60(tmp_path_factory):
    """50/5/5 corpus over a V=100 head, shared by training and acceptance tests."""
    root = tmp_path_factory.mktemp("corpus60")
    head = synthdata.make_head(100, seed=11)
    provider = features.SurrogateProvider.seeded(11)
    oracle = synthdata.OracleArticulator.seeded(head, seed=11)
    manifest = synthdata.generate_corpus(
        root,
        60,
        duration_range=(0.8, 1.4),
        provider=provider,
        oracle=oracle,
        seed=11,
        split_ratio=(50, 5, 5),
    )
    return {
        "root": root,
        "head": head,
        "train": synthdata.load_split(manifest, "train"),
        "val": synthdata.load_split(manifest, "val"),
        "test": synthdata.load_split(manifest, "test"),
    }


def _lip_stats(head, disp, lip_col):
    """Mean |dv| and motion range of one landmark's vertical pixel trajectory."""
    v_col = evaluation.project_landmarks(head, disp)[:, lip_col, 1]
    return {"jitter": float(np.abs(np.diff(v_col)).mean()), "range": float(v_col.max() - v_col.min())}


@pytest.fixture(scope="session")
def ablation_results(tmp_path_factory):
    """Train the four-model matrix of ``scripts/run_ablation.py`` over its four seeds.

    Returns per-seed EvalReports plus per-sentence upper-lip trajectory
    stats (mean |dv| and motion range) for every model variant.
    """
    head, train_items, test_items = build_corpus(tmp_path_factory.mktemp("ablation"))
    lip_col = evaluation.default_lip_landmark(head)
    results = defaultdict(dict)
    for seed, label, net, report in run_matrix(head, train_items, test_items):
        traj = {s.id: _lip_stats(head, model.forward(net, s.features), lip_col) for s in test_items}
        results[seed][label] = {"report": report, "traj": traj}
    truth = {s.id: _lip_stats(head, s.displacements, lip_col) for s in test_items}
    return {"per_seed": dict(results), "truth": truth, "config": ABLATION}
