"""The shared container: its writer, its non-finite checks, and the
byte-mutation properties of the LSF1, LSA1 and LSN1 loaders and of the
commands that read them."""

import contextlib
import io
import itertools
import math
import os
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BYTE_MUTATIONS,
    mutate,
    reference_load,
    reference_load_anim,
    reference_load_features,
    tiny_net,
)
from lipsync import cli, container, features, mesh, model
from lipsync.errors import DataError, FileFormatError, LipSyncError

LOADERS = {"LSF1": features.load_features, "LSA1": mesh.load_anim, "LSN1": model.load_checkpoint}
# LSF1 and LSA1: the reference reader, and the loader's result as the tuple it returns
REFERENCES = {
    "LSF1": (reference_load_features, lambda f: (f.data, f.fps, f.kind)),
    "LSA1": (reference_load_anim, lambda a: (a.frames, a.fps)),
}


class TestFormatWrite:
    FMT = container.Format(b"TST1", "<I")
    NEW = b"TST1" + struct.pack("<I", 7) + b"ab"

    def test_replaces_a_longer_regular_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 100)
        self.FMT.write(path, (7,), b"ab")
        assert path.read_bytes() == self.NEW

    def test_other_hard_links_keep_the_old_bytes(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        os.link(path, tmp_path / "twin")
        self.FMT.write(path, (7,), b"ab")
        assert (path.read_bytes(), (tmp_path / "twin").read_bytes()) == (self.NEW, b"old")

    def test_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"old bytes, longer than the new ones")
        link.symlink_to(target)
        self.FMT.write(link, (7,), b"ab")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.NEW

    def test_dev_null(self):
        self.FMT.write(os.devnull, (7,), b"ab")
        assert Path(os.devnull).is_char_device()


def _write(fmt, values, path):
    """Write ``values`` as the payload of a small ``fmt`` file: 2 x 3 LSF1 rows,
    a 1 x 2 x 3 LSA1 animation, or the last parameters of a tiny network."""
    values = np.asarray(values, dtype=np.float64)
    if fmt == "LSF1":
        features.save_features(features.FeatureSequence(data=values.reshape(2, 3)), path)
    elif fmt == "LSA1":
        mesh.save_anim(mesh.DisplacementSequence(frames=values.reshape(1, 2, 3)), path)
    else:
        net = tiny_net(seed=2)
        net.flat[-len(values):] = values
        model.save_checkpoint(net, path)


F32_MAX = float(np.finfo(np.float32).max)
# Payload values each loader refuses. A float64 above float32's largest is
# inf once an LSF1 or LSA1 writer casts it, and fits in an LSN1 file.
UNWRITABLE = [(fmt, value) for fmt in LOADERS for value in (np.nan, np.inf, -np.inf)]
UNWRITABLE += [(fmt, 2 * F32_MAX) for fmt in ("LSF1", "LSA1")]


class TestNonFiniteRefusedOnWrite:
    @pytest.mark.parametrize("existing", [False, True], ids=["no-file", "existing-file"])
    @pytest.mark.parametrize("fmt, value", UNWRITABLE)
    def test_refused_before_the_path_is_touched(self, tmp_path, fmt, value, existing):
        path = tmp_path / f"out.{fmt.lower()}"
        if existing:
            _write(fmt, np.arange(6.0), path)
            before = path.read_bytes()
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: NaN or inf in the {fmt} payload; not written$"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the float32 cast of 2 * F32_MAX must not warn first
                _write(fmt, [1.0, 2.0, value, 4.0, 5.0, 6.0], path)
        if existing:
            assert path.read_bytes() == before
        else:
            assert not path.exists()

    @settings(max_examples=60, deadline=None)
    @given(
        fmt=st.sampled_from(["LSF1", "LSA1"]),
        values=st.lists(st.floats(-F32_MAX, F32_MAX), min_size=6, max_size=6),
    )
    @example(fmt="LSF1", values=[F32_MAX, -F32_MAX, 1e-45, -1e-45, 5e-324, -0.0])
    @example(fmt="LSA1", values=[F32_MAX, -F32_MAX, 1e-45, -1e-45, 5e-324, -0.0])
    def test_float32_formats_round_trip_every_finite_cast(self, tmp_path_factory, fmt, values):
        path = tmp_path_factory.mktemp("rt") / "out"
        _write(fmt, values, path)
        back = features.load_features(path).data if fmt == "LSF1" else mesh.load_anim(path).frames
        assert back.ravel().view("<u4").tolist() == np.asarray(values, dtype="<f4").view("<u4").tolist()

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
    @example(values=[F32_MAX, -F32_MAX, 1.7976931348623157e308, 5e-324, -5e-324, -0.0])
    def test_lsn1_round_trips_every_finite_value(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "out"
        _write("LSN1", values, path)
        back = model.load_checkpoint(path).flat[-6:]
        assert back.view("<u8").tolist() == np.asarray(values, dtype="<f8").view("<u8").tolist()


class TestReadInto:
    def test_a_file_cut_after_its_size_was_taken(self):
        # 4 of the 32 bytes wanted remain after the offset, then readinto returns 0
        with pytest.raises(FileFormatError, match="truncated tensor payload") as info:
            container.read_into(io.BytesIO(bytes(8)), np.empty(4), "f", 4)
        assert info.value.offset == 4


class TestCheckFinite:
    def test_reports_the_smallest_file_offset_in_any_region_order(self, tmp_path):
        regions = [
            (20, np.ones(5)),
            (40, np.array([1.0, 2.0, 3.0, np.inf])),  # bad at byte 40 + 8 * 3, the first in the file
            (60, np.array([1.0, 2.0, -np.inf, np.nan], dtype="<f4")),  # bad at byte 60 + 4 * 2
            (100, np.array([[np.nan, 1.0], [2.0, np.nan]])),
        ]
        for order in itertools.permutations(regions):
            with pytest.raises(FileFormatError) as info:
                container.check_finite(tmp_path / "f", order)
            assert info.value.offset == 64 and "non-finite value in payload" in str(info.value)

    def test_finite_regions_pass(self, tmp_path):
        container.check_finite(tmp_path / "f", [(20, np.ones(5)), (60, np.zeros((2, 3), dtype="<f4"))])


def lsn1_u32_fields(raw: bytes) -> list:
    """Byte offsets of every u32 in an LSN1 file: V, the tensor count, and
    each tensor's name length, rank and dims."""
    fields = [4, 8]
    pos = 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        fields.append(pos)
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 4)
        fields += [pos + 4 * k for k in range(rank + 1)]
        pos += 4 * (rank + 1) + 8 * math.prod(dims)
    return fields


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """(bytes, u32 field offsets) of one small valid file per format."""
    tmp = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    features.save_features(features.FeatureSequence(data=rng.random((12, 29))), tmp / "f.lsf1")
    mesh.save_anim(mesh.DisplacementSequence(frames=rng.standard_normal((6, 5, 3))), tmp / "a.lsa1")
    model.save_checkpoint(tiny_net(), tmp / "n.lsn1")
    lsn1 = (tmp / "n.lsn1").read_bytes()
    return {
        "LSF1": ((tmp / "f.lsf1").read_bytes(), [4, 8, 12]),  # T, D, fps
        "LSA1": ((tmp / "a.lsa1").read_bytes(), [4, 8, 12]),  # T, V, fps
        "LSN1": (lsn1, lsn1_u32_fields(lsn1)),
    }


class TestContainerMutation:
    @settings(max_examples=300, deadline=None)
    @given(fmt=st.sampled_from(sorted(LOADERS)), mutations=BYTE_MUTATIONS)
    # conv1.kernels (fields 3-6: rank, then dims) as 0 x 2**31 x 2**31: no payload, far too big to reshape
    @example(fmt="LSN1", mutations=[("u32", 4, 0), ("u32", 5, 2**31), ("u32", 6, 2**31)])
    @example(fmt="LSN1", mutations=[("u32", 3, 0)])
    @example(fmt="LSF1", mutations=[("u32", 0, 0)])
    @example(fmt="LSA1", mutations=[("u32", 1, 2**32 - 1)])
    def test_loader_returns_or_raises_lipsync_error(self, valid_files, tmp_path_factory, fmt, mutations):
        raw, u32_fields = valid_files[fmt]
        path = tmp_path_factory.mktemp("mutated") / "file"
        path.write_bytes(mutate(raw, mutations, u32_fields))
        try:
            LOADERS[fmt](path)
        except LipSyncError:
            pass


    @settings(max_examples=300, deadline=None)
    @given(mutations=BYTE_MUTATIONS)
    @example(mutations=[("u32", 4, 0), ("u32", 5, 2**31), ("u32", 6, 2**31)])
    @example(mutations=[("flip", 59, 78), ("flip", 60, 192)])  # the second conv weight becomes NaN
    def test_lsn1_loader_matches_reference(self, valid_files, tmp_path_factory, mutations):
        # the same parameters or the same message and offset. A NaN or inf
        # is the one exception: the reference reports it as it reads the
        # tensor, the loader after the table, so another defect can come first.
        raw, u32_fields = valid_files["LSN1"]
        path = tmp_path_factory.mktemp("mutated") / "file"
        path.write_bytes(mutate(raw, mutations, u32_fields))
        try:
            want = reference_load(path)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as info:
                model.load_checkpoint(path)
            if "non-finite value" not in str(exc):
                assert str(info.value) == str(exc)
            return
        got = model.load_checkpoint(path)
        assert (got.vertex_count, got.arch, got.flat.tobytes()) == (want[0], want[1], want[2].tobytes())


    @settings(max_examples=300, deadline=None)
    @given(fmt=st.sampled_from(sorted(REFERENCES)), mutations=BYTE_MUTATIONS)
    @example(fmt="LSF1", mutations=[("flip", 16, 9)])  # unknown kind, ahead of the payload checks
    @example(fmt="LSF1", mutations=[("u32", 0, 0)])  # empty payload
    @example(fmt="LSA1", mutations=[("truncate", 24), ("extend", np.float32(np.nan).tobytes() + bytes(4 * 87))])
    @example(fmt="LSA1", mutations=[("extend", b"\0")])
    def test_lsf1_lsa1_loaders_match_reference(self, valid_files, tmp_path_factory, fmt, mutations):
        # the same values, shape, fps and kind, or the same message at the same offset
        raw, u32_fields = valid_files[fmt]
        path = tmp_path_factory.mktemp("mutated") / "file"
        path.write_bytes(mutate(raw, mutations, u32_fields))
        reference, as_tuple = REFERENCES[fmt]
        try:
            want, *want_rest = reference(path)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as info:
                LOADERS[fmt](path)
            assert (str(info.value), info.value.offset) == (str(exc), exc.offset)
            return
        got, *got_rest = as_tuple(LOADERS[fmt](path))
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert got_rest == want_rest


@pytest.fixture(scope="module")
def cli_inputs(valid_files, mini_corpus, tmp_path_factory):
    """Per format: its valid bytes, its u32 fields, and the command line that
    reads a file at path ``f`` and writes ``out``."""
    tmp = tmp_path_factory.mktemp("cli_valid")
    root, manifest = mini_corpus["root"], mini_corpus["manifest"]
    net, feats = tmp / "net.lsn1", tmp / "f.lsf1"
    net.write_bytes(valid_files["LSN1"][0])
    feats.write_bytes(valid_files["LSF1"][0])
    anim = manifest.resolve(manifest.split("test")[0].anim).read_bytes()  # matches the template's 40 vertices
    head = ["--template", str(root / "template.obj"), "--landmarks", str(root / "template.landmarks.txt")]
    return {
        "LSF1": (*valid_files["LSF1"], lambda f, out: ["infer", "--checkpoint", str(net), "--features", f, "--out", out]),
        "LSA1": (anim, [4, 8, 12], lambda f, out: ["traj", "--anim", f, *head, "--out", out]),
        "LSN1": (
            *valid_files["LSN1"], lambda f, out: ["infer", "--checkpoint", f, "--features", str(feats), "--out", out]
        ),
    }


class TestCommandMutation:
    """``infer --features``, ``traj --anim`` and ``infer --checkpoint`` on a
    mutated file: exit 0, 1 or 2, a failure is one stderr line, and an
    animation written on success loads back."""

    @settings(max_examples=150, deadline=None)
    @given(fmt=st.sampled_from(sorted(LOADERS)), mutations=BYTE_MUTATIONS)
    @example(fmt="LSN1", mutations=[("u32", 4, 0), ("u32", 5, 2**31), ("u32", 6, 2**31)])
    @example(fmt="LSF1", mutations=[("u32", 1, 2**32 - 1)])
    @example(fmt="LSA1", mutations=[("u32", 1, 7)])
    @example(fmt="LSN1", mutations=[("flip", 52, 0x40)])  # first conv weight 0.05 -> 9e306: the output overflows
    def test_exit_code_and_one_line(self, cli_inputs, tmp_path_factory, fmt, mutations):
        raw, u32_fields, argv = cli_inputs[fmt]
        tmp = tmp_path_factory.mktemp("mutated")
        (tmp / "file").write_bytes(mutate(raw, mutations, u32_fields))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.run(argv(str(tmp / "file"), str(tmp / "out")))
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
        elif fmt != "LSA1":
            mesh.load_anim(tmp / "out")
        assert [str(w.message) for w in caught] == []
