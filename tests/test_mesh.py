import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsync import mesh, synthdata
from lipsync.errors import DataError, FileFormatError
from lipsync.mesh import DisplacementSequence, TemplateMesh

TETRA = """\
v 0 0 0
v 1 0 0
v 0 1 0
v 0 0 1
f 1 2 3
f 1 2 4
f 1 3 4
f 2 3 4
"""


class TestObjIO:
    def test_one_format_call_writes_the_per_line_text(self, tmp_path):
        def per_line(vertices, faces):  # the text save_obj wrote one line at a time
            lines = [f"v {x:.8f} {y:.8f} {z:.8f}" for x, y, z in vertices]
            lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
            return "\n".join(lines) + "\n"

        rng = np.random.default_rng(0)
        faces = rng.integers(0, 2000, (3996, 3))
        for t in range(20):
            vertices = rng.standard_normal((2000, 3)) * 10.0 ** rng.integers(-9, 4, (2000, 3))
            vertices[t : t + 3] = [[-0.0, -1e-12, 1e300], [-5e-9, 5e-9, 1.5e-8], [-1e300, 0.0, 12345678.123456789]]
            expected = per_line(vertices, faces)
            assert mesh.vertex_lines(vertices) + mesh.face_lines(faces) == expected
            if t == 0:
                mesh.save_obj(TemplateMesh(vertices=vertices, faces=faces), tmp_path / "h.obj")
                assert (tmp_path / "h.obj").read_text() == expected

    def test_tetrahedron(self, tmp_path):
        p = tmp_path / "t.obj"
        p.write_text(TETRA)
        m = mesh.load_obj(p)
        assert m.n_vertices == 4
        assert m.faces.shape == (4, 3)

    def test_quad_fan_triangulation(self, tmp_path):
        p = tmp_path / "q.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        m = mesh.load_obj(p)
        assert [tuple(f) for f in m.faces] == [(0, 1, 2), (0, 2, 3)]

    def test_slash_indices_and_comments(self, tmp_path):
        p = tmp_path / "s.obj"
        p.write_text("# header\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1/1 2/2 3/3\n")
        m = mesh.load_obj(p)
        assert [tuple(f) for f in m.faces] == [(0, 1, 2)]

    def test_round_trip(self, tmp_path):
        head = synthdata.make_head(60, seed=3)
        mesh.save_obj(head, tmp_path / "h.obj", landmark_path=tmp_path / "h.landmarks.txt")
        back = mesh.load_obj(tmp_path / "h.obj", landmark_path=tmp_path / "h.landmarks.txt")
        assert np.allclose(back.vertices, head.vertices, atol=1e-6)
        assert np.array_equal(back.faces, head.faces)
        assert np.array_equal(back.landmarks, head.landmarks)
        assert np.array_equal(back.lip_mask, head.lip_mask)

    def test_non_numeric_vertex_reports_line(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 0 0\nv 1 oops 0\n")
        with pytest.raises(FileFormatError, match="non-numeric vertex 'v 1 oops 0'") as err:
            mesh.load_obj(p)
        assert err.value.line == 2

    def test_face_index_out_of_range(self, tmp_path):
        p = tmp_path / "oob.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n")
        with pytest.raises(FileFormatError, match=r"face index 9 out of range 1\.\.4") as err:
            mesh.load_obj(p)
        assert err.value.line == 5

    def test_negative_indices_count_back_from_the_face(self, tmp_path):
        p = tmp_path / "neg.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 0 0 1\nf -3 -2 -1\n")
        assert mesh.load_obj(p).faces.tolist() == [[0, 1, 2], [1, 2, 3]]

    @pytest.mark.parametrize("face", ["f -1 -2 -4", "f 1 2 4"])
    def test_face_index_beyond_the_vertices_above(self, tmp_path, face):
        p = tmp_path / "later.obj"
        p.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\nv 0 0 1\n")
        with pytest.raises(FileFormatError, match="out of range 1..3") as err:
            mesh.load_obj(p)
        assert err.value.line == 4


class TestApplyDisplacements:
    def tetra(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        return TemplateMesh(vertices=verts, faces=faces)

    def test_zero_displacements(self):
        t = self.tetra()
        d = DisplacementSequence(frames=np.zeros((3, 4, 3)))
        posed = mesh.apply_displacements(t, d)
        assert np.array_equal(posed, np.repeat(t.vertices[None], 3, axis=0))

    def test_uniform_translation(self):
        t = self.tetra()
        d = DisplacementSequence(frames=np.ones((1, 4, 3)))
        posed = mesh.apply_displacements(t, d)
        assert np.array_equal(posed[0], t.vertices + 1.0)

    def test_subtract_then_apply_is_identity(self):
        # ground-truth construction inverse: offsets = animated - template
        t = self.tetra()
        rng = np.random.default_rng(0)
        animated = rng.standard_normal((5, 4, 3))
        d = DisplacementSequence(frames=animated - t.vertices[None])
        posed = mesh.apply_displacements(t, d)
        assert np.allclose(posed, animated, atol=1e-12)

    def test_vertex_count_mismatch(self):
        t = self.tetra()
        d = DisplacementSequence(frames=np.zeros((2, 5, 3)))
        with pytest.raises(DataError, match="animation has 5 vertices, template has 4"):
            mesh.apply_displacements(t, d)


class TestAnimIO:
    def test_round_trip_bitwise(self, tmp_path):
        frames = np.random.default_rng(2).standard_normal((7, 9, 3)).astype(np.float32)
        mesh.save_anim(DisplacementSequence(frames=frames, fps=60), tmp_path / "a.lsa1")
        back = mesh.load_anim(tmp_path / "a.lsa1")
        assert np.array_equal(back.frames, frames)
        assert back.fps == 60

    def test_file_size_formula(self, tmp_path):
        frames = np.zeros((60, 100, 3), dtype=np.float32)
        mesh.save_anim(DisplacementSequence(frames=frames), tmp_path / "s.lsa1")
        assert (tmp_path / "s.lsa1").stat().st_size == 16 + 60 * 100 * 3 * 4 == 72016

    @settings(max_examples=25, deadline=None)
    @given(t=st.integers(1, 20), v=st.integers(1, 50))
    def test_file_size_formula_random_shapes(self, tmp_path_factory, t, v):
        p = tmp_path_factory.mktemp("anim") / "x.lsa1"
        mesh.save_anim(DisplacementSequence(frames=np.zeros((t, v, 3), dtype=np.float32)), p)
        assert p.stat().st_size == 16 + 12 * t * v

    def test_bad_magic(self, tmp_path):
        (tmp_path / "b.lsa1").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            mesh.load_anim(tmp_path / "b.lsa1")

    def test_truncated_payload(self, tmp_path):
        mesh.save_anim(DisplacementSequence(frames=np.zeros((3, 4, 3), dtype=np.float32)), tmp_path / "t.lsa1")
        raw = (tmp_path / "t.lsa1").read_bytes()
        (tmp_path / "t.lsa1").write_bytes(raw[:-8])
        with pytest.raises(FileFormatError):
            mesh.load_anim(tmp_path / "t.lsa1")

    @pytest.mark.parametrize("t, value, offset", [(3, np.nan, 16 + 4 * 5), (3, -np.inf, 16 + 4 * 5), (0, 0.0, 16)])
    def test_non_finite_or_empty_payload(self, tmp_path, t, value, offset):
        # save_anim refuses NaN and inf, so the file is built by hand
        frames = np.zeros((t, 4, 3), dtype="<f4")
        frames.flat[5:6] = value
        (tmp_path / "n.lsa1").write_bytes(b"LSA1" + struct.pack("<III", t, 4, 60) + frames.tobytes())
        with pytest.raises(FileFormatError) as err:
            mesh.load_anim(tmp_path / "n.lsa1")
        assert err.value.offset == offset

    def test_mismatched_template_rejected_later(self, tmp_path):
        mesh.save_anim(DisplacementSequence(frames=np.zeros((2, 6, 3), dtype=np.float32)), tmp_path / "v.lsa1")
        anim = mesh.load_anim(tmp_path / "v.lsa1")
        tetra = TemplateMesh(
            vertices=np.eye(4, 3, dtype=float), faces=np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        )
        with pytest.raises(DataError, match="animation has 6 vertices, template has 4"):
            mesh.apply_displacements(tetra, anim)


class TestLandmarkSidecar:
    def test_round_trip(self, tmp_path):
        idx = np.array([3, 11, 7])
        lip = np.array([True, False, True])
        mesh.save_landmarks(idx, lip, tmp_path / "lm.txt")
        text = (tmp_path / "lm.txt").read_text()
        assert text.splitlines() == ["lip:3", "11", "lip:7"]
        back_idx, back_lip = mesh.load_landmarks(tmp_path / "lm.txt")
        assert np.array_equal(back_idx, idx)
        assert np.array_equal(back_lip, lip)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        (tmp_path / "lm.txt").write_text("# lips first\nlip:3\n\n  \n  # face\n11\n")
        idx, lip = mesh.load_landmarks(tmp_path / "lm.txt")
        assert idx.tolist() == [3, 11] and lip.tolist() == [True, False]

    def test_bad_index(self, tmp_path):
        (tmp_path / "lm.txt").write_text("1\nlip:abc\n")
        with pytest.raises(FileFormatError, match="bad landmark index 'abc'") as err:
            mesh.load_landmarks(tmp_path / "lm.txt")
        assert err.value.line == 2
