import tracemalloc

import numpy as np
import pytest

from lipsync import evaluation, features, model, synthdata
from lipsync.errors import ConfigError, DataError
from lipsync.evaluation import ProjectionConfig
from lipsync.mesh import DisplacementSequence, TemplateMesh


def small_head():
    return synthdata.make_head(40, seed=1)


def zero_disp(head, t=4):
    return DisplacementSequence(frames=np.zeros((t, head.n_vertices, 3)))


class TestProjection:
    def test_zero_displacement_constant_trajectory(self):
        head = small_head()
        traj = evaluation.project_landmarks(head, zero_disp(head))
        assert traj.shape == (4, 20, 2)
        assert np.ptp(traj, axis=0).max() == 0.0
        lm = head.landmarks
        assert np.array_equal(traj[0, :, 0], head.vertices[lm, 0] * 100.0)
        assert np.array_equal(traj[0, :, 1], -head.vertices[lm, 1] * 100.0)

    def test_x_offset_moves_u_only(self):
        head = small_head()
        frames = np.zeros((1, head.n_vertices, 3))
        frames[0, :, 0] = 0.01
        base = evaluation.project_landmarks(head, zero_disp(head, 1))
        moved = evaluation.project_landmarks(head, DisplacementSequence(frames=frames))
        assert np.allclose(moved[..., 0] - base[..., 0], 1.0, atol=1e-9)
        assert np.array_equal(moved[..., 1], base[..., 1])

    def test_index_out_of_range(self):
        # projection reads mesh.landmarks, so their range is checked where the mesh is built
        head = small_head()
        landmarks = head.landmarks.copy()
        landmarks[-1] = head.n_vertices
        with pytest.raises(DataError, match="landmark index out of range"):
            TemplateMesh(vertices=head.vertices, faces=head.faces, landmarks=landmarks, lip_mask=head.lip_mask)

    def test_vertex_count_mismatch(self):
        head = small_head()
        with pytest.raises(DataError, match="animation has 5 vertices, mesh has"):
            evaluation.project_landmarks(head, DisplacementSequence(frames=np.zeros((2, 5, 3))))


class TestErrors:
    def test_identical_is_zero(self):
        traj = np.random.default_rng(0).standard_normal((6, 5, 2))
        assert evaluation.positional_error(traj, traj) == 0.0
        assert evaluation.velocity_error(traj, traj) == 0.0

    def test_uniform_offset_positional(self):
        truth = np.random.default_rng(1).standard_normal((6, 5, 2))
        pred = truth.copy()
        pred[..., 0] += 3.0
        assert abs(evaluation.positional_error(pred, truth) - 3.0) < 1e-12

    def test_velocity_ignores_constant_offset(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(-20, 21, size=(7, 4, 2)).astype(float) / 8.0
        pred = truth + np.array([1.5, -2.25])  # dyadic offset, exact arithmetic
        assert evaluation.velocity_error(pred, truth) == 0.0

    def test_constant_motion_difference(self):
        truth = np.zeros((5, 3, 2))
        truth[:, :, 0] = 2.0 * np.arange(5)[:, None]  # moves 2 px/frame in u
        pred = np.zeros((5, 3, 2))
        assert abs(evaluation.velocity_error(pred, truth) - 2.0) < 1e-12

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(3)
        pred = rng.standard_normal((6, 4, 2))
        truth = rng.standard_normal((6, 4, 2))
        pos = np.mean(
            [np.hypot(*(pred[t, l] - truth[t, l])) for t in range(6) for l in range(4)]
        )
        vel = np.mean(
            [
                np.hypot(*((pred[t, l] - pred[t - 1, l]) - (truth[t, l] - truth[t - 1, l])))
                for t in range(1, 6)
                for l in range(4)
            ]
        )
        assert abs(evaluation.positional_error(pred, truth) - pos) < 1e-10
        assert abs(evaluation.velocity_error(pred, truth) - vel) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 3, 2))
        b = rng.standard_normal((5, 3, 2))
        assert evaluation.positional_error(a, b) == evaluation.positional_error(b, a)
        assert evaluation.velocity_error(a, b) == evaluation.velocity_error(b, a)

    @pytest.mark.parametrize("metric", [evaluation.positional_error, evaluation.velocity_error])
    def test_shapes_must_match(self, metric):
        with pytest.raises(DataError, match=r"trajectory shapes differ: \(3, 2, 2\) vs \(4, 2, 2\)"):
            metric(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))

    def test_needs_two_frames(self):
        with pytest.raises(DataError, match="velocity error needs at least two frames"):
            evaluation.velocity_error(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))

    def test_pixel_scale_doubles_errors_exactly(self):
        head = small_head()
        rng = np.random.default_rng(5)
        truth = DisplacementSequence(frames=rng.standard_normal((6, head.n_vertices, 3)) * 0.01)
        pred = DisplacementSequence(frames=rng.standard_normal((6, head.n_vertices, 3)) * 0.01)
        errs = {}
        for scale in (100.0, 200.0):
            cfg = ProjectionConfig(px_per_unit=scale)
            pt = evaluation.project_landmarks(head, pred, cfg=cfg)
            tt = evaluation.project_landmarks(head, truth, cfg=cfg)
            errs[scale] = (
                evaluation.positional_error(pt, tt),
                evaluation.velocity_error(pt, tt),
            )
        assert errs[200.0][0] == 2.0 * errs[100.0][0]
        assert errs[200.0][1] == 2.0 * errs[100.0][1]


class TestTrajectoryCsv:
    def test_constant_trajectory(self, tmp_path):
        traj = np.tile(np.array([[1.0, -7.5]]), (5, 3, 1)).reshape(5, 3, 2)
        evaluation.lip_trajectory_csv(traj, 1, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "frame,v_pixels"
        assert len(lines) == 6
        assert all(line.endswith(",-7.5") for line in lines[1:])

    def test_unknown_landmark(self, tmp_path):
        for landmark in (3, -1):
            with pytest.raises(ConfigError):
                evaluation.lip_trajectory_csv(np.zeros((4, 3, 2)), landmark, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_default_lip_landmark_is_first_flagged(self):
        head = small_head()
        assert evaluation.default_lip_landmark(head) == int(np.flatnonzero(head.lip_mask)[0])


class TestEvaluate:
    def test_ground_truth_against_itself_is_zero(self, mini_corpus):
        head = mini_corpus["head"]
        samples = synthdata.load_split(mini_corpus["manifest"], "test")
        report = evaluation.evaluate_self(head, samples)
        assert report.pos_all == report.pos_lip == 0.0
        assert report.vel_all == report.vel_lip == 0.0
        assert all(
            v == 0.0 for metrics in report.per_sentence.values() for v in metrics.values()
        )

    def test_no_samples_is_data_error(self, mini_corpus):
        head = mini_corpus["head"]
        with pytest.raises(DataError):
            evaluation.evaluate_self(head, [])
        with pytest.raises(DataError):
            evaluation.evaluate(model.init_params(0, head.n_vertices), head, [])

    def test_evaluate_runs_model(self, mini_corpus):
        head = mini_corpus["head"]
        samples = synthdata.load_split(mini_corpus["manifest"], "test")
        net = model.init_params(0, head.n_vertices)
        report = evaluation.evaluate(net, head, samples)
        for key in evaluation.METRIC_KEYS:
            assert getattr(report, key) >= 0.0
            assert np.isfinite(getattr(report, key))
        assert set(report.per_sentence) == {s.id for s in samples}

    def test_matches_per_sequence_forward(self, mini_corpus, monkeypatch):
        # batches of about two sentences over all 8, longest first: the
        # batched forward must pool exactly what one forward per sentence
        # gives, in sample order
        head = mini_corpus["head"]
        samples = [s for split in ("train", "val", "test") for s in synthdata.load_split(mini_corpus["manifest"], split)]
        net = model.init_params(2, head.n_vertices)
        monkeypatch.setattr(model, "_BATCH_FRAMES", 2 * max(s.features.n_frames for s in samples))
        report = evaluation.evaluate(net, head, samples)
        per_sequence = [model.forward(net, s.features) for s in samples]
        expected = evaluation._aggregate(head, samples, enumerate(per_sequence), ProjectionConfig())
        assert report.to_json() == expected.to_json()
        assert list(report.per_sentence) == [s.id for s in samples]

    def test_one_frame_sentence_is_insufficient_frames(self, mini_corpus):
        head = mini_corpus["head"]
        (first, *rest) = synthdata.load_split(mini_corpus["manifest"], "test")
        short = synthdata.Sample(
            id="one-frame",
            features=features.FeatureSequence(data=first.features.data[:1]),
            displacements=DisplacementSequence(frames=first.displacements.frames[:1]),
        )
        for scorer in (
            lambda samples: evaluation.evaluate_self(head, samples),
            lambda samples: evaluation.evaluate(model.init_params(0, head.n_vertices), head, samples),
        ):
            with pytest.raises(DataError, match="'one-frame' has 1 frame"):
                scorer([first, short, *rest])

    def test_first_short_sentence_refused_before_any_forward(self, mini_corpus, monkeypatch):
        # the 3rd and 5th sentences have one frame; the 3rd is named, before
        # the network runs, although length-sorted batches score it last
        head = mini_corpus["head"]
        samples = synthdata.load_split(mini_corpus["manifest"], "train")
        for n in (2, 4):
            samples[n] = synthdata.Sample(
                id=f"short-{n + 1}",
                features=features.FeatureSequence(data=samples[n].features.data[:1]),
                displacements=DisplacementSequence(frames=samples[n].displacements.frames[:1]),
            )

        def refuse(*args):
            raise AssertionError("the network ran")

        monkeypatch.setattr(model, "forward_batch", refuse)
        net = model.init_params(0, head.n_vertices)
        for scorer in (evaluation.evaluate_self, lambda h, ss: evaluation.evaluate(net, h, ss)):
            with pytest.raises(DataError, match="'short-3' has 1 frame"):
                scorer(head, samples)

    def test_memory_bounded_by_one_long_sentence(self):
        # four 1000-frame sentences run one batch each, and each prediction is
        # dropped before the next runs: the peak stays near one sentence's
        # (1.05x here; 1.4x when the last prediction is kept, 3.8x in chunks of 8)
        rng = np.random.default_rng(21)
        head = synthdata.make_head(100, seed=21)
        net = model.init_params(21, head.n_vertices)
        samples = [
            synthdata.Sample(
                id=f"long-{n}",
                features=features.FeatureSequence(data=rng.standard_normal((1000, features.CHAR_PROB_DIM))),
                displacements=zero_disp(head, 1000),
            )
            for n in range(4)
        ]
        peaks = []
        for split in (samples[:1], samples):
            tracemalloc.start()
            try:
                evaluation.evaluate(net, head, split)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_vertex_count_checked(self, mini_corpus):
        samples = synthdata.load_split(mini_corpus["manifest"], "test")
        net = model.init_params(0, 7)
        with pytest.raises(DataError, match="checkpoint decodes 7 vertices, mesh has"):
            evaluation.evaluate(net, mini_corpus["head"], samples)

    def test_format_table(self):
        report = evaluation.EvalReport(pos_all=1.0, pos_lip=2.0, vel_all=0.5, vel_lip=0.25)
        text = evaluation.format_table({"modelA": report, "modelB": report})
        assert "modelA" in text and "modelB" in text
        assert text.count("\n") == 5  # header, rule, four metric rows
        assert "position error" in text and "velocity error" in text

    def test_report_json_round_trip(self):
        import json

        report = evaluation.EvalReport(
            pos_all=1.0, pos_lip=2.0, vel_all=0.5, vel_lip=0.25, per_sentence={"s": {}}
        )
        data = json.loads(report.to_json())
        assert data["pos_all"] == 1.0
        assert data["per_sentence"] == {"s": {}}
