import math

import numpy as np
import pytest

from conftest import TINY_ARCH, random_features, tiny_net
from lipsync import model, training
from lipsync.errors import ConfigError, DataError
from lipsync.mesh import DisplacementSequence
from lipsync.synthdata import Sample
from lipsync.training import TrainConfig


def dyadic(rng, shape, denom=8):
    """Floats with exact binary representations so additions do not round."""
    return rng.integers(-16, 17, size=shape).astype(np.float64) / denom


def loss_terms(pred, truth):
    """(lp, lv): the per-frame mean position and velocity terms."""
    lp, lv, _, _ = training._loss_terms(pred, truth)
    return lp, lv


class TestLossPosition:
    def test_identity_is_zero(self):
        x = np.random.default_rng(0).standard_normal((4, 3, 3))
        assert loss_terms(x, x)[0] == 0.0

    def test_unit_difference(self):
        pred = np.zeros((2, 2, 3))
        truth = np.ones((2, 2, 3))
        assert loss_terms(pred, truth)[0] == 6.0

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((5, 4, 3))
        truth = rng.standard_normal((5, 4, 3))
        naive = sum(
            (truth[t, v, c] - pred[t, v, c]) ** 2
            for t in range(5)
            for v in range(4)
            for c in range(3)
        )
        assert abs(loss_terms(pred, truth)[0] - naive / 5) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"prediction shape \(2, 2, 3\) != ground truth shape \(3, 2, 3\)"):
            training.loss_total(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)))


class TestLossVelocity:
    def test_constant_sequences_are_zero(self):
        pred = np.tile(np.random.default_rng(0).standard_normal((1, 3, 3)), (6, 1, 1))
        truth = np.tile(np.random.default_rng(1).standard_normal((1, 3, 3)), (6, 1, 1))
        assert loss_terms(pred, truth)[1] == 0.0

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(3)
        pred = dyadic(rng, (6, 3, 3))
        truth = dyadic(rng, (6, 3, 3))
        offset = dyadic(rng, (1, 3, 3))
        base = loss_terms(pred, truth)[1]
        shifted = loss_terms(pred + offset, truth)[1]
        assert shifted == base

    def test_hand_expanded_three_frames(self):
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((3, 2, 3))
        truth = rng.standard_normal((3, 2, 3))
        expected = 0.0
        for t in (1, 2):
            d = (truth[t] - truth[t - 1]) - (pred[t] - pred[t - 1])
            expected += (d**2).sum()
        assert abs(loss_terms(pred, truth)[1] - expected / 2) < 1e-12

    def test_single_frame_is_zero(self):
        assert loss_terms(np.ones((1, 2, 3)), np.zeros((1, 2, 3)))[1] == 0.0


class TestLossTotal:
    def test_zero_velocity_weight_equals_position(self):
        rng = np.random.default_rng(5)
        pred = rng.standard_normal((4, 2, 3))
        truth = rng.standard_normal((4, 2, 3))
        total, _ = training.loss_total(pred, truth, TrainConfig(w_position=1.0, w_velocity=0.0))
        assert total == loss_terms(pred, truth)[0]

    def test_default_weights_combine_terms(self):
        rng = np.random.default_rng(6)
        pred = rng.standard_normal((4, 2, 3))
        truth = rng.standard_normal((4, 2, 3))
        total, _ = training.loss_total(pred, truth, TrainConfig())
        lp, lv = loss_terms(pred, truth)
        assert abs(total - (lp + 0.5 * lv)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pred = rng.standard_normal((3, 2, 3))
        truth = rng.standard_normal((3, 2, 3))
        cfg = TrainConfig()
        _, grad = training.loss_total(pred, truth, cfg)
        eps = 1e-6
        it = np.nditer(pred, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            bumped = pred.copy()
            bumped[ix] += eps
            up, _ = training.loss_total(bumped, truth, cfg)
            bumped[ix] -= 2 * eps
            down, _ = training.loss_total(bumped, truth, cfg)
            fd = (up - down) / (2 * eps)
            assert abs(grad[ix] - fd) <= 1e-8 * max(1.0, abs(fd))

    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal((4, 2, 3))
        truth = rng.standard_normal((4, 2, 3))
        base, _ = training.loss_total(pred, truth, TrainConfig(w_position=1.0, w_velocity=0.5))
        for a in (0.0, 0.5, 2.0, 4.0):
            scaled, _ = training.loss_total(
                pred, truth, TrainConfig(w_position=a * 1.0, w_velocity=a * 0.5)
            )
            assert scaled == a * base

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(w_position=-1.0)

    # the weights are checked first, so a bad rate beside them is not the one named
    @pytest.mark.parametrize(
        "kwargs",
        [{"w_velocity": float("nan")}, {"w_position": float("inf")}, {"w_velocity": -1.0, "learning_rate": float("nan")}],
    )
    def test_non_finite_weights_rejected(self, kwargs):
        with pytest.raises(ValueError, match="^loss weights must be finite and non-negative$"):
            TrainConfig(**kwargs)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": 0.0},
            {"clip_norm": -1.0},
            {"clip_norm": float("nan")},
            {"batch_size": 0},
            {"epochs": 0},
            {"seed": -1},
            {"checkpoint_every": -3},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_zero_clip_norm_disables_clipping(self):
        assert TrainConfig(clip_norm=0.0).clip_norm == 0.0


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = tiny_net()
        before = net.flat.copy()
        training.adam_step(net, np.zeros_like(net.flat), training.AdamState.zeros(net), TrainConfig())
        assert np.array_equal(net.flat, before)

    def test_first_step_closed_form(self):
        # after one step: delta = -lr * g / (|g| + eps)
        net = tiny_net(seed=2)
        rng = np.random.default_rng(2)
        before = {name: arr.copy() for name, arr in net.items()}
        grads = net.copy()  # gradient vector in the parameter layout, named per tensor
        grads.flat[...] = rng.standard_normal(net.flat.shape)
        cfg = TrainConfig(learning_rate=1e-3)
        training.adam_step(net, grads.flat, training.AdamState.zeros(net), cfg)
        for (name, arr), (_, g) in zip(net.items(), grads.items()):
            expected = before[name] - cfg.learning_rate * g / (np.abs(g) + training._ADAM_EPS)
            assert np.allclose(arr, expected, atol=1e-12), name

    def test_clip_scales_to_max_norm(self):
        grads = np.array([3.0, 4.0]) * 10
        norm, clipped = training.clip_gradients(grads, 5.0)
        assert clipped and abs(norm - 50.0) < 1e-12
        assert np.allclose(grads, [0.3 * 10, 0.4 * 10], atol=1e-12)


def make_corpus(rng, n_items, t_len=20, vertices=5):
    teacher = model.init_params(99, vertices, TINY_ARCH)
    items = []
    for i in range(n_items):
        feats = random_features(rng, t_len)
        truth = model.forward(teacher, feats)
        items.append(Sample(id=f"i{i}", features=feats, displacements=truth))
    return items


class TestTrain:
    def test_empty_corpus_raises(self):
        with pytest.raises(DataError):
            training.train([], tiny_net(), TrainConfig())

    def test_nan_parameters_raise_and_save_nothing(self, tmp_path):
        rng = np.random.default_rng(1)
        net = tiny_net()
        net.flat[...] = np.nan
        with pytest.raises(DataError, match="non-finite training loss"):
            training.train(
                make_corpus(rng, 2),
                net,
                TrainConfig(checkpoint_every=1),
                val_items=make_corpus(rng, 1),
                checkpoint_dir=tmp_path,
            )
        assert list(tmp_path.iterdir()) == []

    def test_nan_validation_loss_raises(self, tmp_path):
        rng = np.random.default_rng(2)
        val = make_corpus(rng, 1)
        val[0].displacements = DisplacementSequence(frames=np.full_like(val[0].displacements.frames, np.nan))
        with pytest.raises(DataError, match="non-finite validation loss"):
            training.train(
                make_corpus(rng, 1), tiny_net(), TrainConfig(), val_items=val,
                checkpoint_dir=tmp_path,
            )
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_gradient_raises_before_the_step(self):
        # the loss terms stay finite, but their weighted gradient overflows;
        # clipping it would write NaN into every weight
        items = make_corpus(np.random.default_rng(3), 4)
        net = tiny_net()
        start = net.flat.copy()
        with np.errstate(all="ignore"), pytest.raises(DataError) as info:
            training.train(items, net, TrainConfig(batch_size=2, w_position=1e308))
        assert str(info.value).startswith("epoch 1: non-finite gradient norm on items 'i")
        assert str(info.value).count("'i") == 2
        assert np.array_equal(net.flat, start)

    def test_batches_average_per_sequence_gradients(self):
        # one step over a batch of two equals Adam on the mean of the two
        # per-sequence gradients taken at the starting parameters
        rng = np.random.default_rng(8)
        items = make_corpus(rng, 2)
        net = tiny_net(seed=8)
        expected = net.copy()
        grads = []
        for s in items:
            pred, tape = model.forward_with_cache(expected, s.features)
            _, dpred = training.loss_total(pred, s.displacements, TrainConfig())
            grads.append(model.backward(expected, tape, dpred).flat)
        mean = (grads[0] + grads[1]) / 2
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, clip_norm=0.0)
        training.adam_step(expected, mean, training.AdamState.zeros(expected), cfg)
        training.train(items, net, cfg)
        assert np.allclose(net.flat, expected.flat, rtol=0, atol=1e-15)

    def test_validation_loss_matches_per_sequence_forward(self, monkeypatch):
        # validation runs the batched forward; its means must be those of
        # one forward per item, across batches (12, 9) and (7, 3, 1) of at
        # most 24 padded frames, in item order, and it builds no gradient
        rng = np.random.default_rng(6)
        items = [s for t_len in (7, 1, 12, 3, 9) for s in make_corpus(rng, 1, t_len=t_len)]
        net = tiny_net(seed=6)
        monkeypatch.setattr(model, "_BATCH_FRAMES", 24)
        terms = [training._loss_terms(model.forward(net, s.features), s.displacements) for s in items]
        monkeypatch.setattr(training, "_loss_grad", None)
        lp, lv = training.evaluate_loss(items, net)
        assert lp == float(np.mean([t[0] for t in terms]))
        assert lv == float(np.mean([t[1] for t in terms]))

    def test_frame_mismatch_names_item(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="broken"):
            Sample(
                id="broken",
                features=random_features(rng, 10),
                displacements=DisplacementSequence(frames=np.zeros((9, 5, 3))),
            )

    def test_overfits_single_sample(self):
        # teacher-student sanity run: the target is representable, so 200
        # epochs must crush the loss well below 1% of its starting value
        rng = np.random.default_rng(3)
        items = make_corpus(rng, 1, t_len=40)
        net = tiny_net(seed=3)
        res = training.train(
            items, net, TrainConfig(learning_rate=1e-2, epochs=200, seed=3)
        )
        totals = [row["total"] for row in res.metrics if row["split"] == "train"]
        assert totals[-1] < 0.01 * totals[0]

    def test_deterministic_metrics(self):
        rng = np.random.default_rng(4)
        items = make_corpus(rng, 3)
        runs = []
        for _ in range(2):
            net = tiny_net(seed=4)
            res = training.train(
                items, net, TrainConfig(learning_rate=1e-3, epochs=4, seed=4)
            )
            runs.append([(r["epoch"], r["split"], r["lp"], r["lv"], r["total"]) for r in res.metrics])
        assert runs[0] == runs[1]

    def test_clip_events_reported(self):
        rng = np.random.default_rng(5)
        items = make_corpus(rng, 1)
        # blow up the targets so the first gradients exceed the clip norm
        items[0].displacements = DisplacementSequence(
            frames=items[0].displacements.frames * 1e4
        )
        events = []
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, seed=5)
        training.train(items, tiny_net(seed=5), cfg, sink=events.append)
        clips = [e for e in events if e["event"] == "clip"]
        assert clips
        assert all(math.isfinite(e["norm"]) and e["norm"] > cfg.clip_norm for e in clips)

    def test_one_record_per_epoch(self):
        # the sink and the result hold the same epoch events, in order
        rng = np.random.default_rng(8)
        items, val = make_corpus(rng, 2), make_corpus(rng, 1)
        events = []
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=8)
        res = training.train(items, tiny_net(seed=8), cfg, val_items=val, sink=events.append)
        assert [e for e in events if e["event"] == "epoch"] == res.metrics
        assert [(r["epoch"], r["split"]) for r in res.metrics] == [(e, s) for e in (1, 2, 3) for s in ("train", "val")]
        assert all(r["total"] == cfg.total(r["lp"], r["lv"]) for r in res.metrics)

    def test_validation_tracking_keeps_best(self, tmp_path):
        rng = np.random.default_rng(6)
        items = make_corpus(rng, 2)
        val = make_corpus(np.random.default_rng(7), 1)
        net = tiny_net(seed=6)
        res = training.train(
            items,
            net,
            TrainConfig(learning_rate=1e-3, epochs=3, seed=6),
            val_items=val,
            checkpoint_dir=tmp_path,
        )
        assert res.best_epoch >= 1
        assert (tmp_path / "best.lsn1").exists()
        splits = {row["split"] for row in res.metrics}
        assert splits == {"train", "val"}

    def test_best_params_are_those_of_the_best_validation_epoch(self, tmp_path):
        rng = np.random.default_rng(11)
        items, val = make_corpus(rng, 2), make_corpus(rng, 2)
        # at this rate the last epoch's validation loss is above the third's
        cfg = TrainConfig(learning_rate=3e-3, epochs=4, seed=11, checkpoint_every=1)
        res = training.train(items, tiny_net(seed=11), cfg, val_items=val, checkpoint_dir=tmp_path)
        totals = [row["total"] for row in res.metrics if row["split"] == "val"]
        assert res.best_epoch == 1 + totals.index(min(totals)) < cfg.epochs
        saved = model.load_checkpoint(tmp_path / f"epoch_{res.best_epoch:04d}.lsn1")
        assert res.best_params.flat.tobytes() == saved.flat.tobytes()

    def test_without_validation_the_last_epoch_is_best(self):
        net = tiny_net(seed=10)
        res = training.train(make_corpus(np.random.default_rng(10), 2), net, TrainConfig(epochs=3))
        assert res.best_epoch == 3 and res.best_params is net

    def test_periodic_checkpoints_hold_that_epochs_parameters(self, tmp_path):
        # epochs 1-2 of a 4-epoch run are those of a 2-epoch run from the same start
        items = make_corpus(np.random.default_rng(9), 2)
        at_two, at_four = tiny_net(seed=9), tiny_net(seed=9)
        training.train(items, at_two, TrainConfig(learning_rate=1e-3, epochs=2, seed=9))
        cfg = TrainConfig(learning_rate=1e-3, epochs=4, seed=9, checkpoint_every=2)
        training.train(items, at_four, cfg, checkpoint_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch_0002.lsn1", "epoch_0004.lsn1"]
        for name, net in (("epoch_0002.lsn1", at_two), ("epoch_0004.lsn1", at_four)):
            assert model.load_checkpoint(tmp_path / name).flat.tobytes() == net.flat.tobytes()
        assert at_two.flat.tobytes() != at_four.flat.tobytes()

    def test_periodic_checkpoints_need_a_directory(self):
        net = tiny_net(seed=9)
        start = net.flat.copy()
        with pytest.raises(ConfigError, match="checkpoint_every needs a checkpoint directory"):
            training.train(make_corpus(np.random.default_rng(9), 1), net, train_cfg=TrainConfig(checkpoint_every=2))
        assert np.array_equal(net.flat, start)

    def test_validation_lp_decreases_early(self, corpus60):
        # default optimizer settings on the 50/5/5 corpus: the first five
        # epochs of validation reconstruction loss move strictly downhill
        net = model.init_params(11, 100)
        res = training.train(
            corpus60["train"],
            net,
            TrainConfig(epochs=5, seed=11),
            val_items=corpus60["val"],
        )
        vals = [row["lp"] for row in res.metrics if row["split"] == "val"]
        assert len(vals) == 5
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestMetricsCsv:
    def test_format(self, tmp_path):
        rows = [{"event": "epoch", "split": "train", "epoch": 1, "lp": 0.5, "lv": 0.25, "total": 0.625}]
        training.write_metrics_csv(rows, tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text().splitlines()
        assert text[0] == "epoch,split,lp,lv,total"
        assert text[1] == "1,train,0.5,0.25,0.625"
