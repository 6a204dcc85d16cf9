"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Quantitative targets from the original study are not reproducible on a
synthetic desk-scale corpus, so the gate checks exact numerics (gradients,
shapes, identities, determinism) plus reproduction of the reported orderings
(velocity-loss and conv-vs-recurrent trends).
"""

import time

import numpy as np

from conftest import ABLATION, random_features, tiny_net
from lipsync import audio, cli, evaluation, features, mesh, model, synthdata, training
from lipsync.features import SurrogateProvider
from lipsync.mesh import DisplacementSequence
from lipsync.training import TrainConfig


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def scalar_loss(net, feats, truth, cfg):
    pred, _ = model.forward_with_cache(net, feats)
    total, _ = training.loss_total(pred, truth, cfg)
    return total


def test_1_gradient_fidelity(capsys):
    """BPTT gradients vs central finite differences on the reduced network.

    Relative error below 1e-4 per parameter, with an absolute guard of 1e-10
    for near-zero gradients where the difference quotient itself carries
    ~1e-11 of f64 cancellation noise.
    """
    start = time.time()
    eps = 1e-5
    worst = 0.0
    n_params = 0
    for seed in (0, 1, 2):
        net = tiny_net(seed=seed)
        rng = np.random.default_rng(seed + 500)
        feats = random_features(rng, 9)
        truth = DisplacementSequence(frames=rng.standard_normal((9, 5, 3)) * 0.1)
        cfg = TrainConfig()
        pred, tape = model.forward_with_cache(net, feats)
        _, dpred = training.loss_total(pred, truth, cfg)
        grads = model.backward(net, tape, dpred)
        for (name, arr), (_, g) in zip(net.items(), grads.items()):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                up = scalar_loss(net, feats, truth, cfg)
                arr[ix] = orig - eps
                down = scalar_loss(net, feats, truth, cfg)
                arr[ix] = orig
                fd = (up - down) / (2 * eps)
                excess = abs(g[ix] - fd) - 1e-10
                worst = max(worst, excess / max(abs(fd), abs(g[ix]), 1e-10))
                n_params += 1
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(
        capsys, 1, "gradient-fidelity", ok,
        f"{n_params} params over 3 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_2_loss_gradient_fidelity(capsys):
    """Analytic combined-loss gradient vs finite differences on 3x2x3 tensors.

    The loss is quadratic in the prediction, so central differences carry no
    truncation error and a wide step only suppresses cancellation noise.
    """
    worst = 0.0
    eps = 1e-3
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((3, 2, 3))
        truth = rng.standard_normal((3, 2, 3))
        cfg = TrainConfig()
        _, grad = training.loss_total(pred, truth, cfg)
        it = np.nditer(pred, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            bumped = pred.copy()
            bumped[ix] += eps
            up, _ = training.loss_total(bumped, truth, cfg)
            bumped[ix] -= 2 * eps
            down, _ = training.loss_total(bumped, truth, cfg)
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(grad[ix] - fd) / max(1e-12, abs(fd), abs(grad[ix])))
    ok = worst < 1e-8
    report(capsys, 2, "loss-gradient-fidelity", ok, f"worst rel err {worst:.2e}")


def test_3_shape_contract(capsys, tmp_path):
    """A T-second WAV produces exactly round(60 T) output frames end to end,
    at 16 kHz and through the resampler from 8, 44.1 and 48 kHz."""
    ckpt = tmp_path / "net.lsn1"
    model.save_checkpoint(model.init_params(0, 5), ckpt)
    results = []
    for rate in (16000, 8000, 44100, 48000):
        for seconds in (0.5, 1.0, 2.0, 3.7):
            wav_path = tmp_path / f"clip_{rate}_{seconds}.wav"
            audio.save_wav(synthdata.synth_speech(seconds, np.random.default_rng(1), rate), wav_path)
            out = tmp_path / f"anim_{rate}_{seconds}.lsa1"
            code = cli.run(
                ["infer", "--checkpoint", str(ckpt), "--wav", str(wav_path), "--out", str(out)]
            )
            frames = mesh.load_anim(out).n_frames if code == 0 else -1
            label = f"{seconds}s" if rate == 16000 else f"{rate / 1000:g}kHz {seconds}s"
            results.append((label, frames, round(60 * seconds)))
    ok = all(got == want for _, got, want in results)
    report(capsys, 3, "shape-contract", ok, ", ".join(f"{s}->{g} (want {w})" for s, g, w in results))


def test_4_learnability(capsys, corpus60):
    """Training the full architecture explains >90% of held-out variance."""
    start = time.time()
    net = model.init_params(11, 100)
    res = training.train(
        corpus60["train"],
        net,
        TrainConfig(learning_rate=2e-3, epochs=40, seed=11),
        val_items=corpus60["val"],
    )
    elapsed = time.time() - start
    val_lp = [r.lp for r in res.metrics if r.split == "val"][-1]
    truth = np.concatenate(
        [s.displacements.frames.astype(np.float64).ravel() for s in corpus60["val"]]
    )
    variance = truth.var()
    # val_lp is a per-frame Frobenius norm over V*3 entries; compare per entry
    rel_mse = (val_lp / (3 * 100)) / variance
    ok = rel_mse < 0.10 and elapsed < 900.0
    report(
        capsys, 4, "learnability", ok,
        f"50 train sentences, 40 epochs, rel MSE {rel_mse:.4f} (limit 0.10), {elapsed:.0f}s",
    )


def test_5_ablation_trend(capsys, ablation_results):
    """Orderings of the four-model matrix match the reported directions."""
    seeds = list(ablation_results["per_seed"])
    per = ablation_results["per_seed"]

    vel_conv = sum(per[s]["conv+v"]["report"].vel_all < per[s]["conv"]["report"].vel_all for s in seeds)
    vel_conv_lip = sum(
        per[s]["conv+v"]["report"].vel_lip < per[s]["conv"]["report"].vel_lip for s in seeds
    )
    vel_lstm = sum(per[s]["lstm+v"]["report"].vel_all < per[s]["lstm"]["report"].vel_all for s in seeds)
    pos = sum(per[s]["conv"]["report"].pos_all <= per[s]["lstm"]["report"].pos_all for s in seeds)

    ok = vel_conv >= 3 and vel_conv_lip >= 3 and pos >= 3
    report(
        capsys, 5, "ablation-trend", ok,
        f"velocity lower with v-loss: conv {vel_conv}/4 facial, {vel_conv_lip}/4 mouth, "
        f"lstm {vel_lstm}/4 facial; positional conv<=lstm {pos}/4",
    )


def test_6_smoothing_effect(capsys, ablation_results):
    """The v-loss model's upper-lip trajectory jitters less on every test sentence."""
    per = ablation_results["per_seed"]
    seed = ABLATION["train_seeds"][0]
    base = per[seed]["lstm"]["traj"]
    smoothed = per[seed]["lstm+v"]["traj"]

    reduced = {sid: smoothed[sid]["jitter"] < base[sid]["jitter"] for sid in base}
    range_change = {
        sid: smoothed[sid]["range"] - base[sid]["range"] for sid in base
    }
    seeds_all_reduced = sum(
        all(
            per[s]["lstm+v"]["traj"][sid]["jitter"] < per[s]["lstm"]["traj"][sid]["jitter"]
            for sid in base
        )
        for s in per
    )
    ok = all(reduced.values())
    detail = (
        f"seed {seed}: jitter reduced on {sum(reduced.values())}/{len(reduced)} sentences "
        f"(all-sentence reduction in {seeds_all_reduced}/4 seeds); "
        "range change px: "
        + ", ".join(f"{sid} {d:+.3f}" for sid, d in range_change.items())
    )
    report(capsys, 6, "smoothing-effect", ok, detail)


def test_7_metric_identities(capsys, mini_corpus):
    head = mini_corpus["head"]
    samples = synthdata.load_split(mini_corpus["manifest"], "test")

    self_report = evaluation.evaluate_self(head, samples)
    zeros = (
        self_report.pos_all == 0.0
        and self_report.pos_lip == 0.0
        and self_report.vel_all == 0.0
        and self_report.vel_lip == 0.0
    )

    rng = np.random.default_rng(0)
    truth = rng.integers(-20, 21, size=(8, 5, 2)).astype(np.float64) / 8.0
    offset_invariant = (
        evaluation.velocity_error(truth + np.array([2.5, -1.25]), truth) == 0.0
    )

    pred_d = DisplacementSequence(frames=rng.standard_normal((6, head.n_vertices, 3)) * 0.01)
    truth_d = DisplacementSequence(frames=rng.standard_normal((6, head.n_vertices, 3)) * 0.01)
    errs = {}
    for scale in (100.0, 200.0):
        cfg = evaluation.ProjectionConfig(px_per_unit=scale)
        pt = evaluation.project_landmarks(head, pred_d, cfg=cfg)
        tt = evaluation.project_landmarks(head, truth_d, cfg=cfg)
        errs[scale] = (evaluation.positional_error(pt, tt), evaluation.velocity_error(pt, tt))
    linear = errs[200.0][0] == 2.0 * errs[100.0][0] and errs[200.0][1] == 2.0 * errs[100.0][1]

    ok = zeros and offset_invariant and linear
    report(
        capsys, 7, "metric-identities", ok,
        f"self-eval zeros {zeros}, offset invariance {offset_invariant}, pixel-scale linearity {linear}",
    )


def test_8_pipeline_determinism(capsys, tmp_path):
    """gen-corpus -> train 2 epochs -> eval, twice with seed 7, byte-identical logs."""
    outputs = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        corpus = run_dir / "corpus"
        assert cli.run(
            ["gen-corpus", "--out", str(corpus), "--sentences", "6", "--vertices", "40",
             "--seed", "7", "--min-dur", "0.6", "--max-dur", "0.9"]
        ) == 0
        ckpt = run_dir / "model.lsn1"
        metrics = run_dir / "metrics.csv"
        assert cli.run(
            ["train", "--manifest", str(corpus / "corpus.jsonl"), "--out", str(ckpt),
             "--metrics", str(metrics), "--epochs", "2", "--lr", "1e-3", "--seed", "7"]
        ) == 0
        report_json = run_dir / "report.json"
        assert cli.run(
            ["eval", "--manifest", str(corpus / "corpus.jsonl"),
             "--template", str(corpus / "template.obj"),
             "--landmarks", str(corpus / "template.landmarks.txt"),
             "--checkpoint", str(ckpt), "--out", str(report_json)]
        ) == 0
        outputs.append((metrics.read_bytes(), report_json.read_bytes(), ckpt.read_bytes()))

    same_metrics = outputs[0][0] == outputs[1][0]
    same_report = outputs[0][1] == outputs[1][1]
    same_ckpt = outputs[0][2] == outputs[1][2]
    ok = same_metrics and same_report and same_ckpt
    report(
        capsys, 8, "pipeline-determinism", ok,
        f"metrics CSV identical {same_metrics}, eval JSON identical {same_report}, "
        f"checkpoint identical {same_ckpt}",
    )


def test_9_dsp_invariants(capsys):
    t = np.arange(16000) / 16000.0
    broadband = (
        np.sin(2 * np.pi * 250 * t)
        + 0.4 * np.sin(2 * np.pi * 1300 * t + 0.7)
        + 0.5 * np.sin(2 * np.pi * 50 * t)
        + 0.3 * np.random.default_rng(9).standard_normal(len(t))
    )
    raw = broadband * (0.5 * (1 - np.cos(2 * np.pi * 4 * t)) + 0.3)
    base = audio.Waveform(samples=raw * (0.98 / (4.0 * np.abs(raw).max())), sample_rate=16000)
    ref = audio.mfcc(base).frames
    gain_ok = True
    for gain in (0.1, 0.5, 2.0, 4.0):
        scaled = audio.mfcc(
            audio.Waveform(samples=base.samples * gain, sample_rate=16000)
        ).frames
        gain_ok &= bool(np.allclose(scaled[:, 1:], ref[:, 1:], rtol=1e-6, atol=1e-9))

    frames_ok = audio.mfcc(base).n_frames == 98
    for n in (400, 7003, 16000, 31999):
        w = audio.Waveform(samples=np.zeros(n), sample_rate=16000)
        frames_ok &= audio.mfcc(w).n_frames == (n - 400) // 160 + 1

    seq = features.surrogate_features(
        audio.mfcc(synthdata.synth_speech(1.3, np.random.default_rng(2))),
        SurrogateProvider.seeded(2),
    )
    simplex_ok = bool(seq.data.min() >= 0.0 and np.allclose(seq.data.sum(axis=1), 1.0, atol=1e-6))

    ok = gain_ok and frames_ok and simplex_ok
    report(
        capsys, 9, "dsp-invariants", ok,
        f"gain invariance {gain_ok}, frame-count formula {frames_ok}, simplex preserved {simplex_ok}",
    )
