import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import run_ablation

from lipsync import evaluation, model, training

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_ablation_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_ablation.py"), "--out", str(tmp_path),
         "--seeds", "0", "--epochs", "1", "--sentences", "6", "--vertices", "20"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trend summary" in proc.stdout


def test_run_matrix_workers_match_serial_training(tmp_path, monkeypatch):
    # the worker processes return the parameters and reports that training
    # the same jobs in this process gives, bit for bit and in matrix order
    variants = {label: run_ablation.VARIANTS[label] for label in ("lstm", "conv+v")}
    monkeypatch.setattr(run_ablation, "VARIANTS", variants)
    cfg = dict(run_ablation.ABLATION, sentences=6, vertices=20, epochs=3, train_seeds=(1,))
    head, train_items, test_items = run_ablation.build_corpus(tmp_path, cfg)
    pooled = list(run_ablation.run_matrix(head, train_items, test_items, cfg))
    assert [(seed, label) for seed, label, _, _ in pooled] == [(1, "lstm"), (1, "conv+v")]
    for seed, label, net, report in pooled:
        arch, w_vel = variants[label]
        serial = model.init_params(seed, cfg["vertices"], arch)
        training.train(
            train_items,
            serial,
            training.TrainConfig(learning_rate=cfg["learning_rate"], epochs=cfg["epochs"], seed=seed, w_velocity=w_vel),
        )
        assert net.arch == arch
        assert np.array_equal(net.flat, serial.flat)
        assert report == evaluation.evaluate(serial, head, test_items)


def test_output_digest_covers_every_output():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digest.py")], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    digests = dict(reversed(line.split("  ", 1)) for line in proc.stdout.splitlines())
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests.values())
    for name in (
        "stdout:train", "stdout:eval-test-self-test", "stdout:export-obj-seq", "corpus/corpus.jsonl",
        "net.lsn1", "metrics.csv", "eval-val-checkpoint.json", "44100.lsa1", "surrogate.lsf1", "traj.csv",
        "objs/frame_0000.obj", "ablation/corpus.jsonl", "stdout:train-lstm-batch3", "lstm.lsn1",
        "stdout:infer-8k", "8000.lsa1", "stdout:infer-48k", "48000.lsa1", "11025.wav", "22050.wav",
        *(f"float64:{rate}.{stage}" for rate in (8000, 11025, 16000, 22050, 44100, 48000)
          for stage in ("resampled", "mfcc", "surrogate", "forward")),
    ):
        assert name in digests
    # The committed digest pins every output byte; a change that alters bytes
    # on purpose regenerates the file and says why.
    assert proc.stdout == (Path(__file__).parent / "output_digest.txt").read_text()


def plot(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "plot_trajectory.py"), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


def write_traj(path, values):
    path.write_text("frame,v_pixels\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(values)))
    return path


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is not None, reason="matplotlib is installed")
def test_plot_trajectory_without_matplotlib(tmp_path):
    csv = write_traj(tmp_path / "truth.csv", [0.0, 1.5, -0.5])
    proc = plot(csv, "-o", tmp_path / "curves.png")
    assert proc.returncode != 0
    assert proc.stderr.startswith("plotting needs matplotlib") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "curves.png").exists()


def test_plot_trajectory_writes_png(tmp_path):
    pytest.importorskip("matplotlib")
    truth = write_traj(tmp_path / "truth.csv", [0.0, 1.5, -0.5, 0.25])
    pred = write_traj(tmp_path / "pred.csv", [0.1, 1.2, -0.4, 0.3])
    proc = plot(truth, pred, "-o", tmp_path / "curves.png")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curves.png").read_bytes().startswith(b"\x89PNG")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_seed_list():
    ab = load_script("ab_pairs")
    assert ab.seed_list("100-103") == [100, 101, 102, 103]
    assert ab.seed_list("3,5-6,9") == [3, 5, 6, 9]


def test_ab_pairs_summary_counts_wins_and_claims():
    ab = load_script("ab_pairs")

    def run(rtf, frames, failed=0):
        metrics = {"rtf_p50": {"value": rtf}, "train_frames_per_s": {"value": frames}, "val_loss_final": {"value": 0.5}}
        return {"failed": failed, "metrics": metrics}

    # rtf wins 9 of 10 by far more than the parent's spread; frames/s wins 5
    pairs = [(run(0.010 + 0.0001 * n, 100.0), run(0.008 if n else 0.011, 100.0 + (-1) ** n)) for n in range(10)]
    pairs[3] = (pairs[3][0], run(0.008, 99.0, failed=2))
    better = {"rtf_p50": "lower", "train_frames_per_s": "higher", "val_loss_final": "lower"}
    lines = ab.summarize(pairs, better)
    rows = {line.split()[0]: line.split() for line in lines[1:-1]}
    assert rows["rtf_p50"][-3:] == ["9/10", "0", "yes"]
    assert rows["train_frames_per_s"][-3:] == ["5/10", "0", "no"]
    assert rows["val_loss_final"][-3:] == ["0/10", "10", "no"]
    assert lines[-1] == "failed operations: parent 0, change 2"


def test_ab_pairs_imports_smoke():
    checkout = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_pairs.py"), str(checkout), str(checkout), "--imports", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "import lipsync.cli: 2 of 2 pairs timed" in proc.stdout
    row = next(line for line in proc.stdout.splitlines() if line.startswith("import_s "))
    *_, wins, _, claim = row.split()
    assert wins.endswith("/2") and claim in ("yes", "no")
