import struct

import numpy as np
import pytest

from lipsync import features, model, synthdata, training
from lipsync.model import ArchConfig

# Reduced stack for gradient checks and fast unit tests: conv channels 4,
# LSTM 6/6/3/3, small dense head, 5 vertices.
TINY_ARCH = ArchConfig(conv_channels=4, lstm_sizes=(6, 6, 3, 3), fc1_size=10, embedding_size=6)
TINY_ARCH_NO_CONV = ArchConfig(
    conv_channels=4, lstm_sizes=(6, 6, 3, 3), fc1_size=10, embedding_size=6, use_conv=False
)


def tiny_net(seed=0, vertices=5, use_conv=True):
    return model.init_params(seed, vertices, TINY_ARCH if use_conv else TINY_ARCH_NO_CONV)


def random_features(rng, t_len, dim=29):
    return features.FeatureSequence(data=rng.standard_normal((t_len, dim)) * 0.5)


def write_lsn1(path, vertex_count, named):
    """LSN1 bytes from (name bytes, array) pairs, written independently of save_checkpoint."""
    blobs = [b"LSN1", struct.pack("<II", vertex_count, len(named))]
    for name, arr in named:
        blobs += [struct.pack("<I", len(name)), name, struct.pack("<I", arr.ndim)]
        blobs += [struct.pack(f"<{arr.ndim}I", *arr.shape), arr.astype("<f8").tobytes()]
    path.write_bytes(b"".join(blobs))


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """Small corpus + head for CLI and evaluation tests: 8 sentences, V=40."""
    root = tmp_path_factory.mktemp("mini_corpus")
    head = synthdata.make_head(40, seed=5)
    from lipsync import mesh

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


# Ablation matrix configuration (acceptance criteria on trend reproduction).
# The corpus is fixed; the four seeds vary initialization and epoch order.
# The oracle anticipates two future feature frames (mouth leads sound), so
# the temporal window of the conv stack carries signal the strictly causal
# LSTM cannot reach, and its smoothing keeps the ground truth less jittery
# than the features that drive it.
ABLATION = {
    "corpus_seed": 100,
    "vertices": 40,
    "sentences": 14,
    "split_ratio": (8, 2, 4),
    "duration_range": (0.7, 1.1),
    "smoothing": 0.75,
    "anticipation": 2,
    "epochs": 80,
    "learning_rate": 1e-3,
    "train_seeds": (0, 1, 2, 3),
}


@pytest.fixture(scope="session")
def ablation_results(tmp_path_factory):
    """Train the four-model matrix over four seeds on one synthetic corpus.

    Returns per-seed EvalReports plus per-sentence upper-lip trajectory
    stats (mean |dv| and motion range) for every model variant.
    """
    from lipsync import evaluation

    cfg = ABLATION
    root = tmp_path_factory.mktemp("ablation")
    head = synthdata.make_head(cfg["vertices"], seed=cfg["corpus_seed"])
    provider = features.SurrogateProvider.seeded(cfg["corpus_seed"])
    oracle = synthdata.OracleArticulator.seeded(
        head,
        seed=cfg["corpus_seed"],
        smoothing=cfg["smoothing"],
        anticipation=cfg["anticipation"],
    )
    manifest = synthdata.generate_corpus(
        root,
        cfg["sentences"],
        duration_range=cfg["duration_range"],
        provider=provider,
        oracle=oracle,
        seed=cfg["corpus_seed"],
        split_ratio=cfg["split_ratio"],
    )
    train_items = synthdata.load_split(manifest, "train")
    test_items = synthdata.load_split(manifest, "test")
    lip_col = evaluation.default_lip_landmark(head)

    variants = {
        "lstm": (False, 0.0),
        "lstm+v": (False, 0.5),
        "conv": (True, 0.0),
        "conv+v": (True, 0.5),
    }

    results = {}
    for seed in cfg["train_seeds"]:
        per_variant = {}
        for label, (use_conv, w_vel) in variants.items():
            net = model.init_params(seed, cfg["vertices"], ArchConfig(use_conv=use_conv))
            outcome = training.train(
                train_items,
                net,
                training.LossConfig(w_velocity=w_vel),
                training.TrainConfig(
                    learning_rate=cfg["learning_rate"], epochs=cfg["epochs"], seed=seed
                ),
            )
            report = evaluation.evaluate(outcome.params, head, test_items)
            traj_stats = {}
            for s in test_items:
                pred = model.forward(outcome.params, s.features)
                traj = evaluation.project_landmarks(head, pred)
                v_col = traj[:, lip_col, 1]
                traj_stats[s.id] = {
                    "jitter": float(np.abs(np.diff(v_col)).mean()),
                    "range": float(v_col.max() - v_col.min()),
                }
            per_variant[label] = {"report": report, "traj": traj_stats}
        results[seed] = per_variant

    truth_stats = {}
    for s in test_items:
        traj = evaluation.project_landmarks(head, s.displacements)
        v_col = traj[:, lip_col, 1]
        truth_stats[s.id] = {
            "jitter": float(np.abs(np.diff(v_col)).mean()),
            "range": float(v_col.max() - v_col.min()),
        }
    return {"per_seed": results, "truth": truth_stats, "config": cfg}
