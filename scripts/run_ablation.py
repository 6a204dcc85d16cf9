#!/usr/bin/env python3
"""Four-model comparison on a synthetic corpus.

Trains {lstm, lstm+v, conv, conv+v} over several seeds on one generated
corpus and prints the landmark error table per seed plus a trend summary:
whether the velocity loss lowers velocity error and whether the temporal
convolution front end lowers positional error.

The matrix defined here is also the one the acceptance tests train.

Example:
    python3 scripts/run_ablation.py --out /tmp/ablation --epochs 80
"""

import argparse
import multiprocessing
import sys
import time
from collections import defaultdict
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lipsync import evaluation, model, synthdata, training
from lipsync.features import SurrogateProvider
from lipsync.model import ArchConfig
from lipsync.training import TrainConfig

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

VARIANTS = {  # label: (network, velocity loss weight); the LSTM-only network has no conv channels
    "lstm": (ArchConfig(conv_channels=0), 0.0),
    "lstm+v": (ArchConfig(conv_channels=0), 0.5),
    "conv": (ArchConfig(), 0.0),
    "conv+v": (ArchConfig(), 0.5),
}


def build_corpus(out, cfg=ABLATION):
    """Generate the corpus under ``out``; returns (head, train items, test items)."""
    head = synthdata.make_head(cfg["vertices"], seed=cfg["corpus_seed"])
    oracle = synthdata.OracleArticulator.seeded(
        head, seed=cfg["corpus_seed"], smoothing=cfg["smoothing"], anticipation=cfg["anticipation"]
    )
    manifest = synthdata.generate_corpus(
        out,
        cfg["sentences"],
        duration_range=cfg["duration_range"],
        provider=SurrogateProvider.seeded(cfg["corpus_seed"]),
        oracle=oracle,
        seed=cfg["corpus_seed"],
        split_ratio=cfg["split_ratio"],
    )
    return head, synthdata.load_split(manifest, "train"), synthdata.load_split(manifest, "test")


def _train_job(job):
    """Train one (seed, variant) job of the matrix; returns its parameter vector and test EvalReport."""
    head, train_items, test_items, cfg, seed, arch, w_vel = job
    net = model.init_params(seed, cfg["vertices"], arch)
    training.train(
        train_items,
        net,
        TrainConfig(learning_rate=cfg["learning_rate"], epochs=cfg["epochs"], seed=seed, w_velocity=w_vel),
    )
    return net.flat, evaluation.evaluate(net, head, test_items)


def run_matrix(head, train_items, test_items, cfg=ABLATION):
    """Train every variant for every seed; yields (seed, label, trained network, test EvalReport).

    The jobs run in two spawned worker processes, each with the package's
    one-thread BLAS default, so every result is the one a serial run gives;
    they are yielded in seed, then variant order.
    """
    jobs = [(seed, label) for seed in cfg["train_seeds"] for label in VARIANTS]
    args = [(head, train_items, test_items, cfg, seed, *VARIANTS[label]) for seed, label in jobs]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for (seed, label), (flat, report) in zip(jobs, pool.imap(_train_job, args)):
            yield seed, label, model._bind(VARIANTS[label][0], cfg["vertices"], flat), report


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True, help="working directory for the corpus")
    p.add_argument("--seeds", default=",".join(map(str, ABLATION["train_seeds"])),
                   help="comma-separated training seeds")
    p.add_argument("--sentences", type=int, default=ABLATION["sentences"])
    p.add_argument("--vertices", type=int, default=ABLATION["vertices"])
    p.add_argument("--epochs", type=int, default=ABLATION["epochs"])
    return p.parse_args()


def main():
    args = parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    cfg = dict(ABLATION, vertices=args.vertices, sentences=args.sentences, epochs=args.epochs, train_seeds=seeds)
    head, train_items, test_items = build_corpus(Path(args.out), cfg)
    print(
        f"corpus: {len(train_items)} train / {len(test_items)} test sentences, "
        f"V={args.vertices}, smoothing={cfg['smoothing']}, anticipation={cfg['anticipation']}"
    )

    per_seed = defaultdict(dict)
    t0 = time.time()
    for seed, label, _, report in run_matrix(head, train_items, test_items, cfg):
        per_seed[seed][label] = report
        print(f"  seed {seed} {label}: trained in {time.time() - t0:.0f}s")
        t0 = time.time()
        if len(per_seed[seed]) == len(VARIANTS):
            print(f"\nseed {seed}")
            print(evaluation.format_table(per_seed[seed]))
            print()

    n = len(seeds)
    vel_conv = sum(per_seed[s]["conv+v"].vel_all < per_seed[s]["conv"].vel_all for s in seeds)
    vel_lstm = sum(per_seed[s]["lstm+v"].vel_all < per_seed[s]["lstm"].vel_all for s in seeds)
    mouth_conv = sum(per_seed[s]["conv+v"].vel_lip < per_seed[s]["conv"].vel_lip for s in seeds)
    pos = sum(per_seed[s]["conv"].pos_all <= per_seed[s]["lstm"].pos_all for s in seeds)
    print("trend summary")
    print(f"  velocity error lower with velocity loss (conv pair, facial): {vel_conv}/{n}")
    print(f"  velocity error lower with velocity loss (conv pair, mouth):  {mouth_conv}/{n}")
    print(f"  velocity error lower with velocity loss (lstm pair, facial): {vel_lstm}/{n}")
    print(f"  positional error conv <= lstm:                               {pos}/{n}")


if __name__ == "__main__":
    main()
