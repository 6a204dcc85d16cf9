"""Seeded input generator for the benchmark.

Writes everything one run feeds the program into an empty directory: the
infer checkpoint, the WAV clip set and the training corpus, plus an
``inputs.json`` index the worker reads. The same workload and seed give the
same files byte for byte.

    python3 perfbench/inputs.py --workload infer_16k --seed 1 --out DIR [--tiny]

It imports ``lipsync`` (run it with ``PYTHONPATH=src``) but never times it.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from lipsync import audio, features, mesh, model, synthdata

VERTICES = 100
# Head, oracle, surrogate front end and network initialisation are the fixed
# learning task. The workload seed draws the training sentences only, and the
# validation and test sentences are a fixed held-out set, so the quality
# metrics measure learning and not which four sentences were held out.
TASK_SEED = 2205
SENTENCES = 40  # gen-corpus defaults otherwise: 18:1:1 split, 0.8-1.6 s
EPOCHS = 2

# Every workload trains and evaluates (the same corpus recipe) and then
# streams its own clip set through `lipsync infer`.
WORKLOADS = {
    "infer_16k": {"rates": (16000,), "durations": (0.5, 4.0)},
    # 48 kHz, the usual rate of video soundtracks, fills two of the five slots
    # of each block; that also puts the median request inside one rate's
    # cluster of real-time factors rather than in the gap between two.
    "infer_resample": {"rates": (8000, 22050, 44100, 48000, 48000), "durations": (0.5, 1.5)},
}
CLIPS = 160
TINY = {"clips": 8, "sentences": 6, "epochs": 1}

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def clip_plan(workload: str, seed: int, n_clips: int) -> list[tuple[int, float]]:
    """(rate, duration) per clip in request order.

    Rates are interleaved in a seeded order, one block holding each slot of
    ``rates`` once. Durations follow a seeded golden-ratio sequence per slot,
    so every prefix of the order covers the duration range evenly; a closed
    loop that stops at a deadline still sees the whole range.
    """
    spec = WORKLOADS[workload]
    rates = spec["rates"]
    lo, hi = spec["durations"]
    rng = np.random.default_rng([seed, 1])
    offsets = rng.random(len(rates))
    counts = [0] * len(rates)
    plan = []
    while len(plan) < n_clips:
        for r in rng.permutation(len(rates)):
            u = (offsets[r] + counts[r] * _GOLDEN) % 1.0
            counts[r] += 1
            plan.append((rates[r], lo + (hi - lo) * u))
    return plan[:n_clips]


def write_clips(out: Path, workload: str, seed: int, n_clips: int) -> list[dict]:
    (out / "clips").mkdir()
    clips = []
    for i, (rate, duration) in enumerate(clip_plan(workload, seed, n_clips)):
        rng = np.random.default_rng([seed, 2, i])
        wav = synthdata.synth_speech(duration, rng, sample_rate=rate)
        rel = f"clips/c{i:04d}.wav"
        audio.save_wav(wav, out / rel)
        clips.append({"path": rel, "rate": rate, "samples": len(wav.samples)})
    return clips


def write_corpus(out: Path, seed: int, n_sentences: int) -> dict:
    """Training sentences from the seed, validation and test from TASK_SEED."""
    root = out / "corpus"
    root.mkdir()
    head = synthdata.make_head(VERTICES, seed=TASK_SEED)
    mesh.save_obj(head, root / "template.obj", landmark_path=root / "template.landmarks.txt")
    provider = features.SurrogateProvider.seeded(TASK_SEED)
    oracle = synthdata.OracleArticulator.seeded(head, seed=TASK_SEED)

    def part(name, part_seed, keep):
        made = synthdata.generate_corpus(
            root / name, n_sentences, provider=provider, oracle=oracle, seed=part_seed
        )
        items = [item for item in made.items if keep(item.split)]
        for item in items:
            item.features = f"{name}/{item.features}"
            item.anim = f"{name}/{item.anim}"
        return items

    items = part("seeded", seed, lambda split: split == "train")
    items += part("held_out", TASK_SEED, lambda split: split != "train")
    manifest = synthdata.CorpusManifest(items=items, root=root)
    manifest.save(root / "corpus.jsonl")
    frames = {}
    for split in ("train", "val", "test"):
        paths = [manifest.resolve(item.features) for item in manifest.split(split)]
        frames[split] = {
            "items": len(paths),
            "frames": sum(features.load_features(p).n_frames for p in paths),
        }
    return {
        "manifest": "corpus/corpus.jsonl",
        "template": "corpus/template.obj",
        "landmarks": "corpus/template.landmarks.txt",
        "splits": frames,
    }


def generate(out: Path, workload: str, seed: int, tiny: bool) -> dict:
    n_clips = TINY["clips"] if tiny else CLIPS
    n_sentences = TINY["sentences"] if tiny else SENTENCES
    out.mkdir(parents=True)
    model.save_checkpoint(model.init_params(seed, VERTICES, model.ArchConfig()), out / "model.lsn1")
    index = {
        "workload": workload,
        "seed": seed,
        "vertices": VERTICES,
        "checkpoint": "model.lsn1",
        "clips": write_clips(out, workload, seed, n_clips),
        "corpus": write_corpus(out, seed, n_sentences),
        "epochs": TINY["epochs"] if tiny else EPOCHS,
        "train_seed": TASK_SEED,
    }
    (out / "inputs.json").write_text(json.dumps(index, indent=1) + "\n")
    return index


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path, help="directory to create")
    parser.add_argument("--tiny", action="store_true", help="a few clips and sentences")
    args = parser.parse_args()
    generate(args.out, args.workload, args.seed, args.tiny)


if __name__ == "__main__":
    main()
