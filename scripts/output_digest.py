#!/usr/bin/env python3
"""Digest of every output of a fixed CLI chain, for byte-identity checks.

Runs gen-corpus, train (conv-lstm at batch size 1, lstm at batch size 3),
eval, infer, features, traj and export-obj-seq in a temporary directory,
then builds the ablation corpus, and prints one ``sha256  name`` line for
each command's stdout and for every file written. The infer requests wait
until ``net.lsn1`` is old enough for the CLI to keep its network, so all but
the first reuse the network the first one loaded. For each input WAV it
also prints the digest of every float64 stage that infer computes: the
16 kHz samples, the MFCCs, the surrogate features and the network output.
LSA1 and LSF1 files store float32, so those lines show a change that
float32 rounding hides in the files.
Two checkouts that print the same lines wrote the same bytes. Paths are
relative to the temporary directory, so runs compare across machines.
BLAS runs on one thread unless the environment sets another count.

Example:
    python3 scripts/output_digest.py > after.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lipsync  # noqa: E402,F401  (before numpy: sets the one-thread BLAS default)
import numpy as np  # noqa: E402

from lipsync import audio, cli, features, model, synthdata  # noqa: E402
from run_ablation import build_corpus  # noqa: E402

CORPUS = ["--manifest", "corpus/corpus.jsonl"]
TEMPLATE = ["--template", "corpus/template.obj"]
HEAD = [*TEMPLATE, "--landmarks", "corpus/template.landmarks.txt"]

# (name of the stdout digest, command line)
CHAIN = [
    ("gen-corpus", ["gen-corpus", "--out", "corpus", "--sentences", "8", "--vertices", "40", "--seed", "3"]),
    ("train", ["train", *CORPUS, "--out", "net.lsn1", "--epochs", "2", "--metrics", "metrics.csv"]),
    # LSTM-only at batch size 3: the first LSTM reads the 29-dim features,
    # and each step sums the gradients of three sentences.
    ("train-lstm-batch3", ["train", *CORPUS, "--out", "lstm.lsn1", "--arch", "lstm", "--batch-size", "3",
                           "--epochs", "2", "--metrics", "metrics-lstm.csv"]),
    ("eval-test-lstm", ["eval", *CORPUS, *HEAD, "--split", "test", "--checkpoint", "lstm.lsn1",
                        "--out", "eval-test-lstm.json"]),
    *(
        (f"eval-{split}-{label}", ["eval", *CORPUS, *HEAD, "--split", split, *scorer,
                                   "--out", f"eval-{split}-{label}.json"])
        for split in ("train", "val", "test")
        for label, scorer in (("checkpoint", ["--checkpoint", "net.lsn1"]), ("self-test", ["--self-test"]))
    ),
    ("infer-16k", ["infer", "--checkpoint", "net.lsn1", "--wav", "16000.wav", "--out", "16000.lsa1"]),
    ("infer-44k", ["infer", "--checkpoint", "net.lsn1", "--wav", "44100.wav", "--out", "44100.lsa1"]),
    ("infer-8k", ["infer", "--checkpoint", "net.lsn1", "--wav", "8000.wav", "--out", "8000.lsa1"]),
    ("infer-48k", ["infer", "--checkpoint", "net.lsn1", "--wav", "48000.wav", "--out", "48000.lsa1"]),
    ("features-surrogate", ["features", "--wav", "44100.wav", "--out", "surrogate.lsf1"]),
    ("traj", ["traj", "--anim", "16000.lsa1", *HEAD, "--out", "traj.csv"]),
    ("export-obj-seq", ["export-obj-seq", "--checkpoint", "net.lsn1", "--wav", "16000.wav", *TEMPLATE, "--out", "objs"]),
]


RATES = (8000, 11025, 16000, 22050, 44100, 48000)  # of the input WAVs, one "{rate}.wav" each


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def float64_stages(wav_path, net):
    """(stage name, float64 array) for each step of infer's path from a WAV to the network output."""
    w = audio.resample(audio.load_wav(wav_path))
    frames = audio.mfcc(w)
    seq = features.surrogate_features(frames, features.SurrogateProvider.seeded(0))
    out = model.forward(net, seq)
    return [("resampled", w.samples), ("mfcc", frames.frames), ("surrogate", seq.data), ("forward", out.frames)]


def wait_until_settled(path):
    """Sleep until the CLI keeps the network it loads from ``path``."""
    ready_ns = os.stat(path).st_ctime_ns + cli._SETTLE_NS
    time.sleep(max(0, ready_ns - time.time_ns()) / 1e9 + 0.01)


def digest_chain():
    """Run the chain in the current directory and print the digests."""
    for rate in RATES:
        wav = synthdata.synth_speech(0.5, np.random.default_rng(rate), sample_rate=rate)
        audio.save_wav(wav, f"{rate}.wav")
    for name, argv in CHAIN:
        if name == "infer-16k":  # the first of the four infer requests over net.lsn1
            wait_until_settled("net.lsn1")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        if code:
            raise SystemExit(f"exit {code}: lipsync {' '.join(argv)}")
        print(f"{sha256(out.getvalue().encode())}  stdout:{name}")
    net = model.load_checkpoint("net.lsn1")
    for rate in RATES:
        for stage, values in float64_stages(f"{rate}.wav", net):
            print(f"{sha256(np.ascontiguousarray(values, dtype='<f8').tobytes())}  float64:{rate}.{stage}")
    build_corpus(Path("ablation"))
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{sha256(path.read_bytes())}  {path.as_posix()}")


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digest_chain()
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
