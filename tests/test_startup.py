"""Start-up guard: the commands that serve requests never import scipy, and
importing the CLI builds no parser.

Importing scipy.fft and scipy.spatial took about 0.4 s of every command's
start-up. Only gen-corpus needs scipy (the head's convex hull).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lipsync import audio, synthdata

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter: argv[1] is a JSON list of (name, command line).
# Prints the exit code of each command and the scipy modules loaded after it;
# for the import, the number of parsers built in place of an exit code.
_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from lipsync import cli

seen = {"import lipsync.cli": [cli._parser.cache_info().currsize, scipy_modules()]}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[name] = [cli.run(argv), scipy_modules()]
print(json.dumps(seen))
"""


def test_only_gen_corpus_imports_scipy(mini_corpus, tmp_path):
    root = mini_corpus["root"]
    manifest = str(root / "corpus.jsonl")
    head = ["--template", str(root / "template.obj"), "--landmarks", str(root / "template.landmarks.txt")]
    wav, net = str(tmp_path / "clip.wav"), str(tmp_path / "net.lsn1")
    audio.save_wav(synthdata.synth_speech(1.0, np.random.default_rng(0)), wav)
    commands = [
        ("features", ["features", "--wav", wav, "--out", str(tmp_path / "f.lsf1")]),
        ("train", ["train", "--manifest", manifest, "--out", net, "--epochs", "1"]),
        ("infer", ["infer", "--checkpoint", net, "--wav", wav, "--out", str(tmp_path / "a.lsa1")]),
        ("eval", ["eval", "--manifest", manifest, *head, "--checkpoint", net]),
        ("gen-corpus", ["gen-corpus", "--out", str(tmp_path / "corpus"), "--sentences", "3", "--vertices", "20"]),
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert all(code == 0 for code, _ in seen.values()), seen
    for name in ("import lipsync.cli", "features", "train", "infer", "eval"):
        assert seen[name][1] == [], f"{name} loaded {seen[name][1]}"
    assert "scipy.spatial" in seen["gen-corpus"][1]
