"""Start-up guard: each command imports only the modules it runs, and
importing the CLI builds no parser.

Importing scipy.fft and scipy.spatial took about 0.4 s of every command's
start-up; only gen-corpus needs scipy (the head's convex hull). `infer`,
`features` and `export-obj-seq` run no training, evaluation or corpus code,
so they do not import `lipsync.training`, `lipsync.evaluation`,
`lipsync.synthdata`, nor the `json` and `csv` those bring in. `eval` and
`gen-corpus` train nothing, so they do not import `lipsync.training`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lipsync import audio, model, synthdata

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter over the command line in argv[1:], or the
# import alone when there is none; imports no watched module itself. Prints
# the command's exit code (for the import, the number of parsers built) and
# the watched modules left loaded, as a Python literal.
_PROBE = """
import contextlib, io, sys

from lipsync import cli

if len(sys.argv) == 1:
    code = cli._parser.cache_info().currsize
else:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(sys.argv[1:])
watched = ("lipsync.training", "lipsync.evaluation", "lipsync.synthdata", "json", "csv")
print([code, sorted(m for m in sys.modules if m in watched or m.split(".")[0] == "scipy")])
"""

HEAVY = ["csv", "json", "lipsync.evaluation", "lipsync.synthdata", "lipsync.training"]


@pytest.fixture(scope="module")
def loaded(mini_corpus, tmp_path_factory):
    """{command: (exit code, watched modules loaded)}, each command run in
    its own fresh interpreter so that no module one loads is seen by the next."""
    tmp = tmp_path_factory.mktemp("startup")
    root = mini_corpus["root"]
    manifest = str(root / "corpus.jsonl")
    template = ["--template", str(root / "template.obj")]
    head = [*template, "--landmarks", str(root / "template.landmarks.txt")]
    wav, net, anim = str(tmp / "clip.wav"), str(tmp / "net.lsn1"), str(tmp / "a.lsa1")
    audio.save_wav(synthdata.synth_speech(1.0, np.random.default_rng(0)), wav)
    model.save_checkpoint(model.init_params(0, mini_corpus["head"].n_vertices), net)
    commands = {
        "import lipsync.cli": [],
        "features": ["features", "--wav", wav, "--out", str(tmp / "f.lsf1")],
        "infer": ["infer", "--checkpoint", net, "--wav", wav, "--out", anim],
        "export-obj-seq": ["export-obj-seq", "--checkpoint", net, "--wav", wav, *template, "--out", str(tmp / "objs")],
        "traj": ["traj", "--anim", anim, *head, "--out", str(tmp / "traj.csv")],
        "train": ["train", "--manifest", manifest, "--out", str(tmp / "trained.lsn1"), "--epochs", "1"],
        "eval": ["eval", "--manifest", manifest, *head, "--checkpoint", net],
        "gen-corpus": ["gen-corpus", "--out", str(tmp / "corpus"), "--sentences", "3", "--vertices", "20"],
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    seen = {}
    for name, argv in commands.items():  # in order: traj reads the animation infer writes
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        seen[name] = ast.literal_eval(proc.stdout)
    return seen


def test_every_command_succeeds(loaded):
    assert loaded["import lipsync.cli"][0] == 0, "importing the CLI built a parser"
    assert all(code == 0 for name, (code, _) in loaded.items() if name != "import lipsync.cli"), loaded


@pytest.mark.parametrize("name", ["import lipsync.cli", "features", "infer", "export-obj-seq"])
def test_request_commands_load_no_training_evaluation_or_corpus_code(loaded, name):
    assert not set(loaded[name][1]) & set(HEAVY), f"{name} loaded {loaded[name][1]}"


def test_traj_loads_no_training_or_corpus_code(loaded):
    assert "lipsync.evaluation" in loaded["traj"][1]
    assert not {"lipsync.training", "lipsync.synthdata"} & set(loaded["traj"][1]), loaded["traj"][1]


# scipy.spatial imports numpy.testing, which imports csv, so gen-corpus is
# held to training alone.
@pytest.mark.parametrize(
    "name, absent", [("eval", {"lipsync.training", "csv"}), ("gen-corpus", {"lipsync.training"})], ids=["eval", "gen-corpus"]
)
def test_eval_and_gen_corpus_load_no_training_code(loaded, name, absent):
    assert not absent & set(loaded[name][1]), f"{name} loaded {loaded[name][1]}"


def test_only_gen_corpus_imports_scipy(loaded):
    for name, (_, modules) in loaded.items():
        scipy = [m for m in modules if m.split(".")[0] == "scipy"]
        if name == "gen-corpus":
            assert "scipy.spatial" in scipy
        else:
            assert scipy == [], f"{name} loaded {scipy}"


@pytest.mark.parametrize("preset, expected", [(None, ["1", "1"]), ("2", ["2", "1"])], ids=["unset", "openblas-2"])
def test_importing_a_lipsync_module_sets_one_blas_thread_unless_the_environment_names_a_count(preset, expected):
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = f"import os, lipsync.model; print([os.environ.get(var) for var in {threads!r}])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == expected
