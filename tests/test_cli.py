import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import OTHER_WIDTHS, mutate, other_width_tensors, write_lsn1
from lipsync import audio, cli, features, mesh, model, synthdata, training
from lipsync.errors import UsageError
from lipsync.features import FeatureKind


def run_cli(*argv):
    return cli.run(list(argv))


@pytest.fixture(scope="module")
def wav_2s(tmp_path_factory):
    p = tmp_path_factory.mktemp("wav") / "two_seconds.wav"
    w = synthdata.synth_speech(2.0, np.random.default_rng(0))
    audio.save_wav(w, p)
    return p


def wav_file(fmt: bytes, data: bytes) -> bytes:
    """A RIFF/WAVE file of this fmt chunk body and data chunk body."""
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def extensible_fmt(channels, rate, subformat_tag) -> bytes:
    """A 16-bit WAVE_FORMAT_EXTENSIBLE fmt chunk body whose SubFormat GUID starts with ``subformat_tag``
    (1 PCM, 3 IEEE float)."""
    fields = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, 2 * channels * rate, 2 * channels, 16, 22, 16, 0)
    return fields + struct.pack("<H", subformat_tag) + bytes.fromhex("000000001000800000aa00389b71")


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """Untrained full-width network over a tiny 5-vertex decoder."""
    p = tmp_path_factory.mktemp("ckpt") / "net.lsn1"
    model.save_checkpoint(model.init_params(0, 5), p)
    return p


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run_cli() == 1

    def test_unknown_flag(self, capsys):
        assert run_cli("infer", "--bogus", "x") == 1
        assert "usage error" in capsys.readouterr().err

    def test_epochs_zero_rejected(self, mini_corpus, tmp_path):
        code = run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "m.lsn1"),
            "--epochs", "0",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value", [("--w-pos", "-1"), ("--batch-size", "0"), ("--lr", "nan"), ("--clip-norm", "-1")]
    )
    def test_bad_train_config_is_one_line(self, mini_corpus, tmp_path, capsys, flag, value):
        out = tmp_path / "m.lsn1"
        code = run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(out),
            "--epochs", "1",
            flag, value,
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("gen-corpus", ["--sentences", "2"]),
            ("gen-corpus", ["--vertices", "10"]),
            ("gen-corpus", ["--min-dur", "-1"]),
            ("eval", ["--self-test", "--px-per-unit", "0"]),
            ("traj", ["--px-per-unit", "-1"]),
        ],
    )
    def test_bad_flag_value_is_one_line(self, mini_corpus, tmp_path, capsys, command, flags):
        root, manifest = mini_corpus["root"], mini_corpus["manifest"]
        head = ["--template", str(root / "template.obj"), "--landmarks", str(root / "template.landmarks.txt")]
        anim = manifest.resolve(manifest.split("test")[0].anim)
        required = {
            "gen-corpus": ["--out", str(tmp_path / "corpus")],
            "eval": ["--manifest", str(root / "corpus.jsonl"), *head],
            "traj": ["--anim", str(anim), "--out", str(tmp_path / "traj.csv"), *head],
        }[command]
        code = run_cli(command, *flags, *required)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    # train's flags are parsed as text and cast with the config file's values
    @pytest.mark.parametrize(
        "flag, value", [("--epochs", "x"), ("--lr", "abc"), ("--batch-size", "1.5"), ("--seed", "-1")]
    )
    def test_bad_train_flag_names_the_flag(self, mini_corpus, tmp_path, capsys, flag, value):
        out = tmp_path / "m.lsn1"
        code = run_cli("train", "--manifest", str(mini_corpus["root"] / "corpus.jsonl"), "--out", str(out), flag, value)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1 and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--help"], *([name, "--help"] for name in cli._COMMANDS), [], ["bogus"], ["infer"], ["train", "--epochs", "x"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_parser_output_matches_the_full_parser(self, argv, capsys):
        # run parses with its cached parser; what it prints must be what a
        # freshly built one prints
        code = run_cli(*argv)
        printed = capsys.readouterr()
        fresh = cli._parser.__wrapped__()
        try:
            args = fresh.parse_args(argv)
        except SystemExit as exc:
            assert (code, printed.out) == (exc.code, capsys.readouterr().out)
        except UsageError as exc:
            assert (code, printed.err) == (1, f"usage error: {exc}\n")
        else:
            assert args.command is None and code == 1
            fresh.print_usage(sys.stderr)
            assert printed.err == capsys.readouterr().err

    def test_infer_needs_exactly_one_input(self, tiny_checkpoint, tmp_path):
        code = run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--out", str(tmp_path / "o.lsa1"))
        assert code == 1


class TestDataErrors:
    def test_missing_wav_is_exit_2(self, tiny_checkpoint, tmp_path):
        code = run_cli(
            "infer",
            "--checkpoint", str(tiny_checkpoint),
            "--wav", str(tmp_path / "absent.wav"),
            "--out", str(tmp_path / "o.lsa1"),
        )
        assert code == 2

    def test_corrupt_checkpoint_is_exit_2(self, tmp_path, wav_2s, capsys):
        bad = tmp_path / "bad.lsn1"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = run_cli(
            "infer", "--checkpoint", str(bad), "--wav", str(wav_2s), "--out", str(tmp_path / "o.lsa1")
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("defect", ["shape", "name", *OTHER_WIDTHS])
    def test_malformed_checkpoint_is_exit_2(self, tmp_path, wav_2s, capsys, defect):
        named = [(name.encode(), arr) for name, arr in model.init_params(0, 5).items()]
        if defect == "shape":
            named[0] = (named[0][0], np.zeros((32, 30, 5)))
        elif defect == "name":
            named[0] = (b"conv1.\xffkernels", named[0][1])
        else:
            named = other_width_tensors(defect)
        bad = tmp_path / "bad.lsn1"
        write_lsn1(bad, 5, named)
        code = run_cli(
            "infer", "--checkpoint", str(bad), "--wav", str(wav_2s), "--out", str(tmp_path / "o.lsa1")
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nan_checkpoint_is_exit_2(self, tmp_path, wav_2s, capsys):
        named = [(name.encode(), arr.copy()) for name, arr in model.init_params(0, 5).items()]
        named[3][1].flat[0] = np.nan
        bad = tmp_path / "nan.lsn1"
        write_lsn1(bad, 5, named)
        out = tmp_path / "o.lsa1"
        code = run_cli("infer", "--checkpoint", str(bad), "--wav", str(wav_2s), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("rows", [np.full((120, 29), np.nan), np.zeros((0, 29))])
    def test_nan_or_empty_features_are_exit_2(self, tiny_checkpoint, tmp_path, capsys, rows):
        feats = tmp_path / "f.lsf1"
        feats.write_bytes(b"LSF1" + struct.pack("<IIIB", *rows.shape, 60, 0) + rows.astype("<f4").tobytes())
        out = tmp_path / "o.lsa1"
        code = run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--features", str(feats), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_training_is_exit_2_without_checkpoint(self, mini_corpus, tmp_path, monkeypatch, capsys):
        def nan_net(seed, vertex_count, arch):
            net = model._bind(arch, vertex_count)
            net.flat[...] = np.nan
            return net

        monkeypatch.setattr(model, "init_params", nan_net)
        out = tmp_path / "m.lsn1"
        code = run_cli(
            "train", "--manifest", str(mini_corpus["root"] / "corpus.jsonl"), "--out", str(out),
            "--epochs", "1", "--checkpoint-dir", str(tmp_path / "ckpts"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite" in err and err.count("\n") == 1
        assert "optimizer step" not in err  # the initial weights, not a step, made the loss non-finite
        assert not out.exists()
        assert list((tmp_path / "ckpts").iterdir()) == []

    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB for an array"])
    def test_memory_error_is_exit_2(self, tiny_checkpoint, wav_2s, tmp_path, monkeypatch, capsys, message):
        def exhausted(net, seq):
            raise MemoryError(message)

        monkeypatch.setattr(model, "forward", exhausted)
        out = tmp_path / "o.lsa1"
        code = run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--wav", str(wav_2s), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: out of memory") and message in err and err.count("\n") == 1
        assert not out.exists()


class TestInfer:
    def test_peak_memory(self, tmp_path):
        # the checkpoint's parameter vector is read once, in place; each
        # copy of it that returns to the request adds 1.0 to this ratio
        net = model.init_params(0, 100)
        model.save_checkpoint(net, tmp_path / "net.lsn1")
        audio.save_wav(synthdata.synth_speech(0.6, np.random.default_rng(0)), tmp_path / "clip.wav")
        argv = ["infer", "--checkpoint", str(tmp_path / "net.lsn1"), "--wav", str(tmp_path / "clip.wav")]
        assert run_cli(*argv, "--out", str(tmp_path / "warm.lsa1")) == 0
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", str(tmp_path / "anim.lsa1")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * net.flat.nbytes

    def test_two_second_clip_gives_120_frames(self, tiny_checkpoint, wav_2s, tmp_path):
        out = tmp_path / "anim.lsa1"
        assert run_cli(
            "infer", "--checkpoint", str(tiny_checkpoint), "--wav", str(wav_2s), "--out", str(out)
        ) == 0
        anim = mesh.load_anim(out)
        assert anim.n_frames == 120
        assert anim.n_vertices == 5

    @pytest.mark.parametrize("channels", [1, 6])
    def test_extensible_header_infers_like_the_plain_file(self, tiny_checkpoint, tmp_path, channels):
        # each channel of the extensible copy holds the plain 48 kHz file's samples
        plain = tmp_path / "plain.wav"
        audio.save_wav(synthdata.synth_speech(1.0, np.random.default_rng(3), sample_rate=48000), plain)
        samples = np.frombuffer(plain.read_bytes()[44:], dtype="<i2")
        copy = tmp_path / "extensible.wav"
        copy.write_bytes(wav_file(extensible_fmt(channels, 48000, 1), np.repeat(samples, channels).tobytes()))
        for wav in (plain, copy):
            out = str(wav.with_suffix(".lsa1"))
            assert run_cli("infer", "--checkpoint", str(tiny_checkpoint), "--wav", str(wav), "--out", out) == 0
        assert copy.with_suffix(".lsa1").read_bytes() == plain.with_suffix(".lsa1").read_bytes()

    def test_features_input(self, tiny_checkpoint, wav_2s, tmp_path):
        feats_path = tmp_path / "f.lsf1"
        assert run_cli("features", "--wav", str(wav_2s), "--out", str(feats_path), "--seed", "0") == 0
        seq = features.load_features(feats_path)
        assert seq.n_frames == 120 and seq.dim == 29
        assert seq.kind == FeatureKind.CHAR_PROB_SURROGATE

        out = tmp_path / "anim.lsa1"
        assert run_cli(
            "infer", "--checkpoint", str(tiny_checkpoint), "--features", str(feats_path), "--out", str(out)
        ) == 0
        assert mesh.load_anim(out).n_frames == 120


class TestCachedParser:
    """run builds one parser per process; no call may see what an earlier
    one parsed."""

    def test_flag_does_not_leak_into_the_next_infer(self, tiny_checkpoint, wav_2s, tmp_path):
        cli._parser.cache_clear()

        def infer(name, *flags):
            out = tmp_path / name
            argv = ["infer", "--checkpoint", str(tiny_checkpoint), "--wav", str(wav_2s), "--out", str(out)]
            assert run_cli(*argv, *flags) == 0
            return out.read_bytes()

        first = infer("first.lsa1")
        assert infer("seed3.lsa1", "--seed", "3") != first
        assert infer("after.lsa1") == first
        info = cli._parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_default_epochs_after_an_explicit_count(self, mini_corpus, tmp_path):
        def epochs(name, *flags):
            metrics = tmp_path / f"{name}.csv"
            assert run_cli(
                "train",
                "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
                "--out", str(tmp_path / f"{name}.lsn1"),
                "--metrics", str(metrics),
                *flags,
            ) == 0
            return [r.split(",")[0] for r in metrics.read_text().splitlines()[1:] if ",train," in r]

        assert epochs("one", "--epochs", "1") == ["1"]
        assert epochs("default") == [str(e) for e in range(1, 11)]

    def test_full_usage_after_cached_subcommands(self, capsys):
        cli._parser.cache_clear()
        for name in cli._COMMANDS:
            assert run_cli(name, "--help") == 0
        capsys.readouterr()
        assert run_cli("--help") == 0
        assert capsys.readouterr().out == cli._parser.__wrapped__().format_help()
        assert run_cli("bogus") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument command: invalid choice: 'bogus'")
        assert all(repr(name) in err for name in cli._COMMANDS)
        assert run_cli("infer") == 1
        info = cli._parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


class TestKeptNetwork:
    """run keeps the network of a settled checkpoint file across requests."""

    @pytest.fixture(autouse=True)
    def nothing_kept(self, monkeypatch):
        monkeypatch.setattr(cli, "_kept", None)

    @pytest.fixture
    def loads(self, monkeypatch):
        """The paths model.load_checkpoint is called with."""
        paths, load = [], model.load_checkpoint
        monkeypatch.setattr(model, "load_checkpoint", lambda path: paths.append(path) or load(path))
        return paths

    @staticmethod
    def infer(checkpoint, wav, out):
        assert run_cli("infer", "--checkpoint", str(checkpoint), "--wav", str(wav), "--out", str(out)) == 0
        return out.read_bytes()

    def requests(self, mini_corpus, checkpoint, wav, out_dir):
        """The bytes that infer, eval and export-obj-seq write over ``checkpoint``."""
        root = mini_corpus["root"]
        template = ["--template", str(root / "template.obj")]
        landmarks = ["--landmarks", str(root / "template.landmarks.txt")]
        assert run_cli(
            "eval", "--manifest", str(root / "corpus.jsonl"), *template, *landmarks, "--checkpoint", str(checkpoint),
            "--out", str(out_dir / "eval.json"),
        ) == 0
        assert run_cli(
            "export-obj-seq", "--checkpoint", str(checkpoint), "--wav", str(wav), *template,
            "--out", str(out_dir / "objs"),
        ) == 0
        objs = [path.read_bytes() for path in sorted((out_dir / "objs").iterdir())]
        return self.infer(checkpoint, wav, out_dir / "anim.lsa1"), (out_dir / "eval.json").read_bytes(), objs

    def test_repeated_requests_write_the_bytes_of_a_fresh_load(
        self, mini_corpus, wav_2s, tmp_path, monkeypatch, loads
    ):
        ckpt = tmp_path / "net.lsn1"
        model.save_checkpoint(model.init_params(0, 40), ckpt)
        # a file written within the settle window is loaded by every request
        monkeypatch.setattr(cli, "_SETTLE_NS", 10**15)
        (tmp_path / "fresh").mkdir()
        fresh = self.requests(mini_corpus, ckpt, wav_2s, tmp_path / "fresh")
        assert len(loads) == 3 and cli._kept is None
        monkeypatch.setattr(cli, "_SETTLE_NS", 0)
        for n in range(2):
            (tmp_path / str(n)).mkdir()
            assert self.requests(mini_corpus, ckpt, wav_2s, tmp_path / str(n)) == fresh
        assert len(loads) == 4

    def test_same_size_rewrite_within_a_timestamp_tick_is_loaded(self, wav_2s, tmp_path, monkeypatch):
        # On a file system whose timestamps tick in whole seconds, a rewrite
        # in place within the tick keeps every field of the stat key; only
        # the settle rule keeps the old network from being reused.
        def coarse_stat(path):
            st = os.stat(path)
            fields = ("st_mode", "st_dev", "st_ino", "st_size")
            ticks = {f"st_{t}time_ns": getattr(st, f"st_{t}time_ns") // 10**9 * 10**9 for t in "mc"}
            return types.SimpleNamespace(**{f: getattr(st, f) for f in fields}, **ticks)

        monkeypatch.setattr(cli, "os", types.SimpleNamespace(stat=coarse_stat))
        ckpt, other = tmp_path / "net.lsn1", tmp_path / "other.lsn1"
        model.save_checkpoint(model.init_params(1, 5), other)
        want = self.infer(other, wav_2s, tmp_path / "want.lsa1")
        time.sleep((1.05 - time.time() % 1) % 1)  # early in a tick: the two writes below most likely share it
        model.save_checkpoint(model.init_params(0, 5), ckpt)
        first = self.infer(ckpt, wav_2s, tmp_path / "first.lsa1")
        ckpt.write_bytes(other.read_bytes())  # in place: the same inode and size
        assert self.infer(ckpt, wav_2s, tmp_path / "second.lsa1") == want != first

    def test_settled_file_is_loaded_once_until_rewritten(self, wav_2s, tmp_path, monkeypatch, capsys, loads):
        monkeypatch.setattr(cli, "_SETTLE_NS", 0)
        ckpt = tmp_path / "net.lsn1"
        model.save_checkpoint(model.init_params(0, 5), ckpt)
        first = self.infer(ckpt, wav_2s, tmp_path / "a.lsa1")
        assert self.infer(ckpt, wav_2s, tmp_path / "b.lsa1") == first
        assert len(loads) == 1
        model.save_checkpoint(model.init_params(0, 6), ckpt)
        self.infer(ckpt, wav_2s, tmp_path / "c.lsa1")
        assert len(loads) == 2
        assert capsys.readouterr().out.splitlines()[-1].startswith("wrote 120 frames x 6 vertices")

    def test_kept_network_is_read_only(self, tiny_checkpoint, wav_2s, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_SETTLE_NS", 0)
        self.infer(tiny_checkpoint, wav_2s, tmp_path / "a.lsa1")
        net = cli._kept[1]
        arrays = [net.flat, *(arr for _, arr in net.items())]
        arrays += [arr for layer in net.layers for arr in vars(layer).values() if isinstance(arr, np.ndarray)]
        assert len(arrays) == 1 + len(net.items()) + 2 * len(net.layers)
        assert not any(arr.flags.writeable for arr in arrays)

    @pytest.mark.parametrize("command", ["train", "features", "traj", "gen-corpus"])
    def test_commands_without_a_checkpoint_drop_it(self, mini_corpus, tiny_checkpoint, wav_2s, tmp_path,
                                                   monkeypatch, command):
        monkeypatch.setattr(cli, "_SETTLE_NS", 0)
        self.infer(tiny_checkpoint, wav_2s, tmp_path / "a.lsa1")
        assert cli._kept is not None
        inputs = _Inputs(mini_corpus, tmp_path)
        assert run_cli(*getattr(inputs, command.replace("-", "_"))()) == 0
        assert cli._kept is None


class TestGenCorpusAndTrain:
    def test_gen_corpus_layout(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli(
            "gen-corpus", "--out", str(out), "--sentences", "4", "--vertices", "30",
            "--seed", "3", "--min-dur", "0.5", "--max-dur", "0.7",
        ) == 0
        assert (out / "corpus.jsonl").exists()
        assert (out / "template.obj").exists()
        assert (out / "template.landmarks.txt").exists()
        manifest = synthdata.CorpusManifest.load(out / "corpus.jsonl")
        assert len(manifest.items) == 4

    def test_failed_gen_corpus_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("gen-corpus", "--sentences", "2", "--out", str(out)) == 1
        assert not (out / "template.obj").exists()
        assert not (out / "template.landmarks.txt").exists()

    def test_train_and_eval_flow(self, mini_corpus, tmp_path, capsys):
        manifest_path = mini_corpus["root"] / "corpus.jsonl"
        ckpt = tmp_path / "model.lsn1"
        metrics = tmp_path / "metrics.csv"
        assert run_cli(
            "train",
            "--manifest", str(manifest_path),
            "--out", str(ckpt),
            "--metrics", str(metrics),
            "--epochs", "2",
            "--lr", "1e-3",
            "--seed", "1",
        ) == 0
        assert ckpt.exists()
        lines = metrics.read_text().splitlines()
        assert lines[0] == "epoch,split,lp,lv,total"
        assert len(lines) == 1 + 2 * 2  # train + val rows for two epochs

        report_path = tmp_path / "report.json"
        assert run_cli(
            "eval",
            "--manifest", str(manifest_path),
            "--template", str(mini_corpus["root"] / "template.obj"),
            "--landmarks", str(mini_corpus["root"] / "template.landmarks.txt"),
            "--checkpoint", str(ckpt),
            "--out", str(report_path),
        ) == 0
        assert report_path.exists()
        assert "position error" in capsys.readouterr().out

    def test_train_config_file_precedence(self, mini_corpus, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 3\nlr = 1e-3  # comment\n")
        metrics = tmp_path / "m.csv"
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--metrics", str(metrics),
            "--config", str(cfg),
            "--epochs", "1",  # flag beats config file
            "--seed", "1",
        ) == 0
        rows = metrics.read_text().splitlines()[1:]
        assert max(int(r.split(",")[0]) for r in rows) == 1

    @pytest.mark.parametrize("flag", ["--out", "--metrics"])
    def test_output_in_missing_directory_refused_before_training(self, mini_corpus, tmp_path, monkeypatch, capsys, flag):
        def never(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(training, "train", never)
        missing = str(tmp_path / "nodir" / "x")
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--metrics", str(tmp_path / "m.csv"),
            "--epochs", "3",
            flag, missing,  # the last of a repeated flag wins
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and missing in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--out", "--metrics"])
    def test_output_that_is_a_directory_refused_before_training(self, mini_corpus, tmp_path, monkeypatch, capsys, flag):
        def never(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(training, "train", never)
        (tmp_path / "d").mkdir()
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--metrics", str(tmp_path / "m.csv"),
            flag, str(tmp_path / "d"),
        ) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} {tmp_path / 'd'}: is a directory\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "d"] and not list((tmp_path / "d").iterdir())

    def test_config_file_sets_every_field(self, mini_corpus, tmp_path, monkeypatch):
        seen = {}

        def fake_train(items, net, train_cfg, **kwargs):
            seen.update(net=net, train=train_cfg)
            return training.TrainResult(best_params=net, metrics=[], best_epoch=0)

        monkeypatch.setattr(training, "train", fake_train)
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "epochs = 3\nlr = 0.002\nw_pos = 2.0\nw_vel = 0.25\nseed = 4\n"
            "checkpoint_every = 2\nbatch_size = 3\nclip_norm = 1.5\n"
        )
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--config", str(cfg),
        ) == 0
        assert seen["train"] == training.TrainConfig(
            learning_rate=0.002, epochs=3, seed=4, checkpoint_every=2, batch_size=3, clip_norm=1.5,
            w_position=2.0, w_velocity=0.25,
        )
        assert np.array_equal(seen["net"].flat, model.init_params(4, 40).flat)

    def test_flags_set_every_field(self, mini_corpus, tmp_path, monkeypatch):
        # the flags are parsed as text and cast with the config file's casts
        seen = {}

        def fake_train(items, net, train_cfg, **kwargs):
            seen.update(train=train_cfg)
            return training.TrainResult(best_params=net, metrics=[], best_epoch=0)

        monkeypatch.setattr(training, "train", fake_train)
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--epochs", "3", "--lr", "0.002", "--w-pos", "2", "--w-vel", "0.25", "--seed", "4",
            "--checkpoint-every", "2", "--checkpoint-dir", str(tmp_path), "--batch-size", "3", "--clip-norm", "1.5",
        ) == 0
        assert seen["train"] == training.TrainConfig(
            learning_rate=0.002, epochs=3, seed=4, checkpoint_every=2, batch_size=3, clip_norm=1.5,
            w_position=2.0, w_velocity=0.25,
        )
        assert type(seen["train"].w_position) is float and type(seen["train"].epochs) is int

    def test_bad_config_key(self, mini_corpus, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--config", str(cfg),
        ) == 1

    @pytest.mark.parametrize("line", ["epochs = 3.5", "lr = fast"])
    def test_bad_config_value(self, mini_corpus, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--config", str(cfg),
        ) == 1
        assert capsys.readouterr().err.startswith("usage error: bad value for config key")

    def test_default_epochs_is_ten(self, mini_corpus, tmp_path):
        metrics = tmp_path / "m.csv"
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "c.lsn1"),
            "--metrics", str(metrics),
            "--lr", "1e-3",
        ) == 0
        rows = metrics.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows if ",train," in r] == [str(e) for e in range(1, 11)]

    # sha256 of the checkpoint and metrics CSV of a three-item-batch run,
    # pinned before the gradient vector was reused across steps
    BATCHED = {
        "net.lsn1": "5210a14e7bac715e82226e05edff87a3f7a244ce37407a476998f4d88d59a643",
        "metrics.csv": "d924ebdceb7304a6f58e2aa8f287b63948748d86457b1b1d42238ce348016b91",
    }

    def test_batched_training_bytes_pinned(self, mini_corpus, tmp_path):
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(tmp_path / "net.lsn1"),
            "--metrics", str(tmp_path / "metrics.csv"),
            "--epochs", "2",
            "--batch-size", "3",
            "--lr", "1e-3",
            "--seed", "1",
        ) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.BATCHED}
        assert digests == self.BATCHED

    def test_lstm_arch_flag(self, mini_corpus, tmp_path):
        ckpt = tmp_path / "lstm.lsn1"
        assert run_cli(
            "train",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--out", str(ckpt),
            "--epochs", "1",
            "--arch", "lstm",
            "--seed", "2",
        ) == 0
        net = model.load_checkpoint(ckpt)
        assert "conv" not in [layer.kind for layer in net.layers]


class TestEvalSelfTest:
    def test_self_test_reports_zeros(self, mini_corpus, tmp_path, capsys):
        report_path = tmp_path / "self.json"
        assert run_cli(
            "eval",
            "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
            "--template", str(mini_corpus["root"] / "template.obj"),
            "--landmarks", str(mini_corpus["root"] / "template.landmarks.txt"),
            "--self-test",
            "--out", str(report_path),
        ) == 0
        import json

        data = json.loads(report_path.read_text())
        assert data["pos_all"] == data["vel_all"] == 0.0
        assert data["pos_lip"] == data["vel_lip"] == 0.0

    @pytest.mark.parametrize("mode", ["self-test", "checkpoint"])
    def test_unknown_split_is_exit_2(self, mini_corpus, tmp_path, capsys, mode):
        root = mini_corpus["root"]
        ckpt = tmp_path / "net.lsn1"
        model.save_checkpoint(model.init_params(0, mini_corpus["head"].n_vertices), ckpt)
        scorer = ["--self-test"] if mode == "self-test" else ["--checkpoint", str(ckpt)]
        report_path = tmp_path / "bogus.json"
        code = run_cli(
            "eval",
            "--manifest", str(root / "corpus.jsonl"),
            "--template", str(root / "template.obj"),
            "--landmarks", str(root / "template.landmarks.txt"),
            "--split", "bogus",
            "--out", str(report_path),
            *scorer,
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "'bogus'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not report_path.exists()

    @pytest.mark.parametrize("mode", ["self-test", "checkpoint"])
    def test_one_frame_sentence_is_exit_2(self, mini_corpus, tmp_path, capsys, mode):
        # a one-frame sentence has no velocity error; it must not become NaN in the JSON
        root = mini_corpus["root"]
        sample = synthdata.load_split(mini_corpus["manifest"], "test")[0]
        features.save_features(features.FeatureSequence(data=sample.features.data[:1]), tmp_path / "one.lsf1")
        mesh.save_anim(mesh.DisplacementSequence(frames=sample.displacements.frames[:1]), tmp_path / "one.lsa1")
        item = {"id": "one-frame", "features": "one.lsf1", "anim": "one.lsa1", "duration": 0.02, "split": "test"}
        (tmp_path / "corpus.jsonl").write_text(json.dumps(item) + "\n")
        ckpt = tmp_path / "net.lsn1"
        model.save_checkpoint(model.init_params(0, mini_corpus["head"].n_vertices), ckpt)
        scorer = ["--self-test"] if mode == "self-test" else ["--checkpoint", str(ckpt)]
        report_path = tmp_path / "one.json"
        code = run_cli(
            "eval",
            "--manifest", str(tmp_path / "corpus.jsonl"),
            "--template", str(root / "template.obj"),
            "--landmarks", str(root / "template.landmarks.txt"),
            "--out", str(report_path),
            *scorer,
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "'one-frame'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not report_path.exists()


class TestExportObjSeq:
    def test_zero_checkpoint_exports_template(self, tmp_path):
        head = synthdata.make_head(30, seed=4)
        template = tmp_path / "head.obj"
        mesh.save_obj(head, template, landmark_path=tmp_path / "head.landmarks.txt")

        net = model.init_params(0, 30)
        for _, arr in net.items():
            arr[:] = 0.0
        ckpt = tmp_path / "zero.lsn1"
        model.save_checkpoint(net, ckpt)

        wav = tmp_path / "one_second.wav"
        audio.save_wav(synthdata.synth_speech(1.0, np.random.default_rng(4)), wav)

        out = tmp_path / "objs"
        assert run_cli(
            "export-obj-seq", "--checkpoint", str(ckpt), "--wav", str(wav),
            "--template", str(template), "--out", str(out), "--seed", "4",
        ) == 0
        files = sorted(out.glob("frame_*.obj"))
        assert len(files) == 60
        first = mesh.load_obj(files[0])
        assert np.allclose(first.vertices, head.vertices, atol=1e-6)

    def test_vertex_mismatch_is_exit_2(self, tmp_path, capsys):
        head = synthdata.make_head(25, seed=5)
        template = tmp_path / "head.obj"
        mesh.save_obj(head, template)
        ckpt = tmp_path / "net.lsn1"
        model.save_checkpoint(model.init_params(0, 30), ckpt)
        wav = tmp_path / "w.wav"
        audio.save_wav(synthdata.synth_speech(0.5, np.random.default_rng(5)), wav)
        code = run_cli(
            "export-obj-seq", "--checkpoint", str(ckpt), "--wav", str(wav),
            "--template", str(template), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "topology" in capsys.readouterr().err.lower()


class TestTraj:
    def test_trajectory_csv(self, mini_corpus, tmp_path):
        manifest = mini_corpus["manifest"]
        item = manifest.split("test")[0]
        out = tmp_path / "traj.csv"
        assert run_cli(
            "traj",
            "--anim", str(manifest.resolve(item.anim)),
            "--template", str(mini_corpus["root"] / "template.obj"),
            "--landmarks", str(mini_corpus["root"] / "template.landmarks.txt"),
            "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,v_pixels"
        anim = mesh.load_anim(manifest.resolve(item.anim))
        assert len(lines) == 1 + anim.n_frames


class _Inputs:
    """Command lines over the session corpus whose one output path is ``out``."""

    def __init__(self, mini_corpus, tmp):
        self.root, self.tmp, self.out = mini_corpus["root"], tmp, tmp / "out"
        manifest = mini_corpus["manifest"]
        self.anim = str(manifest.resolve(manifest.split("test")[0].anim))
        self.manifest = str(self.root / "corpus.jsonl")
        self.template = str(self.root / "template.obj")
        self.landmarks = str(self.root / "template.landmarks.txt")

    def file(self, name, data: bytes) -> str:
        (self.tmp / name).write_bytes(data)
        return str(self.tmp / name)

    def checkpoint(self, scale=1.0) -> str:
        path = self.tmp / "net.lsn1"
        net = model.init_params(0, 40)
        net.flat *= scale
        model.save_checkpoint(net, path)
        return str(path)

    def wav(self, rate=16000, n=16000) -> str:
        path = self.tmp / f"{rate}hz.wav"
        audio.save_wav(audio.Waveform(samples=np.zeros(n), sample_rate=rate), path)
        return str(path)

    def infer(self, *flags, wav=None, checkpoint=None):
        return [
            "infer", "--checkpoint", checkpoint or self.checkpoint(), "--wav", wav or self.wav(),
            "--out", str(self.out), *flags,
        ]

    def train(self, *flags, manifest=None):
        return ["train", "--manifest", manifest or self.manifest, "--out", str(self.out), "--epochs", "1", *flags]

    def eval(self, *flags, manifest=None, template=None, landmarks=None, scorer=("--self-test",)):
        return [
            "eval", "--manifest", manifest or self.manifest, "--template", template or self.template,
            "--landmarks", landmarks or self.landmarks, "--out", str(self.out), *scorer, *flags,
        ]

    def traj(self, *flags, template=None, landmarks=None):
        return [
            "traj", "--anim", self.anim, "--template", template or self.template,
            "--landmarks", landmarks or self.landmarks, "--out", str(self.out), *flags,
        ]

    def gen_corpus(self, *flags):
        return ["gen-corpus", "--out", str(self.out), "--sentences", "3", "--vertices", "20", *flags]

    def features(self, *flags):
        return ["features", "--wav", self.wav(), "--out", str(self.out), *flags]

    def export_obj_seq(self, *flags, checkpoint=None):
        return [
            "export-obj-seq", "--checkpoint", checkpoint or self.checkpoint(), "--wav", self.wav(),
            "--template", self.template, "--out", str(self.out), *flags,
        ]

    def huge_landmark(self) -> str:
        """The sidecar with an index one past the int64 range on its second line."""
        lines = Path(self.landmarks).read_text().splitlines(keepends=True)
        return self.file("lm.txt", "".join([lines[0], f"lip:{2**63}\n", *lines[1:]]).encode())


def _lsn1_one_tensor(i, dims, payload=b""):
    """A checkpoint whose one tensor, named w, has ``dims``; numpy holds at most 64 of them."""
    table = struct.pack("<I", 1) + b"w" + struct.pack(f"<I{len(dims)}I", len(dims), *dims)
    return i.file("bad.lsn1", b"LSN1" + struct.pack("<II", 40, 1) + table + payload)


def _decoder_bias_1e39(i) -> str:
    """A V=40 checkpoint whose decoder bias, and so every output offset, is 1e39."""
    path = i.tmp / "big.lsn1"
    net = model.init_params(0, 40)
    dict(net.items())["decoder.bias"][:] = 1e39
    model.save_checkpoint(net, path)
    return str(path)


def _manifest_line(i, **changes):
    line = json.loads(Path(i.manifest).read_text().splitlines()[0])
    return (json.dumps({**line, **changes}) + "\n").encode()


def _one_sentence(i, cut=0, **changes):
    """A manifest of the corpus's first sentence, a train one, with ``changes``
    and the last ``cut`` frames of its animation dropped."""
    line = json.loads(Path(i.manifest).read_text().splitlines()[0])
    anim = mesh.load_anim(i.root / line["anim"])
    kept = mesh.DisplacementSequence(frames=anim.frames[: anim.n_frames - cut], fps=anim.fps)
    mesh.save_anim(kept, i.tmp / "a.lsa1")
    paths = {"features": str(i.root / line["features"]), "anim": str(i.tmp / "a.lsa1")}
    return i.file("one.jsonl", _manifest_line(i, **paths, **changes))


def _wav_with_fmt(i, fmt: bytes) -> str:
    """A WAV file with this fmt chunk body and one 16-bit sample of data."""
    return i.file("odd.wav", wav_file(fmt, bytes(2)))


# a 16-byte fmt chunk with its header: 16-bit mono PCM at 16 kHz
_FMT_CHUNK_16K = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)


def _template_times(i, scale) -> str:
    """The session template with every vertex coordinate times ``scale``."""
    head = mesh.load_obj(i.template)
    mesh.save_obj(mesh.TemplateMesh(vertices=head.vertices * scale, faces=head.faces), i.tmp / "big.obj")
    return str(i.tmp / "big.obj")


def _lsn1_without(i, name) -> str:
    """A V=40 checkpoint that lacks the tensor ``name``."""
    named = [(key.encode(), arr) for key, arr in model.init_params(0, 40).items() if key != name]
    write_lsn1(i.tmp / "partial.lsn1", 40, named)
    return str(i.tmp / "partial.lsn1")


def _lsf1_kind_1(i) -> str:
    """A feature file of 60 rows as wide as the network reads, marked kind 1."""
    rows = np.zeros((60, features.CHAR_PROB_DIM), dtype="<f4")
    return i.file("k1.lsf1", b"LSF1" + struct.pack("<IIIB", 60, features.CHAR_PROB_DIM, 60, 1) + rows.tobytes())


# case: (exit code, text the one stderr line must hold, command line)
MALFORMED = {
    "traj-landmark-index-999": (1, "landmark index 999", lambda i: i.traj("--landmark-index", "999")),
    "traj-landmark-index-negative": (1, "landmark index -1", lambda i: i.traj("--landmark-index=-1")),
    "traj-px-inf": (1, "px_per_unit", lambda i: i.traj("--px-per-unit", "inf")),
    "eval-px-nan": (1, "px_per_unit", lambda i: i.eval("--px-per-unit", "nan")),
    "eval-px-overflow": (
        2, "overflow", lambda i: i.eval("--px-per-unit", "1e300", scorer=("--checkpoint", i.checkpoint()))
    ),
    "gen-corpus-min-dur-nan": (1, "durations", lambda i: i.gen_corpus("--min-dur", "nan")),
    "gen-corpus-max-dur-inf": (1, "durations", lambda i: i.gen_corpus("--max-dur", "inf")),
    "gen-corpus-max-dur-1e300": (1, "durations", lambda i: i.gen_corpus("--max-dur", "1e300")),
    "gen-corpus-max-dur-above-bound": (1, "<= 60.0 seconds", lambda i: i.gen_corpus("--max-dur", "60.001")),
    "gen-corpus-shorter-than-two-mfcc-frames": (1, "durations", lambda i: i.gen_corpus("--min-dur", "0.03")),
    "gen-corpus-min-above-max": (1, "durations", lambda i: i.gen_corpus("--min-dur", "1.0", "--max-dur", "0.5")),
    # a head of 2**40 vertices would need 6.67 TiB for its first array
    "gen-corpus-vertices-above-bound": (
        1, "v_target must be in 20..50000, got 50001", lambda i: i.gen_corpus("--vertices", "50001")
    ),
    "gen-corpus-vertices-2**40": (1, f"got {2**40}", lambda i: i.gen_corpus("--vertices", str(2**40))),
    "eval-no-lip-landmarks": (
        2, "lip", lambda i: i.eval(landmarks=i.file("nolip.txt", Path(i.landmarks).read_bytes().replace(b"lip:", b"")))
    ),
    "manifest-line-not-object": (
        2, "m.jsonl: bad manifest line", lambda i: i.eval(manifest=i.file("m.jsonl", b"[1, 2]\n"))
    ),
    "manifest-path-not-string": (
        2, "(line 1)", lambda i: i.eval(manifest=i.file("m.jsonl", _manifest_line(i, features=None)))
    ),
    "manifest-nested-json": (
        2, "m.jsonl: bad manifest line", lambda i: i.eval(manifest=i.file("m.jsonl", b"[" * 5000 + b"\n"))
    ),
    "manifest-not-utf8": (
        2, "m.jsonl: not UTF-8 text", lambda i: i.eval(manifest=i.file("m.jsonl", _manifest_line(i) + b"\xff\n"))
    ),
    "manifest-duplicate-id": (
        2, "m.jsonl: duplicate item ids", lambda i: i.eval(manifest=i.file("m.jsonl", _manifest_line(i) * 2))
    ),
    "landmarks-duplicate-index": (
        2, "landmark indices must be unique", lambda i: i.eval(landmarks=i.file("lm.txt", b"lip:1\nlip:1\n"))
    ),
    "obj-nan-vertex": (2, "h.obj: non-finite vertex", lambda i: i.eval(template=i.file("h.obj", b"v 0 nan 0\n"))),
    "eval-obj-vertex-two-coordinates": (
        2, "h.obj: vertex record needs 3 coordinates (line 1)",
        lambda i: i.eval(template=i.file("h.obj", b"v 0 0\n" + b"v 0 0 0\n" * 3)),
    ),
    **{
        f"obj-{defect}": (2, needle, lambda i, face=face: i.eval(template=i.file("h.obj", b"v 0 0 0\n" * 3 + face)))
        for defect, face, needle in (
            ("three-vertices", b"", "mesh needs at least 4 vertices, got 3"),
            ("face-non-numeric", b"f 1 x 3\n", "non-numeric face index 'x' (line 4)"),
            ("face-two-indices", b"f 1 2\n", "face needs at least 3 indices (line 4)"),
        )
    },
    "traj-px-overflow": (
        2, "landmark pixel coordinates overflow",
        lambda i: i.traj("--px-per-unit", "1e300", template=_template_times(i, 1e10)),
    ),
    "obj-not-utf8": (2, "(line 2)", lambda i: i.eval(template=i.file("h.obj", b"v 0 0 0\n\xff 1 1\n"))),
    "landmarks-not-utf8": (2, "lm.txt: not UTF-8", lambda i: i.eval(landmarks=i.file("lm.txt", b"lip:1\n\xfe\n"))),
    # numpy holds landmark indices as int64
    **{
        f"{command}-landmark-index-above-int64": (2, f"lm.txt: landmark index {2**63} outside int64 (line 2)", argv)
        for command, argv in (
            ("eval", lambda i: i.eval(landmarks=i.huge_landmark())),
            ("traj", lambda i: i.traj(landmarks=i.huge_landmark())),
        )
    },
    "config-line-without-equals": (
        1, "c.cfg:3: expected key=value, got 'epochs'",
        lambda i: i.train("--config", i.file("c.cfg", b"# x\n\nepochs\n")),
    ),
    "config-not-utf8": (1, "c.cfg: not UTF-8", lambda i: i.train("--config", i.file("c.cfg", b"epochs = 1\n\xff\n"))),
    "gen-corpus-seed-negative": (1, "--seed must be >= 0", lambda i: i.gen_corpus("--seed=-1")),
    "features-seed-negative": (1, "--seed must be >= 0", lambda i: i.features("--seed=-1")),
    "infer-seed-negative": (1, "--seed must be >= 0", lambda i: i.infer("--seed=-1")),
    "export-obj-seq-seed-negative": (1, "--seed must be >= 0", lambda i: i.export_obj_seq("--seed=-1")),
    "train-seed-negative": (1, "--seed must be >= 0", lambda i: i.train("--seed=-1")),
    "train-config-seed-negative": (1, "seed must be >= 0", lambda i: i.train("--config", i.file("c.cfg", b"seed = -1\n"))),
    # the first step sets weights near 1e300, so the next item's loss overflows
    "train-lr-1e300": (2, "epoch 1: non-finite training loss on item", lambda i: i.train("--lr", "1e300")),
    "train-lr-1e300-names-the-step": (
        2, "after optimizer step 1 (largest weight magnitude 1e+300)", lambda i: i.train("--lr", "1e300")
    ),
    # finite loss terms, overflowing gradient: the step is refused before it writes NaN weights
    "train-w-pos-1e308": (2, "epoch 1: non-finite gradient norm on items", lambda i: i.train("--w-pos", "1e308")),
    # no validation split checks the weights of the last step, which overflow to inf
    "train-non-finite-weights-not-saved": (
        2, "out: NaN or inf in the LSN1 payload; not written",
        lambda i: i.train("--lr", "1.7e308", "--clip-norm", "0", manifest=_one_sentence(i)),
    ),
    "train-out-directory-missing": (
        2, "no directory", lambda i: i.train("--out", str(i.tmp / "nodir" / "x.lsn1"))
    ),
    "train-metrics-directory-missing": (
        2, "no directory", lambda i: i.train("--metrics", str(i.tmp / "nodir" / "m.csv"))
    ),
    "train-out-is-a-directory": (2, ": is a directory", lambda i: i.train("--out", str(i.tmp))),
    "train-metrics-is-a-directory": (2, ": is a directory", lambda i: i.train("--metrics", str(i.tmp))),
    # the CSV would overwrite the checkpoint, whichever way the path is spelled
    "train-metrics-same-as-out": (
        1, "--out and --metrics name the same file", lambda i: i.train("--metrics", f"{i.tmp}/../{i.tmp.name}/out")
    ),
    "train-no-train-sentences": (
        1, "manifest has no training items", lambda i: i.train(manifest=_one_sentence(i, split="test"))
    ),
    "train-checkpoint-every-without-dir": (
        1, "checkpoint_every needs a checkpoint directory", lambda i: i.train("--checkpoint-every", "2")
    ),
    "eval-self-test-frame-count-mismatch": (
        2, "item 's0000': ", lambda i: i.eval(manifest=_one_sentence(i, cut=2, split="test"))
    ),
    "eval-checkpoint-frame-count-mismatch": (
        2, "item 's0000': ",
        lambda i: i.eval(manifest=_one_sentence(i, cut=2, split="test"), scorer=("--checkpoint", i.checkpoint())),
    ),
    "eval-no-scorer": (1, "one of the arguments --checkpoint --self-test is required", lambda i: i.eval(scorer=())),
    "eval-checkpoint-and-self-test": (
        1, "not allowed with", lambda i: i.eval(scorer=("--self-test", "--checkpoint", str(i.tmp / "absent.lsn1")))
    ),
    "infer-wav-and-features": (1, "not allowed with", lambda i: i.infer("--features", str(i.tmp / "f.lsf1"))),
    "infer-neither-wav-nor-features": (
        1, "one of the arguments --wav --features is required",
        lambda i: ["infer", "--checkpoint", i.checkpoint(), "--out", str(i.out)],
    ),
    "infer-wav-fmt-chunk-short": (
        2, "fmt chunk too short", lambda i: i.infer(wav=_wav_with_fmt(i, struct.pack("<HHII", 1, 1, 16000, 32000)))
    ),
    # a 16-byte fmt chunk ends the file at byte 36, where the data chunk should start
    "infer-wav-no-data-chunk": (
        2, "odd.wav: missing fmt or data chunk (byte offset 36)",
        lambda i: i.infer(wav=i.file("odd.wav", b"RIFF" + struct.pack("<I", 28) + b"WAVE" + _FMT_CHUNK_16K)),
    ),
    "infer-wav-8-bit": (
        2, "8-bit samples unsupported",
        lambda i: i.infer(wav=_wav_with_fmt(i, struct.pack("<HHIIHH", 1, 1, 16000, 16000, 1, 8))),
    ),
    "infer-wav-extensible-float": (
        2, "audio format 65534 is not PCM", lambda i: i.infer(wav=_wav_with_fmt(i, extensible_fmt(1, 16000, 3)))
    ),
    "infer-wav-0-channels": (
        2, "invalid channel count",
        lambda i: i.infer(wav=_wav_with_fmt(i, struct.pack("<HHIIHH", 1, 0, 16000, 32000, 2, 16))),
    ),
    "train-checkpoint-every-negative": (
        1, "checkpoint_every must be >= 0", lambda i: i.train("--checkpoint-every=-3", "--checkpoint-dir", str(i.out))
    ),
    # at 1 Hz these 444 bytes would resample to hours of audio; at 1000003 Hz each phase takes 2002 taps
    "infer-wav-rate-1hz": (2, "sample rate 1 Hz outside", lambda i: i.infer(wav=i.wav(rate=1, n=200))),
    "infer-wav-rate-1000003hz": (2, "sample rate 1000003 Hz outside", lambda i: i.infer(wav=i.wav(rate=1_000_003, n=200))),
    "infer-wav-rate-7999hz": (2, "sample rate 7999 Hz outside", lambda i: i.infer(wav=i.wav(rate=7999))),
    # finite weights whose output overflows: an LSA1 or OBJ holding NaN would be written
    "infer-output-not-finite": (
        2, "out: NaN or inf in the LSA1 payload; not written", lambda i: i.infer(checkpoint=i.checkpoint(1e200))
    ),
    # finite in float64, but every offset is inf in an LSA1 file
    "infer-output-beyond-float32": (
        2, "out: NaN or inf in the LSA1 payload; not written", lambda i: i.infer(checkpoint=_decoder_bias_1e39(i))
    ),
    "export-obj-seq-output-not-finite": (
        2, "network output holds NaN", lambda i: i.export_obj_seq(checkpoint=i.checkpoint(1e200))
    ),
    "infer-checkpoint-rank-65": (
        2, "tensor 'w' has dims", lambda i: i.infer(checkpoint=_lsn1_one_tensor(i, (1,) * 65, bytes(8)))
    ),
    "infer-checkpoint-missing": (
        2, "No such file or directory", lambda i: i.infer(checkpoint=str(i.tmp / "absent.lsn1"))
    ),
    "infer-checkpoint-without-fc1": (
        2, "missing tensor fc1.weight", lambda i: i.infer(checkpoint=_lsn1_without(i, "fc1.weight"))
    ),
    # kind 1 marked raw MFCC rows, which no network reads; the code stays reserved
    "infer-features-kind-1": (
        2, "unknown feature kind 1 (byte offset 16)",
        lambda i: ["infer", "--checkpoint", i.checkpoint(), "--features", _lsf1_kind_1(i), "--out", str(i.out)],
    ),
    # the zero dimension leaves no payload to read, so nothing stops the reshape to 2**62 elements
    "infer-checkpoint-zero-dim": (
        2, "(byte offset 12)", lambda i: i.infer(checkpoint=_lsn1_one_tensor(i, (0, 2**31, 2**31)))
    ),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_one_line_and_no_output(self, mini_corpus, tmp_path, capsys, recwarn, case):
        code, needle, argv = MALFORMED[case]
        inputs = _Inputs(mini_corpus, tmp_path)
        assert run_cli(*argv(inputs)) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error:" if code == 1 else "error:") and err.count("\n") == 1
        assert needle in err and "Traceback" not in err
        # a warning is a stderr line too when the CLI runs outside pytest
        assert [str(w.message) for w in recwarn] == []
        assert not inputs.out.exists()

    def test_export_obj_seq_writes_vertices_beyond_float32(self, mini_corpus, tmp_path, capsys):
        # OBJ text holds the float64 vertices, so only NaN or inf stops an export
        inputs = _Inputs(mini_corpus, tmp_path)
        assert run_cli(*inputs.export_obj_seq(checkpoint=_decoder_bias_1e39(inputs))) == 0
        assert capsys.readouterr().err == ""
        frames = sorted(inputs.out.glob("frame_*.obj"))
        assert frames
        for frame in frames:
            vertices = mesh.load_obj(frame).vertices
            assert np.isfinite(vertices).all() and np.abs(vertices).max() > np.finfo(np.float32).max

    # Each property runs in-process and only asks that every value gets an exit code.
    @settings(max_examples=30, deadline=None)
    @given(command=st.sampled_from(["eval", "traj"]), px=st.floats())
    @example(command="eval", px=math.nan)
    @example(command="traj", px=math.inf)
    @example(command="eval", px=1e308)
    def test_any_px_per_unit_gets_an_exit_code(self, mini_corpus, tmp_path_factory, command, px):
        inputs = _Inputs(mini_corpus, tmp_path_factory.mktemp("px"))
        if command == "eval":
            argv = inputs.eval(f"--px-per-unit={px!r}", scorer=("--checkpoint", inputs.checkpoint()))
        else:
            argv = inputs.traj(f"--px-per-unit={px!r}")
        assert run_cli(*argv) in (0, 1, 2)

    @settings(max_examples=30, deadline=None)
    @given(index=st.one_of(st.integers(), st.floats()))
    @example(index=-1)
    @example(index=math.inf)
    def test_any_landmark_index_gets_an_exit_code(self, mini_corpus, tmp_path_factory, index):
        inputs = _Inputs(mini_corpus, tmp_path_factory.mktemp("index"))
        assert run_cli(*inputs.traj(f"--landmark-index={index!r}")) in (0, 1, 2)

    # Finite durations that generate stop at 1 s, because generation time
    # grows with the duration; those above the 60 s bound are refused.
    @settings(max_examples=30, deadline=None)
    @given(
        durations=st.lists(
            st.one_of(
                st.floats(max_value=1.0),
                st.floats(0.035, 1.0),
                st.floats(min_value=synthdata._MAX_DURATION, exclude_min=True),
                st.sampled_from([math.nan, math.inf]),
            ),
            min_size=2,
            max_size=2,
        )
    )
    @example(durations=[math.nan, 1.0])
    @example(durations=[0.5, math.inf])
    @example(durations=[0.035, 0.04])
    @example(durations=[0.5, 1e300])
    @example(durations=[61.0, 62.0])
    def test_any_durations_get_an_exit_code(self, mini_corpus, tmp_path_factory, durations):
        inputs = _Inputs(mini_corpus, tmp_path_factory.mktemp("durations"))
        lo, hi = durations
        code = run_cli(*inputs.gen_corpus(f"--min-dur={lo!r}", f"--max-dur={hi!r}"))
        assert code in (0, 1, 2)
        if max(lo, hi) > synthdata._MAX_DURATION:
            assert code == 1 and not inputs.out.exists()


# Every numeric flag of the 7 subcommands and the values drawn for it:
# negatives, 0, integers from 2**64 on, and for float flags NaN, infinities,
# 1e300 and subnormals. Flags whose cost grows with the value draw in-range
# values under a small cap, or values above the flag's bound.
_ANY_INT = st.one_of(st.integers(), st.just(0), st.integers(min_value=2**64))
_ANY_FLOAT = st.one_of(
    _ANY_INT, st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 2.2e-308])
)
_DURATION = st.one_of(
    st.floats(max_value=1.0),
    st.floats(min_value=synthdata._MAX_DURATION, exclude_min=True),
    st.sampled_from([math.nan, math.inf]),
)
NUMERIC_FLAGS = {
    ("gen-corpus", "--sentences"): st.integers(max_value=4),
    # at the bound a gen-corpus takes seconds; above it, nothing is allocated
    ("gen-corpus", "--vertices"): st.one_of(st.integers(max_value=60), st.integers(min_value=2**40)),
    ("gen-corpus", "--seed"): _ANY_INT,
    ("gen-corpus", "--min-dur"): _DURATION,
    ("gen-corpus", "--max-dur"): _DURATION,
    ("features", "--seed"): _ANY_INT,
    **{
        ("train", "--" + key.replace("_", "-")): _ANY_FLOAT if cli._train_cast(key) is float else _ANY_INT
        for key in cli.TRAIN_FIELDS
    },
    ("train", "--epochs"): st.integers(max_value=2),
    ("infer", "--seed"): _ANY_INT,
    ("export-obj-seq", "--seed"): _ANY_INT,
    ("eval", "--px-per-unit"): _ANY_FLOAT,
    ("traj", "--px-per-unit"): _ANY_FLOAT,
    ("traj", "--landmark-index"): _ANY_INT,
}
_COMMAND_LINES = {
    "gen-corpus": lambda i, flag: i.gen_corpus(flag),
    "features": lambda i, flag: i.features(flag),
    "train": lambda i, flag: i.train(flag),
    "infer": lambda i, flag: i.infer(flag),
    "export-obj-seq": lambda i, flag: i.export_obj_seq(flag),
    "eval": lambda i, flag: i.eval(flag, scorer=("--checkpoint", i.checkpoint())),
    "traj": lambda i, flag: i.traj(flag),
}


@pytest.mark.parametrize("command, flag", list(NUMERIC_FLAGS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_numeric_flag_value_gets_an_exit_code(mini_corpus, tmp_path_factory, command, flag, data):
    value = data.draw(NUMERIC_FLAGS[command, flag], label=flag)
    inputs = _Inputs(mini_corpus, tmp_path_factory.mktemp("flag"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*_COMMAND_LINES[command](inputs, f"{flag}={value!r}"))
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (1 if code else 0) and "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []



# Up to four edits of a text input: a byte XORed, the tail cut, bytes
# appended, a run of digits or an integer past int64 spliced in, or a line
# duplicated or dropped.
TEXT_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
        st.tuples(
            st.just("splice"),
            st.integers(0, 2**16),
            st.one_of(st.text("0123456789", min_size=1, max_size=40), st.integers(min_value=2**63).map(str)),
        ),
        st.tuples(st.sampled_from(["duplicate", "drop"]), st.integers(0, 2**16)),
    ),
    min_size=1,
    max_size=4,
)


def mutate_text(raw: bytes, mutations) -> bytes:
    """``raw`` after each edit of ``TEXT_MUTATIONS``, applied in order."""
    for kind, *arg in mutations:
        if kind == "splice":
            at = arg[0] % (len(raw) + 1)
            raw = raw[:at] + arg[1].encode() + raw[at:]
        elif kind in ("duplicate", "drop"):
            lines = raw.splitlines(keepends=True)
            if lines:
                at = arg[0] % len(lines)
                lines[at : at + 1] = [lines[at]] * (2 if kind == "duplicate" else 0)
                raw = b"".join(lines)
        else:
            raw = mutate(raw, [(kind, *arg)], ())
    return raw


# Each text input, by the _Inputs attribute that holds its path, and the
# commands that read it; train reads the config file through --config.
_TRAIN_CONFIG = b"lr = 0.001\nbatch_size = 2\nw_pos = 1.0\nw_vel = 0.5\nseed = 3\nclip_norm = 5.0\n"
TEXT_INPUTS = [
    ("manifest", "eval"), ("manifest", "train"),
    ("template", "eval"), ("template", "traj"), ("template", "export-obj-seq"),
    ("landmarks", "eval"), ("landmarks", "traj"),
    ("config", "train"),
]


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(TEXT_INPUTS), mutations=TEXT_MUTATIONS)
@example(target=("landmarks", "eval"), mutations=[("splice", 4, str(10**30))])
@example(target=("landmarks", "traj"), mutations=[("splice", 4, str(2**63))])
@example(target=("config", "train"), mutations=[("splice", 5, "9" * 40)])
def test_any_mutated_text_input_gets_an_exit_code(mini_corpus, tmp_path_factory, target, mutations):
    attr, command = target
    inputs = _Inputs(mini_corpus, tmp_path_factory.mktemp("text"))
    for folder in ("features", "anims"):  # the mutated manifest's paths resolve next to it
        (inputs.tmp / folder).symlink_to(inputs.root / folder)
    inputs.config = inputs.file("train.cfg", _TRAIN_CONFIG)
    mutated = mutate_text(Path(getattr(inputs, attr)).read_bytes(), mutations)
    setattr(inputs, attr, inputs.file(f"mutated-{attr}", mutated))
    argv = {
        "eval": inputs.eval(),
        "train": inputs.train("--config", inputs.config),
        "traj": inputs.traj(),
        "export-obj-seq": inputs.export_obj_seq(),
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []

def test_module_entry_point(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lipsync.cli", *argv], capture_output=True, text=True, env=env, timeout=300
        )

    out = tmp_path / "corpus"
    gen = module("gen-corpus", "--out", str(out), "--sentences", "3", "--vertices", "20")
    assert gen.returncode == 0, gen.stderr
    assert len(synthdata.CorpusManifest.load(out / "corpus.jsonl").items) == 3
    assert module().returncode == 1


def test_module_entry_point_trains_the_same_bytes_without_a_thread_setting(mini_corpus, tmp_path):
    # OpenBLAS runs a thread per core unless told otherwise, and a product
    # split over threads sums in another order
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    src = str(Path(cli.__file__).resolve().parents[1])
    unset = {key: value for key, value in os.environ.items() if key not in threads}
    unset["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for name, env in (("unset", unset), ("one", {**unset, **dict.fromkeys(threads, "1")})):
        out = tmp_path / f"{name}.lsn1"
        proc = subprocess.run(
            [sys.executable, "-m", "lipsync.cli", "train", "--manifest", str(mini_corpus["root"] / "corpus.jsonl"),
             "--out", str(out), "--epochs", "2"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
