"""Command-line pipeline: corpus generation, training, inference, evaluation.

Exit codes: 0 success, 1 usage error, 2 data/format error. Every subcommand
taking --seed is bit-reproducible across runs on the same platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

# Only what infer, features and export-obj-seq run is imported here; the
# other handlers import training, evaluation and synthdata when they run.
from . import features, mesh, model
from .errors import ConfigError, DataError, LipSyncError, UsageError

# Each train flag and config-file key, and the TrainConfig field it sets;
# the field's default is the default and its type the cast.
TRAIN_FIELDS = {
    "epochs": "epochs",
    "lr": "learning_rate",
    "w_pos": "w_position",
    "w_vel": "w_velocity",
    "seed": "seed",
    "checkpoint_every": "checkpoint_every",
    "batch_size": "batch_size",
    "clip_norm": "clip_norm",
}


def _train_cast(key):
    from . import training

    return type(next(f.default for f in dataclasses.fields(training.TrainConfig) if f.name == TRAIN_FIELDS[key]))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(UsageError.read_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, val = (part.strip() for part in text.split("=", 1))
        values[key] = val
    return values


def _cmd_gen_corpus(args) -> int:
    from . import synthdata

    out_dir = Path(args.out)
    lo, hi = synthdata.DURATION_RANGE
    head = synthdata.make_head(args.vertices, seed=args.seed)
    provider = features.SurrogateProvider.seeded(args.seed)
    oracle = synthdata.OracleArticulator.seeded(head, seed=args.seed)
    manifest = synthdata.generate_corpus(
        out_dir,
        args.sentences,
        duration_range=(lo if args.min_dur is None else args.min_dur, hi if args.max_dur is None else args.max_dur),
        provider=provider,
        oracle=oracle,
        seed=args.seed,
    )
    mesh.save_obj(head, out_dir / "template.obj", landmark_path=out_dir / "template.landmarks.txt")
    n_train = len(manifest.split("train"))
    n_val = len(manifest.split("val"))
    n_test = len(manifest.split("test"))
    print(f"wrote {len(manifest.items)} sentences ({n_train}/{n_val}/{n_test} train/val/test) to {out_dir}")
    return 0


def _cmd_features(args) -> int:
    seq = features.features_from_wav(args.wav, features.SurrogateProvider.seeded(args.seed))
    features.save_features(seq, args.out)
    print(f"wrote {seq.n_frames} x {seq.dim} feature frames to {args.out}")
    return 0


def _train_configs(args):
    """The TrainConfig of explicit flags over the --config file over field defaults, cast from text."""
    from . import training

    given = [("--" + key.replace("_", "-"), key, raw) for key, raw in vars(args).items()
             if key in TRAIN_FIELDS and raw is not None]
    if args.config:
        given += [(f"config key {key!r}", key, raw) for key, raw in _load_config_file(args.config).items()]
    kwargs = {}
    for source, key, raw in given:
        if key not in TRAIN_FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            value = _train_cast(key)(raw)
        except ValueError:
            raise UsageError(f"bad value for {source}: {raw!r}")
        if source == "--seed" and value < 0:
            raise UsageError(f"--seed must be >= 0, got {value}")
        kwargs.setdefault(TRAIN_FIELDS[key], value)  # the flags come first, so they win and a bad one is named first
    return training.TrainConfig(**kwargs)


def _cmd_train(args) -> int:
    from . import synthdata, training

    train_cfg = _train_configs(args)
    # Both files are written after the last epoch; what would stop either write is refused before the first.
    if args.metrics and Path(args.metrics).resolve() == Path(args.out).resolve():
        raise UsageError(f"--out and --metrics name the same file {args.out!r}")
    for flag, path in (("--out", args.out), ("--metrics", args.metrics)):
        if path and Path(path).is_dir():
            raise IsADirectoryError(f"{flag} {path}: is a directory")
        if path and not Path(path).parent.is_dir():
            raise NotADirectoryError(f"{flag} {path}: no directory {str(Path(path).parent)!r} to write it in")

    manifest = synthdata.CorpusManifest.load(args.manifest)
    train_items = synthdata.load_split(manifest, "train")
    val_items = synthdata.load_split(manifest, "val")
    if not train_items:
        raise UsageError("manifest has no training items")

    vertex_count = train_items[0].displacements.n_vertices
    arch = model.ArchConfig() if args.arch == "conv-lstm" else model.ArchConfig(conv_channels=0)
    net = model.init_params(train_cfg.seed, vertex_count, arch)

    def sink(event):
        if event["event"] == "epoch":
            print(
                f"epoch {event['epoch']:4d} {event['split']:5s} "
                f"lp={event['lp']:.6g} lv={event['lv']:.6g}"
            )

    result = training.train(
        train_items, net, train_cfg, val_items=val_items, sink=sink, checkpoint_dir=args.checkpoint_dir
    )
    model.save_checkpoint(result.best_params, args.out)
    if args.metrics:
        training.write_metrics_csv(result.metrics, args.metrics)
    print(f"saved checkpoint to {args.out} (best epoch {result.best_epoch})")
    return 0


# The last network that _network loaded from a settled regular file, bound
# read-only, with that file's stat key; None when there is none.
_kept = None
# A file whose ctime is less than this much older than the start of a load is
# not kept: on a file system whose timestamps tick in up to 2 s steps, a
# rewrite within one tick could leave every field of the stat key unchanged.
_SETTLE_NS = 2_000_000_000


def _network(path) -> model.NetworkParams:
    """The network of the LSN1 checkpoint at ``path``, loaded once while the file is unchanged.

    Requests in one process often name the same checkpoint. The network
    loaded from a regular file whose ctime is more than ``_SETTLE_NS`` older
    than the request is kept, read-only, under the file's device, inode,
    size, mtime and ctime; a later request whose file has the same five
    values gets it without a load. Any other request drops the kept network
    before it loads, so at most one is held.
    """
    global _kept
    start = time.time_ns()
    st = os.stat(path)  # a missing file fails here as it would in load_checkpoint
    key = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    if _kept is not None and _kept[0] == key:
        return _kept[1]
    _kept = None
    net = model.load_checkpoint(path)
    if stat.S_ISREG(st.st_mode) and st.st_ctime_ns < start - _SETTLE_NS:
        net = net.read_only()
        _kept = (key, net)
    return net


def _cmd_infer(args) -> int:
    net = _network(args.checkpoint)
    if args.wav:
        seq = features.features_from_wav(args.wav, features.SurrogateProvider.seeded(args.seed))
    else:
        seq = features.load_features(args.features)
    disp = model.forward(net, seq)
    mesh.save_anim(disp, args.out)
    print(f"wrote {disp.n_frames} frames x {disp.n_vertices} vertices to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from . import evaluation, synthdata

    manifest = synthdata.CorpusManifest.load(args.manifest)
    head = mesh.load_obj(args.template, landmark_path=args.landmarks)
    samples = synthdata.load_split(manifest, args.split)
    if not samples:
        raise DataError(f"split {args.split!r} of {args.manifest} has no sentences to score")
    cfg = evaluation.ProjectionConfig(**({} if args.px_per_unit is None else {"px_per_unit": args.px_per_unit}))

    if args.self_test:
        report = evaluation.evaluate_self(head, samples, cfg)
        label = "ground truth"
    else:
        net = _network(args.checkpoint)
        report = evaluation.evaluate(net, head, samples, cfg)
        label = Path(args.checkpoint).stem

    print(evaluation.format_table({label: report}))
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    return 0


def _cmd_export_obj_seq(args) -> int:
    net = _network(args.checkpoint)
    head = mesh.load_obj(args.template)
    if head.n_vertices != net.vertex_count:
        raise DataError(
            f"template has {head.n_vertices} vertices but checkpoint decodes {net.vertex_count}; "
            "the topology must match the training template"
        )
    seq = features.features_from_wav(args.wav, features.SurrogateProvider.seeded(args.seed))
    posed = mesh.apply_displacements(head, model.forward(net, seq))
    # OBJ text is written frame by frame, so a non-finite vertex is refused before the first frame.
    if not np.isfinite(posed).all():
        raise DataError("network output holds NaN or inf; nothing written")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    faces = mesh.face_lines(head.faces)  # the same in every frame
    for t, vertices in enumerate(posed):
        (out_dir / f"frame_{t:04d}.obj").write_text(mesh.vertex_lines(vertices) + faces)
    print(f"wrote {len(posed)} OBJ frames to {out_dir}")
    return 0


def _cmd_traj(args) -> int:
    from . import evaluation

    head = mesh.load_obj(args.template, landmark_path=args.landmarks)
    anim = mesh.load_anim(args.anim)
    cfg = evaluation.ProjectionConfig(**({} if args.px_per_unit is None else {"px_per_unit": args.px_per_unit}))
    traj = evaluation.project_landmarks(head, anim, cfg=cfg)
    landmark = args.landmark_index
    if landmark is None:
        landmark = evaluation.default_lip_landmark(head)
    evaluation.lip_trajectory_csv(traj, landmark, args.out)
    print(f"wrote {len(traj)}-frame trajectory of landmark {landmark} to {args.out}")
    return 0


def _gen_corpus_args(p) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sentences", type=int, default=20)
    p.add_argument("--vertices", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-dur", type=float)  # the defaults are synthdata.DURATION_RANGE
    p.add_argument("--max-dur", type=float)


def _features_args(p) -> None:
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)


def _train_args(p) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--metrics", help="CSV metrics log path")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--arch", choices=["conv-lstm", "lstm"], default="conv-lstm")
    for key in TRAIN_FIELDS:  # cast by _train_configs
        p.add_argument("--" + key.replace("_", "-"))
    p.add_argument("--checkpoint-dir")


def _infer_args(p) -> None:
    p.add_argument("--checkpoint", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--wav")
    source.add_argument("--features")
    p.add_argument("--out", required=True, help="animation (.lsa1) path to write")
    p.add_argument("--seed", type=int, default=0, help="feature provider seed")


def _eval_args(p) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--landmarks", required=True)
    scorer = p.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--checkpoint")
    scorer.add_argument("--self-test", action="store_true", help="score ground truth against itself")
    p.add_argument("--split", default="test")
    p.add_argument("--px-per-unit", type=float)
    p.add_argument("--out", help="JSON report path")


def _export_obj_seq_args(p) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _traj_args(p) -> None:
    p.add_argument("--anim", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--landmark-index", type=int, help="defaults to the upper-lip-middle landmark")
    p.add_argument("--px-per-unit", type=float)


# name: (help line, function adding its arguments to a parser, handler)
_COMMANDS = {
    "gen-corpus": ("generate a synthetic corpus", _gen_corpus_args, _cmd_gen_corpus),
    "features": ("extract a feature file from a WAV", _features_args, _cmd_features),
    "train": ("train on a corpus manifest", _train_args, _cmd_train),
    "infer": ("run a checkpoint over audio or features", _infer_args, _cmd_infer),
    "eval": ("landmark error metrics on the test split", _eval_args, _cmd_eval),
    "export-obj-seq": ("write one OBJ per animation frame", _export_obj_seq_args, _cmd_export_obj_seq),
    "traj": ("export a lip landmark trajectory CSV", _traj_args, _cmd_traj),
}


@functools.cache
def _parser() -> _Parser:
    """The lipsync parser, built on the first call and kept for the process.

    Parsing reads a parser and never changes it: each call starts from a
    fresh namespace filled with the declared defaults.
    """
    parser = _Parser(prog="lipsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def run(argv) -> int:
    global _kept
    parser = _parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        # numpy seeds are non-negative; train's flags are text until _train_configs casts them
        if isinstance(getattr(args, "seed", None), int) and args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        if not hasattr(args, "checkpoint"):  # a command that loads no network frees the kept one
            _kept = None
        # Every non-finite result is checked where it arises and reported in
        # one line, so numpy's overflow and invalid-value warnings are noise.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command][2](args)
    except (UsageError, ConfigError) as exc:  # ConfigError: a flag value out of range
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LipSyncError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
