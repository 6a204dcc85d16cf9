"""One benchmark run: a closed loop with one client, in the BLAS-pinned child.

    python3 perfbench/worker.py --inputs DIR --seconds S --trace 0|1 --result PATH
        [--spans PATH] [--truncate-first]

Requests go through ``lipsync.cli.run`` in this process, each sent when the
last returns. Half the measured time goes to train/eval cycles (``train``
then ``eval`` on each split), interleaved with the other half, which streams
the clip set through ``infer``. Every output is checked; a nonzero exit, an
exception or a failed check counts the request as failed and the loop goes
on. Request times are scaled to a reference machine speed (``Reference``).
With ``--trace 1``
every request runs twice, traced and untraced in alternating order, so the
tracing overhead is measured on the same inputs. ``--truncate-first`` cuts
the first infer output in half before its check, for the self-test.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
from lipsync import cli

TRAIN_SHARE = 0.5
SPLITS = ("train", "val", "test")

# Interpreter-bound numpy code, which is most of this program, runs at two
# speeds about 1.5x apart on a shared machine and switches between them every
# few seconds to minutes. A fixed LSTM-shaped kernel, timed about twice a
# second through the run, tracks that speed. Each request's time is scaled by
# REFERENCE_S over the kernel's mean time in the samples around it (the time
# the request would have taken where the kernel takes REFERENCE_S, about its
# time on an unloaded core of a 2-vCPU VM with OpenBLAS 0.3.31); the timing
# metrics come from scaled times and are printed raw next to them.
REFERENCE_S = 0.0013
REFERENCE_EVERY_S = 0.5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.gates = rng.standard_normal((512, 157)) * 0.1
        self.x = rng.standard_normal(29)
        self.times: list[float] = []  # when each sample ended
        self.seconds: list[float] = []  # kernel time, best of three

    def _kernel(self) -> float:
        start = time.perf_counter()
        h = np.zeros(128)
        c = np.zeros(128)
        for _ in range(40):
            i, f, o, g = np.split(self.gates @ np.concatenate([self.x, h]), 4)
            c = c / (1.0 + np.exp(-f)) + np.tanh(g) / (1.0 + np.exp(-i))
            h = np.tanh(c) / (1.0 + np.exp(-o))
        return time.perf_counter() - start

    def sample(self, every: float = 0.0) -> None:
        """Time the kernel, unless the last sample is under ``every`` seconds old."""
        if self.times and time.perf_counter() - self.times[-1] < every:
            return
        self.seconds.append(min(self._kernel() for _ in range(3)))
        self.times.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time from the last sample before
        ``start`` to the first after ``end``."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, end) + 1
        return REFERENCE_S / statistics.fmean(self.seconds[lo:hi])


class Loop:
    def __init__(self, root: Path, index: dict, trace: bool, truncate_first: bool):
        self.root = root
        self.index = index
        self.tracer = spans.Tracer() if trace else None
        self.truncate_next = truncate_first
        self.records: list[dict] = []  # one per request executed
        self.reference = Reference()

    def path(self, rel: str) -> str:
        return str(self.root / rel)

    def _execute(self, argv: list[str], traced: bool) -> tuple[bool, float, float]:
        """One request; (exit code 0 and no exception, start, wall seconds).

        Its spans carry the index its record will have as request id."""
        request_id = len(self.records)
        try:
            if traced:
                self.tracer.install()
                try:
                    start = time.perf_counter()
                    code = self.tracer.request(request_id, cli.run, argv)
                    seconds = time.perf_counter() - start
                finally:
                    self.tracer.uninstall()
            else:
                start = time.perf_counter()
                code = cli.run(argv)
                seconds = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            return False, 0.0, 0.0
        if code != 0:
            print(f"exit {code}: lipsync {' '.join(argv)}", file=sys.stderr)
        return code == 0, start, seconds

    def request(self, kind: str, argv: list[str], check, **info) -> None:
        """Run and check one request (traced and untraced when tracing)."""
        modes = [False]
        if self.tracer is not None:  # which of the pair runs first alternates
            modes = [False, True] if len(self.records) % 4 == 0 else [True, False]
        for traced in modes:
            ok, start, seconds = self._execute(argv, traced)
            result = None
            if ok:
                try:
                    result = check()
                except (checks.CheckFailed, OSError) as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    ok = False
            self.records.append(
                dict(info, kind=kind, ok=ok, start=start, seconds=seconds, traced=traced, result=result)
            )
            self.reference.sample(every=REFERENCE_EVERY_S)

    def cycle(self, number: int) -> None:
        corpus = self.index["corpus"]
        epochs = self.index["epochs"]
        ckpt, metrics = self.path("trained.lsn1"), self.path("metrics.csv")
        self.request(
            "train",
            ["train", "--manifest", self.path(corpus["manifest"]), "--out", ckpt,
             "--metrics", metrics, "--epochs", str(epochs), "--seed", str(self.index["train_seed"])],
            lambda: checks.read_metrics_csv(metrics, epochs),
            cycle=number,
            frames=epochs * corpus["splits"]["train"]["frames"],
        )
        for split in SPLITS:
            report = self.path(f"eval_{split}.json")
            items = corpus["splits"][split]["items"]
            self.request(
                "eval",
                ["eval", "--manifest", self.path(corpus["manifest"]),
                 "--template", self.path(corpus["template"]),
                 "--landmarks", self.path(corpus["landmarks"]),
                 "--checkpoint", ckpt, "--split", split, "--out", report],
                lambda report=report, items=items: checks.read_eval_json(report, items),
                cycle=number,
                split=split,
                frames=corpus["splits"][split]["frames"],
            )

    def infer(self, number: int) -> None:
        clips = self.index["clips"]
        clip = clips[number % len(clips)]
        out = self.path("infer.lsa1")
        frames = checks.expected_frames(clip["samples"], clip["rate"])

        def check():
            if self.truncate_next:
                self.truncate_next = False
                raw = Path(out).read_bytes()
                Path(out).write_bytes(raw[: len(raw) // 2])
            checks.check_anim(out, frames, self.index["vertices"])

        self.request(
            "infer",
            ["infer", "--checkpoint", self.path(self.index["checkpoint"]),
             "--wav", self.path(clip["path"]), "--out", out, "--seed", str(self.index["seed"])],
            check,
            audio_s=clip["samples"] / clip["rate"],
            rate=clip["rate"],
        )

    def run(self, seconds: float) -> None:
        """Interleave the two kinds of work until ``seconds`` have passed.

        A train/eval cycle runs whenever cycles have had less than
        TRAIN_SHARE of the elapsed time, an infer request otherwise, so both
        sample the machine over the whole run rather than one stretch of it.
        """
        self._execute(self._warmup_argv(), False)
        self.reference.sample()
        start = time.perf_counter()
        cycles = requests = 0
        in_cycles = 0.0
        while not (cycles and requests) or time.perf_counter() - start < seconds:
            now = time.perf_counter()
            if not cycles or (in_cycles < TRAIN_SHARE * (now - start) and requests):
                self.cycle(cycles)
                cycles += 1
                in_cycles += time.perf_counter() - now
            else:
                self.infer(requests)
                requests += 1
        self.reference.sample()

    def _warmup_argv(self) -> list[str]:
        clip = self.index["clips"][0]
        return ["infer", "--checkpoint", self.path(self.index["checkpoint"]),
                "--wav", self.path(clip["path"]), "--out", self.path("warmup.lsa1")]


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(records: list[dict], reference: Reference) -> tuple[dict, list[str]]:
    """Metrics from the untraced requests: {name: (value, unit, samples)}.

    Training and eval are deterministic, so every cycle of a run must give the
    same quality bits; a cycle that differs from the first counts as failed.
    """
    quality: dict[str, float] = {}
    problems = []
    for r in records:
        if not r["ok"]:
            continue
        if r["kind"] == "train":
            observed = {"val_loss_final": r["result"]}
        elif r["kind"] == "eval" and r["split"] == "test":
            observed = {"test_pos_lip_px": r["result"]["pos_lip"], "test_vel_lip_px": r["result"]["vel_lip"]}
        else:
            continue
        for key, value in observed.items():
            if quality.setdefault(key, value) != value:
                problems.append(f"{key} differs between cycles: {quality[key]!r} vs {value!r}")
                r["ok"] = False

    plain = [r for r in records if not r["traced"] and r["ok"]]
    by_cycle: dict[int, list[dict]] = {}
    for r in plain:
        if r["kind"] == "eval":
            by_cycle.setdefault(r["cycle"], []).append(r)
    cycles = [rs for rs in by_cycle.values() if len(rs) == len(SPLITS)]

    def timings(seconds) -> dict:
        rtf = [seconds(r) / r["audio_s"] for r in plain if r["kind"] == "infer"]
        train = [r["frames"] / seconds(r) for r in plain if r["kind"] == "train"]
        evals = [sum(r["frames"] for r in rs) / sum(seconds(r) for r in rs) for rs in cycles]
        return {
            "rtf_p50": (_median(rtf), "s/s", len(rtf)),
            "rtf_p90": (statistics.quantiles(rtf, n=10)[8] if len(rtf) > 1 else None, "s/s", len(rtf)),
            "train_frames_per_s": (_median(train), "frames/s", len(train)),
            "eval_frames_per_s": (_median(evals), "frames/s", len(evals)),
        }

    metrics = timings(lambda r: r["seconds"] * reference.scale(r["start"], r["start"] + r["seconds"]))
    metrics.update({f"{name}.raw": m for name, m in timings(lambda r: r["seconds"]).items()})
    slowdown = statistics.median(reference.seconds) / REFERENCE_S
    n_train = metrics["train_frames_per_s"][2]
    metrics.update({
        "reference.slowdown": (slowdown, "x", len(reference.seconds)),
        "val_loss_final": (quality.get("val_loss_final"), "loss", n_train),
        "test_pos_lip_px": (quality.get("test_pos_lip_px"), "px", len(cycles)),
        "test_vel_lip_px": (quality.get("test_vel_lip_px"), "px/frame", len(cycles)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    })
    return metrics, problems


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="where to write the spans of a traced run")
    parser.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    parser.add_argument("--truncate-first", action="store_true")
    args = parser.parse_args()

    index = json.loads((args.inputs / "inputs.json").read_text())
    loop = Loop(args.inputs, index, bool(args.trace), args.truncate_first)
    loop.run(args.seconds)

    metrics, problems = end_to_end(loop.records, loop.reference)
    result = {
        "attempted": len(loop.records),
        "failed": sum(not r["ok"] for r in loop.records),
        "problems": problems,
        "metrics": metrics,
        "provenance": provenance(),
    }
    if args.trace:
        pairs = [(a, b) for a, b in zip(loop.records[0::2], loop.records[1::2]) if a["ok"] and b["ok"]]
        traced = sum(r["seconds"] for pair in pairs for r in pair if r["traced"])
        plain = sum(r["seconds"] for pair in pairs for r in pair if not r["traced"])
        infer_audio_s = sum(r["audio_s"] for r in loop.records if r["kind"] == "infer" and r["traced"])
        names = [n for n in args.per_layer.split(",") if n]
        kinds = {i: r["kind"] for i, r in enumerate(loop.records)}
        layer_metrics, largest = spans.per_layer_metrics(
            names, loop.tracer.spans, kinds, infer_audio_s, (traced - plain) / plain
        )
        result["metrics"].update(layer_metrics)
        result["largest_infer_self"] = largest
        if args.spans:
            args.spans.write_text(json.dumps({"kinds": kinds, "spans": loop.tracer.spans}))
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
