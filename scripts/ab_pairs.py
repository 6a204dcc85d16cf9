#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs in two checkouts.

For each seed, runs ``perfbench/run.py`` once in the parent checkout and
once in the change checkout, on the same workload and seed, alternating
which side goes first so that drift in the machine's load falls on both.
Then prints, for each workload and metric, the median and quartiles of
each side, the number of pairs the change won and whether that is a claim:
the change won at least 9 of 10 pairs and its median beats the parent's
by more than the parent's interquartile range.

Example, against a second checkout of the parent commit:
    git worktree add ../parent HEAD~1
    python3 scripts/ab_pairs.py ../parent . --workload infer_resample \\
        --seeds 100-109 --seconds 50

``--imports N`` first alternates N pairs of fresh-interpreter
``import lipsync.cli`` runs (numpy included, BLAS on one thread, as
perfbench's ``setup_s`` times them) and summarizes them the same way; with
it, ``--workload`` and ``--seeds`` may be left out:
    python3 scripts/ab_pairs.py ../parent . --imports 30

Each run's metrics line is echoed to stderr as it arrives; ``--json``
keeps every run's metrics as well. Neither checkout is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# The thread pins and the import timing of perfbench's setup_s, so --imports times it the same way.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import _IMPORT, PINNED  # noqa: E402

CLAIM_SHARE = 0.9  # of the pairs the change must win


def seed_list(text: str) -> list[int]:
    """'3,5,9' or '100-109' (inclusive) or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """The last-line JSON of one perfbench run, or None when the run failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  run failed in {checkout} (exit {done.returncode}): {done.stderr.strip()[-400:]}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def import_seconds(checkout: Path) -> float | None:
    """Seconds of one ``import lipsync.cli`` in a fresh interpreter, or None when it failed."""
    src = str(checkout.resolve() / "src")
    env = dict(os.environ, **PINNED, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  import failed in {checkout} (exit {done.returncode}): {done.stderr.strip()[-400:]}", file=sys.stderr)
        return None
    return float(done.stdout)


def import_pairs(parent: Path, change: Path, n: int) -> list[dict]:
    """``n`` pairs of import times, alternating which side goes first."""
    pairs = []
    for i in range(n):
        sides = [("parent", parent), ("change", change)]
        pairs.append({side: import_seconds(checkout) for side, checkout in (sides if i % 2 == 0 else sides[::-1])})
        print(f"import pair {i}: {json.dumps(pairs[-1])}", file=sys.stderr)
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict) -> list[str]:
    """Table lines, one per metric, over the pairs where both runs succeeded.

    ``wins`` counts pairs the change did better in, ``ties`` pairs with
    equal values; ``ratio`` is change median over parent median.
    """
    row = "{:42s} {:>36s} {:>36s} {:>6s} {:>5s} {:>4s} {}"
    lines = [row.format("metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "ties", "claim")]
    for name in sorted({name for a, _ in pairs for name in a["metrics"]} & set(better)):
        runs = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pairs
                if name in a["metrics"] and name in b["metrics"]]
        if not runs:
            continue
        sign = 1.0 if better[name] == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in runs)
        ties = sum(a == b for a, b in runs)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles([r[k] for r in runs]) for k in (0, 1))
        claim = wins >= CLAIM_SHARE * len(runs) and sign * (pmed - cmed) > pq3 - pq1
        lines.append(row.format(
            name, f"{pmed:.5g} [{pq1:.5g}, {pq3:.5g}]", f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]",
            f"{cmed / pmed:.3f}" if pmed else "n/a", f"{wins}/{len(runs)}", str(ties), "yes" if claim else "no",
        ))
    failed = [sum(r["failed"] for r in side) for side in zip(*pairs)] if pairs else [0, 0]
    lines.append(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", default=[], help="repeat for several workloads")
    parser.add_argument("--seeds", type=seed_list, help="e.g. 100-109 or 3,5,9")
    parser.add_argument("--imports", type=int, default=0, metavar="N", help="pairs of fresh `import lipsync.cli`")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every run's metrics here")
    args = parser.parse_args()
    if not (args.workload or args.imports):
        parser.error("give --workload or --imports")
    if args.workload and not args.seeds:
        parser.error("--workload needs --seeds")

    record = {}
    if args.imports:
        record["imports"] = import_pairs(args.parent, args.change, args.imports)
        timed = [p for p in record["imports"] if None not in p.values()]
        pairs = [tuple({"metrics": {"import_s": {"value": p[side]}}, "failed": 0} for side in ("parent", "change"))
                 for p in timed]
        print(f"import lipsync.cli: {len(pairs)} of {args.imports} pairs timed, fresh interpreters")
        # the last line counts failed operations; the line above already counts failed imports
        print("\n".join(summarize(pairs, {"import_s": "lower"})[:-1]))
        print()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for workload in args.workload:
        pairs = []
        for n, seed in enumerate(args.seeds):
            sides = [("parent", args.parent), ("change", args.change)]
            out = {}
            for side, checkout in sides if n % 2 == 0 else sides[::-1]:
                out[side] = bench(checkout, workload, seed, args.seconds, args.trace)
                shown = out[side] and {k: v["value"] for k, v in out[side]["metrics"].items()}
                print(f"{workload} seed {seed} {side}: {json.dumps(shown)}", file=sys.stderr)
            if out["parent"] and out["change"]:
                pairs.append((out["parent"], out["change"]))
            record.setdefault(workload, []).append({"seed": seed, **out})
        print(f"{workload}: {len(pairs)} pairs, {args.seconds:g} s each, seeds {args.seeds[0]}..{args.seeds[-1]}")
        print("\n".join(summarize(pairs, better)))
        print()
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
