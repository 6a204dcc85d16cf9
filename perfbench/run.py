"""Benchmark entry point: one run of one workload, metrics as the last line.

    python3 perfbench/run.py --workload infer_16k --seed 1 --seconds 50 --trace 0

Run from the repository root. It generates the seeded inputs, measures the
import cost of the package in fresh interpreters (``setup_s``), then runs
the closed loop in a child process whose BLAS and OpenMP pools are pinned to
one thread. Every metric is printed as ``name value unit (n=samples)``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. Scratch files go under
``.perfbench_run/``; the spans of a traced run stay there as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS = 3  # fresh-interpreter imports before the loop, and again after
RUN_LIMIT_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
_IMPORT = "import time; t = time.perf_counter(); import lipsync.cli; print(time.perf_counter() - t)"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped at the deadline)."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish in time")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{argv[0]} exited with {done.returncode}")
    return done


def import_seconds(deadline: float, repeats: int) -> list[float]:
    """Import times of the CLI package, each in a fresh interpreter."""
    return [float(child(["-c", _IMPORT], deadline).stdout) for _ in range(repeats)]


def git_commit() -> str:
    """HEAD from the .git directory if the checkout has one, without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size: a few clips and sentences")
    parser.add_argument("--truncate-first", action="store_true", help="self-test: corrupt one output")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "lipsync" / "__init__.py").is_file():
        raise BenchError(f"no lipsync package under {ROOT / 'src'}; run from a full checkout")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # The first import compiles the bytecode cache and is not counted.
        # Half the imports come before the loop and half after, so setup_s
        # samples the machine at both ends of the run.
        imports = import_seconds(deadline, SETUP_REPEATS + 1)[1:]
        inputs = work / "inputs"
        gen = ["perfbench/inputs.py", "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)]
        child(gen + (["--tiny"] if args.tiny else []), deadline)
        result_path = work / "result.json"
        run = [
            "perfbench/worker.py", "--inputs", str(inputs), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--result", str(result_path),
            "--per-layer", ",".join(m["name"] for m in spec["per_layer"]),
        ]
        if args.trace:
            run += ["--spans", str(WORK / f"spans-{tag}.json")]
        if args.truncate_first:
            run.append("--truncate-first")
        child(run, deadline)
        result = json.loads(result_path.read_text())
        imports += import_seconds(deadline, SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    metrics["setup_s"] = [statistics.median(imports), "s", len(imports)]
    attempted, failed = result["attempted"], result["failed"]
    metrics["error_rate"] = [failed / attempted if attempted else 1.0, "share", attempted]

    provenance = dict(result["provenance"], nproc=os.cpu_count(), git_commit=git_commit(), src_loc=source_loc())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("loop closed, 1 client; provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit} (n={samples})")
    if args.trace:
        print(f"largest self time in infer requests: {result['largest_infer_self']}")
    for problem in result["problems"]:
        print(f"problem: {problem}")

    out = {}
    for m in wanted:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        if value is None:
            raise BenchError(f"{m['name']} could not be measured: no successful request of its kind")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
