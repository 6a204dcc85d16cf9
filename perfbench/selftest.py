"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
every metric of BENCHMARK.json (and ``error_rate``) is printed by name with
its unit and that the result line holds exactly the metrics the mode asks
for. It also checks that the output checks reject truncated files, that a
truncated infer output is counted in ``error_rate``, and that a directory
holding only the benchmark exits nonzero without a result line.
"""

from __future__ import annotations

import json
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\S+) (\S+) (\S+) \(n=\d+\)$")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def rejects(check, path: Path, *args) -> bool:
    try:
        check(path, *args)
    except checks.CheckFailed:
        return True
    return False


def test_checks_reject_truncation(tmp: Path) -> None:
    anim = tmp / "a.lsa1"
    anim.write_bytes(b"LSA1" + struct.pack("<III", 3, 2, 60) + np.zeros(18, "<f4").tobytes())
    checks.check_anim(anim, 3, 2)
    csv_path = tmp / "m.csv"
    csv_path.write_text("epoch,split,lp,lv,total\n1,train,0.5,0.25,0.625\n1,val,0.5,0.25,0.625\n")
    expect(checks.read_metrics_csv(csv_path, 1) == 0.625, "metrics CSV not read")
    report = tmp / "e.json"
    metrics = {"pos_all": 1.0, "pos_lip": 2.0, "vel_all": 0.5, "vel_lip": 0.25}
    report.write_text(json.dumps(dict(metrics, per_sentence={"s0": metrics})))
    checks.read_eval_json(report, 1)
    for path, check, args in ((anim, checks.check_anim, (3, 2)),
                              (csv_path, checks.read_metrics_csv, (1,)),
                              (report, checks.read_eval_json, (1,))):
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) * 2 // 3])
        expect(rejects(check, path, *args), f"truncated {path.name} passed its check")


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(printed metric lines by name, result JSON) of a finished run."""
    expect(done.returncode == 0, f"run exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    printed = {m.group(1): (m.group(2), m.group(3)) for m in map(LINE.match, lines[:-1]) if m}
    return printed, json.loads(lines[-1])


def test_workload(workload: str, trace: int) -> None:
    done = bench(["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"])
    printed, result = result_of(done)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: {result['failed']} failed")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted}, f"{workload}: result metrics differ")
    for m in SPEC["end_to_end"] + SPEC["per_layer"] * trace + [{"name": "error_rate", "unit": "share"}]:
        expect(m["name"] in printed, f"{workload} trace {trace}: {m['name']} not printed")
        expect(printed[m["name"]][1] == m["unit"], f"{m['name']} printed in {printed[m['name']][1]}")
    for name, entry in result["metrics"].items():
        expect(entry["unit"] == printed[name][1], f"{name}: unit differs between lines")
    print(f"ok {workload} trace {trace}: {len(printed)} metrics printed")


def test_truncated_output_counted() -> None:
    done = bench(["--workload", "infer_16k", "--seed", "3", "--seconds", "2", "--trace", "0", "--tiny",
                  "--truncate-first"])
    printed, result = result_of(done)
    expect(result["failed"] == 1 and not result["correct"], f"truncation not counted: {result}")
    expect(abs(float(printed["error_rate"][0]) * result["attempted"] - 1) < 1e-4, "error_rate misses the truncation")
    print(f"ok truncated output counted: error_rate {printed['error_rate'][0]}")


def test_bare_directory_fails(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(["--workload", "infer_16k", "--seed", "3", "--seconds", "2", "--trace", "0"], cwd=bare)
    expect(done.returncode != 0, "run without the package exited 0")
    expect('"metrics"' not in done.stdout, "run without the package printed a result")
    print("ok bare directory exits", done.returncode)


def main() -> None:
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        test_checks_reject_truncation(Path(tmp))
        test_bare_directory_fails(Path(tmp))
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            test_workload(workload, trace)
    test_truncated_output_counted()
    print("selftest passed")


if __name__ == "__main__":
    main()
