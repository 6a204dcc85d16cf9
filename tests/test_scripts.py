import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_ablation_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_ablation.py"), "--out", str(tmp_path),
         "--seeds", "0", "--epochs", "1", "--sentences", "6", "--vertices", "20"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trend summary" in proc.stdout
