import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_self_test_passes():
    # Runs every benchmark workload at tiny sizes and checks each output
    # hash against perfbench/pins.json, so an output change fails here.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "quick: ok" in result.stdout.splitlines()
