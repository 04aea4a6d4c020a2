"""Smoke tests of the example scripts: each runs against the shipped inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    paths = [p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_predict_demo_cycles():
    proc = run_script("predict_demo_cycles.py")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:]}
    assert rows["EVP-2505"][1] == "PET-2L"
    assert rows["DVP-670"][1] == "PET-2L"
