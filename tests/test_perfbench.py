"""The benchmark's self-test, so that a rename it depends on fails here first."""

import subprocess
import sys
from pathlib import Path

from test_cli import subprocess_env

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # Runs every workload at tiny size, traced and untraced; about 30 s.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, env=subprocess_env(), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
