"""The benchmark's smoke run: every workload, traced and untraced, at toy size.

The benchmark drives the package through names it calls and, when tracing,
replaces; this run fails when one of them is gone or a workload's output
check fails.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
