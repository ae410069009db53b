"""Smoke test of the benchmark harness at its tiny size.

`benchmarks/selfcheck.py` runs each workload's cheapest recorded request
timed and twice traced, and fails when a golden stdout, an end-to-end or
per-layer metric, or a repeatable count goes missing; a function or cache
the tracer wraps that the package no longer has shows up as a missing
per-layer metric.
"""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parent.parent / "benchmarks" / "selfcheck.py"


def test_benchmark_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, str(SELFCHECK)], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count(": ok;") == 3
