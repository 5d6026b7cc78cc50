"""The benchmark's selftest, run as part of the test suite, so that a change
to a library name the benchmark traces or calls fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    run = subprocess.run([sys.executable, "-m", "unittest", "bench/selftest.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
