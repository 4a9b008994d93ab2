"""The benchmark's output checker rejects every corrupted output it is shown.

``benchmarks/selftest.py`` calls the package as the benchmark does
(``emit(run_sweep(cfg))``, ``assemble_state_vector`` and
``analytic_boosted_bloch(...).norm_sq``), so a change to that API fails here
before it fails the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "selftest.py"


def test_benchmark_checker_self_test_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave benchmarks/ as it is
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checker self-test: all corrupted outputs rejected" in proc.stdout
