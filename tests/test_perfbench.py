"""The benchmark's own self-tests, run against this checkout.

The tracer in ``perfbench/`` patches ``state.StepOperators``, reads
``FactorizedOperator._counter`` and wraps the sweep functions by name, so a
change to any of them can break the benchmark without failing a package
test. Its self-tests catch that.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
