"""The benchmark's own self-tests, run against this checkout.

The tracer in ``perfbench/`` patches ``state.StepOperators``, reads
``FactorizedOperator._counter`` and wraps the sweep functions by name, so a
change to any of them can break the benchmark without failing a package
test. Its self-tests catch that, and the in-process guard below catches a
battery whose traced calls differ between runs.
"""

import importlib.util
import os
import subprocess
import sys

from caginalp_control import VerifySuiteConfig, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_battery_makes_the_same_calls_every_run(desk_problem):
    # The benchmark traces repeated operations on one problem and requires
    # equal call counts in each, so nothing a run solves may outlive it.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    cfg = VerifySuiteConfig(
        suites=("oracle", "taylor", "adjoint", "optimizer", "lipschitz"))
    runs = []
    tracer.install()
    try:
        for _ in range(2):
            runs.append(len(tracer.spans))
            with tracer.region("run"):
                run_suite(cfg, desk_problem)
    finally:
        tracer.uninstall()
    assert tracer.not_restored() == []
    assert tracing.solve_count_mismatches(tracer.spans) == []
    first, second = (tracing.call_counts(tracer.spans, under=index)
                     for index in runs)
    assert first["state.solve_state"] > 0
    assert first == second
