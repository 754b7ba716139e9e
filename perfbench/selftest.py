"""Self-tests of the benchmark itself; not part of the package's test suite.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, per_layer_metrics, self_times  # noqa: E402


def _package_attributes():
    """Every attribute of every package module and traced class."""
    found = {}
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            found[(module.__name__, attr)] = value
    from caginalp_control.linsolve import FactorizedOperator
    from caginalp_control.state import StepOperators

    for cls in (FactorizedOperator, StepOperators):
        for attr, value in vars(cls).items():
            found[(cls.__qualname__, attr)] = value
    return found


def _owner(key):
    from caginalp_control.linsolve import FactorizedOperator
    from caginalp_control.state import StepOperators

    classes = {"FactorizedOperator": FactorizedOperator,
               "StepOperators": StepOperators}
    name, attr = key
    owner = classes.get(name) or sys.modules[name]
    return vars(owner)[attr]


def _spans(*rows):
    return [Span(name, parent, start, end)
            for name, start, end, parent in rows]


class TracerRestoresOriginals(unittest.TestCase):

    def test_install_wraps_every_copy_and_uninstall_restores_identity(self):
        from caginalp_control import adjoint, control, state

        before = _package_attributes()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(state.solve_state,
                             before[("caginalp_control.state",
                                     "solve_state")])
            # The copy made by ``from .state import solve_state`` is wrapped
            # by the same wrapper.
            self.assertIs(control.solve_state, state.solve_state)
            self.assertIs(control.reduced_gradient, adjoint.reduced_gradient)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.not_restored(), [])
        after = _package_attributes()
        self.assertEqual(set(before), set(after))
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        for key, value in before.items():
            self.assertIs(_owner(key), value)

    def test_uninstall_restores_after_a_failing_call(self):
        from caginalp_control import state

        original = state.solve_state
        tracer = Tracer()
        tracer.install()
        try:
            with self.assertRaises(Exception):
                state.solve_state(None, None, None, None, None, None)
        finally:
            tracer.uninstall()
        self.assertIs(state.solve_state, original)
        self.assertEqual(tracer.spans[0].info, {"raised": "AttributeError"})


class SelfTimeArithmetic(unittest.TestCase):

    def test_nested_spans(self):
        spans = _spans(
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a.inner", 2.0, 3.0, 1),
            ("b", 5.0, 6.0, 0),
        )
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_children_are_clipped_and_overlaps_counted_once(self):
        spans = _spans(
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 5.0, 0),
            ("c", 9.0, 12.0, 0),
        )
        self.assertEqual(self_times(spans)[0], 10.0 - 4.0 - 1.0)

    def test_layer_metrics_use_self_time_and_count_zero_layers(self):
        spans = _spans(
            ("bench.op", 0.0, 10.0, -1),
            ("state.solve_state", 1.0, 9.0, 0),
            ("linsolve.factor", 2.0, 5.0, 1),
            ("linsolve.solve", 6.0, 7.0, 1),
        )
        spans[2].info = {"nnz": 2 ** 20}
        spans[3].info = {"counted": True}
        spans[1].info = {"own_solves": 1}
        metrics = per_layer_metrics(spans, {"linsolve.backsolves": 2})
        self.assertEqual(metrics["state.forward_self_s"], (4.0, "s"))
        self.assertEqual(metrics["linsolve.factor_s"], (3.0, "s"))
        self.assertEqual(metrics["linsolve.factor_mb_max"], (12.0, "MB"))
        self.assertEqual(metrics["linsolve.backsolves_per_solve"],
                         (2.0, "1"))
        self.assertEqual(metrics["adjoint.backward_sweeps"], (0, "count"))
        self.assertEqual(tracing.solve_count_mismatches(spans), [])
        spans[1].info = {"own_solves": 2}
        self.assertEqual(len(tracing.solve_count_mismatches(spans)), 1)


class FailuresAreCounted(unittest.TestCase):

    class Flaky:
        """Raises on every second operation."""

        name = "flaky"

        def __init__(self):
            self.calls = 0

        def setup(self, ctx):
            return None

        def run(self, problem):
            self.calls += 1
            if self.calls % 2 == 0:
                raise RuntimeError("injected")
            return self.calls

        def check(self, problem, output):
            return []

        def deep_check(self, problem, output, seed):
            return []

    def test_raising_operations_count_as_failed(self):
        ctx = types.SimpleNamespace(root=ROOT, work_dir=None, seed=1)
        result = worker.measure(self.Flaky(), ctx, seconds=0.05,
                                deep_check=True)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"] // 2)
        self.assertEqual(len(result["op_times"]), result["attempted"] - 1)

    def test_failed_check_counts_as_failed(self):
        flaky = self.Flaky()
        flaky.check = lambda problem, output: ["wrong"]
        ctx = types.SimpleNamespace(root=ROOT, work_dir=None, seed=1)
        result = worker.measure(flaky, ctx, seconds=0.0, deep_check=False)
        self.assertEqual((result["attempted"], result["failed"]), (2, 2))


class RefusesWithoutTheProgram(unittest.TestCase):

    def test_bare_directory_exits_nonzero_without_a_result(self):
        scratch = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "desk-verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
