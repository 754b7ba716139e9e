"""In-memory span tracing of the package, installed from outside ``src/``.

``Tracer.install()`` replaces the public functions of every package module,
and a few methods that mark layer boundaries, with wrappers that record a
span (name, start, end, parent) per call. ``from .x import y`` copies a
function into the importing module, so every module attribute that *is* the
original object is replaced, not only the one in the defining module.
``uninstall()`` puts every original object back; ``not_restored()`` checks
that by identity.

Gate functions are called through ``Nonlinearities`` and ``Potential``
instances, not module attributes. While the tracer is installed the factories
that build those instances return copies whose callables record
``model.gate`` spans, so every problem set up under tracing is instrumented.

``per_layer_metrics()`` turns the recorded spans into the per-layer numbers.
A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "caginalp_control"

# Layer name of each package module, in dependency order.
LAYERS = ("grid", "model", "linsolve", "state", "linearized", "adjoint",
          "control", "oracle", "verification", "config", "cli")

# Checks of the verification battery, grouped by the suite that runs them;
# TestResult.runtime carries the runtime of the whole suite on each row.
SUITE_OF_CHECK = {
    "conservation_theta_ell_phi": "conservation",
    "conservation_phi": "conservation",
    "equilibrium_fixed_point": "equilibrium",
    "oracle_state": "oracle",
    "oracle_linearized": "oracle",
    "oracle_adjoint": "oracle",
    "taylor_slope": "taylor",
    "taylor_linear_regime": "taylor",
    "dot_product": "adjoint",
    "duality": "adjoint",
    "gradient_central_difference": "gradient",
    "optimizer_monotone": "optimizer",
    "optimizer_stationarity": "optimizer",
    "optimizer_clamp_residual": "optimizer",
    "variational_inequality": "optimizer",
    "energy_dissipation": "energy",
    "lipschitz_uniform": "lipschitz",
}
SUITES = ("conservation", "equilibrium", "oracle", "taylor", "adjoint",
          "gradient", "optimizer", "energy", "lipschitz")

FORWARD = "state.solve_state"
LINEARIZED = "linearized.solve_linearized"
BACKWARD = "adjoint.solve_adjoint_with_sources"
SWEEPS = (FORWARD, LINEARIZED, BACKWARD)
PGD = "control.projected_gradient_descent"


class Span:
    """One call: name, start and end in seconds, parent index, details."""

    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent, start=0.0, end=0.0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.info = None


class Tracer:
    """Records spans and counts while installed; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self.installed = False

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs, note=None):
        """Run ``fn`` inside a span; ``note(span, args, result)`` may
        attach details to the span after a normal return."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.info = {"raised": type(exc).__name__}
            raise
        finally:
            self._close(span)
        if note is not None:
            note(span, args, result)
        return result

    @contextlib.contextmanager
    def region(self, name):
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, note)

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, wrap):
        """Replace ``owner.attr`` by ``wrap(original)``, if it exists, so
        that a layer boundary the package drops is skipped, not fatal."""
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def _replace_everywhere(self, original, wrapper):
        """Point every package-module attribute holding ``original`` at
        ``wrapper``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or
                                      module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, lambda _: wrapper)

    def install(self):
        """Wrap the package; every module is imported first."""
        import importlib

        if self.installed:
            raise RuntimeError("tracer is already installed")
        self._patches = []
        self.installed = True

        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        special = {
            ("grid", "laplacian_matrix"): self._counting_laplacian,
            ("model", "default_nonlinearities"): self._instrumenting_factory,
            ("model", "default_potential"): self._instrumenting_factory,
            ("model", "zero_potential"): self._instrumenting_factory,
        }
        notes = {
            FORWARD: _note_solve_count,
            LINEARIZED: _note_solve_count,
            BACKWARD: _note_solve_count,
            PGD: _note_iterations,
            "verification.run_suite": _note_suite_runtimes,
        }
        for layer, module in modules.items():
            for attr in module.__all__:
                original = getattr(module, attr)
                if inspect.isclass(original) or not callable(original):
                    continue
                if getattr(original, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                target = original
                if (layer, attr) in special:
                    target = special[(layer, attr)](original)
                wrapper = self.wrap(name, target, notes.get(name))
                self._replace_everywhere(original, wrapper)

        linsolve = modules["linsolve"]
        operator = linsolve.FactorizedOperator
        self._set(operator, "__init__",
                  lambda f: self.wrap("linsolve.factor", f, _note_factor))
        self._set(operator, "solve",
                  lambda f: self.wrap("linsolve.solve", f, _note_solve))
        self._set(linsolve, "splu", self._counted_splu)
        steps = modules["state"].StepOperators
        self._set(steps, "__init__",
                  lambda f: self.wrap("state.operator_setup", f))
        self._set(steps, "nutrient_operator",
                  lambda f: self.wrap("state.nutrient_operator", f))

    def uninstall(self):
        """Restore every patched attribute, most recent first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def not_restored(self):
        """Patched attributes that do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if owner.__dict__[attr] is not original]

    # -- instrumented building blocks --------------------------------------

    def _counting_laplacian(self, cached):
        tracer = self

        @functools.wraps(cached)
        def build(grid):
            before = cached.cache_info().misses
            result = cached(grid)
            tracer.counts["grid.laplacian_builds"] += (
                cached.cache_info().misses - before)
            return result

        return build

    def _instrumenting_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def build(*args, **kwargs):
            instance = factory(*args, **kwargs)
            wrapped = {f.name: tracer.wrap("model.gate", getattr(instance,
                                                                 f.name))
                       for f in dataclasses.fields(instance)
                       if callable(getattr(instance, f.name))}
            return dataclasses.replace(instance, **wrapped)

        return build

    def _counted_splu(self, splu):
        tracer = self

        class CountedLU:
            """Delegates to a SuperLU object, counting back-substitutions."""

            def __init__(self, lu):
                self.lu = lu
                self.nnz = lu.nnz

            def solve(self, rhs, *args, **kwargs):
                tracer.counts["linsolve.backsolves"] += 1
                return self.lu.solve(rhs, *args, **kwargs)

        @functools.wraps(splu)
        def factor(*args, **kwargs):
            return CountedLU(splu(*args, **kwargs))

        return factor

    # -- output -------------------------------------------------------------

    def dump(self, path):
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[s.name], round(s.start, 7), round(s.end, 7),
                           s.parent] for s in self.spans],
                "counts": dict(self.counts),
            }, handle, separators=(",", ":"))


def _note_solve_count(span, args, result):
    span.info = {"own_solves": result.linear_solve_count}


def _note_iterations(span, args, result):
    span.info = {"iterations": len(result.iterates) - 1,
                 "own_solves": result.iterates[-1].linear_solves}


def _note_suite_runtimes(span, args, result):
    runtimes = {}
    for row in result.results:
        suite = SUITE_OF_CHECK.get(row.name, row.name)
        runtimes[suite] = row.runtime
    span.info = {"suite_runtimes": runtimes}


def _note_factor(span, args, result):
    span.info = {"nnz": getattr(getattr(args[0], "_lu", None), "nnz", 0)}


def _note_solve(span, args, result):
    span.info = {"counted": getattr(args[0], "_counter", None) is not None}


# -- analysis -----------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, clipped to its own interval."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted((spans[c].start, spans[c].end)
                                 for c in children[i]):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def _ancestors(spans, i):
    parent = spans[i].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def _has_ancestor(spans, i, predicate):
    return any(predicate(spans[a]) for a in _ancestors(spans, i))


def call_counts(spans, under=None):
    """Calls per span name, optionally only below span index ``under``."""
    counts = Counter()
    for i, span in enumerate(spans):
        if under is None or under in _ancestors(spans, i):
            counts[span.name] += 1
    return counts


def per_layer_metrics(spans, counts):
    """Per-layer metrics over all recorded spans, as {name: (value, unit)}.

    Every metric is present for every workload; a layer that did no work
    reports zero.
    """
    counts = Counter(counts)
    own = self_times(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def n(name):
        return len(idx(name))

    def total(name):
        return sum(spans[i].end - spans[i].start for i in idx(name))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def outermost(prefix):
        return sum(s.end - s.start for i, s in enumerate(spans)
                   if s.name.startswith(prefix) and not _has_ancestor(
                       spans, i, lambda a: a.name.startswith(prefix)))

    def ratio(num, den):
        return num / den if den else 0.0

    def info(i, key, default=None):
        return (spans[i].info or {}).get(key, default)

    solves = n("linsolve.solve")
    factor_nnz = [info(i, "nnz", 0) for i in idx("linsolve.factor")]
    stalls = sum(1 for i in idx("linsolve.solve")
                 if info(i, "raised") == "SolverError")

    iterations = sum(info(i, "iterations", 0) for i in idx(PGD))
    in_pgd = {i for i in range(len(spans))
              if _has_ancestor(spans, i, lambda a: a.name == PGD)}
    pgd_sweeps = sum(1 for i in in_pgd if spans[i].name in SWEEPS)
    pgd_solves = sum(1 for i in in_pgd if spans[i].name == "linsolve.solve")
    trials = sum(1 for i in idx(FORWARD)
                 if spans[i].parent >= 0 and spans[spans[i].parent].name
                 == PGD)

    reference_sweeps = sum(
        1 for i in idx(FORWARD)
        if _has_ancestor(spans, i, lambda a: a.name == "config.load_config"))

    suite_s = dict.fromkeys(SUITES, 0.0)
    for i in idx("verification.run_suite"):
        for suite, runtime in info(i, "suite_runtimes", {}).items():
            suite_s[suite] = suite_s.get(suite, 0.0) + runtime

    m = {
        "linsolve.factorizations": (n("linsolve.factor"), "count"),
        "linsolve.factor_s": (total("linsolve.factor"), "s"),
        "linsolve.factor_mb_max": (12.0 * max(factor_nnz, default=0)
                                   / 2 ** 20, "MB"),
        "linsolve.solves": (solves, "count"),
        "linsolve.uncounted_solves": (
            sum(1 for i in idx("linsolve.solve")
                if info(i, "counted") is False), "count"),
        "linsolve.solve_s": (total("linsolve.solve"), "s"),
        "linsolve.backsolves_per_solve": (
            ratio(counts["linsolve.backsolves"], solves), "1"),
        "linsolve.stalls": (stalls, "count"),
        "state.forward_sweeps": (n(FORWARD), "count"),
        "state.forward_self_s": (self_total(FORWARD), "s"),
        "state.operator_setup_self_s": (self_total("state.operator_setup"),
                                        "s"),
        "state.nutrient_assembly_self_s": (
            self_total("state.nutrient_operator"), "s"),
        "state.diagnostics_s": (total("state.ch_energy"), "s"),
        "model.gate_evals": (n("model.gate"), "count"),
        "model.gate_s": (total("model.gate"), "s"),
        "model.validate_s": (total("model.validate"), "s"),
        "linearized.sweeps": (n(LINEARIZED), "count"),
        "linearized.sweep_self_s": (self_total(LINEARIZED), "s"),
        "adjoint.backward_sweeps": (n(BACKWARD), "count"),
        "adjoint.sweep_self_s": (self_total(BACKWARD)
                                 + self_total("adjoint.solve_adjoint"), "s"),
        "adjoint.gradients": (n("adjoint.reduced_gradient"), "count"),
        "control.iterations": (iterations, "count"),
        "control.sweeps_per_iter": (ratio(pgd_sweeps, iterations), "1"),
        "control.solves_per_iter": (ratio(pgd_solves, iterations), "1"),
        "control.trial_accept_ratio": (ratio(iterations, trials), "1"),
        "control.cost_s": (total("control.evaluate_cost"), "s"),
        "control.projection_s": (total("control.project_admissible"), "s"),
        "oracle.dense_s": (outermost("oracle."), "s"),
        "config.load_s": (total("config.load_config"), "s"),
        "config.reference_sweeps": (reference_sweeps, "count"),
        "cli.output_self_s": (self_total("cli.main"), "s"),
        "grid.laplacian_builds": (counts["grid.laplacian_builds"], "count"),
        "grid.laplacian_calls": (n("grid.laplacian_matrix"), "count"),
        "grid.laplacian_s": (total("grid.laplacian_matrix"), "s"),
    }
    for suite in SUITES:
        m[f"verification.{suite}_s"] = (suite_s[suite], "s")
    return m


def solve_count_mismatches(spans):
    """Disagreements between the solves the wrappers saw and the package's
    own tallies.

    Only solves on operators that feed a ``SolveCounter`` are compared,
    since those are the ones the package tallies. Each is attributed to its
    enclosing sweep and to any enclosing optimizer run. A counted solve
    outside every traced sweep means a copy of a sweep function escaped the
    wrappers.
    """
    seen = Counter()
    orphans = 0
    for i, span in enumerate(spans):
        if span.name != "linsolve.solve" or not (span.info or {}).get(
                "counted"):
            continue
        sweep = None
        for a in _ancestors(spans, i):
            if spans[a].name in SWEEPS and sweep is None:
                sweep = a
                seen[a] += 1
            elif spans[a].name == PGD:
                seen[a] += 1
        orphans += sweep is None
    problems = []
    if orphans:
        problems.append(f"{orphans} counted solve(s) outside every traced"
                        " sweep")
    for i, span in enumerate(spans):
        expected = (span.info or {}).get("own_solves")
        if expected is not None and seen[i] != expected:
            problems.append(f"{span.name}: wrappers counted {seen[i]},"
                            f" package tallied {expected}")
    return problems
