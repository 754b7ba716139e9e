"""One benchmark process: set up a workload, run it, report one JSON line.

``run.py`` starts this script in fresh processes, so that ``setup_s``,
``first_op_s`` and ``peak_rss_mb`` describe a process that ran only this
workload. Modes:

- ``e2e``: set-up, the first operation and warm repeats for the requested
  seconds, every operation checked; with ``--deep-check`` also the
  once-per-run deep check of the first output;
- ``setup``: set-up only, for one more ``setup_s`` sample;
- ``trace``: set-up and one operation under the tracer, then the per-layer
  metrics, the count checks, the default-tolerance probe and traced against
  untraced repeats for ``trace.overhead``.

The last line of standard output is the JSON result. Nothing here imports
numpy or the package before the ``setup_s`` clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types

from workloads import WORKLOADS, probe_default_tolerance


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def attempt(workload, problem, failures):
    """Run one operation; returns (seconds, output or None).

    A raise or a failed check is appended to ``failures``.
    """
    start = time.perf_counter()
    try:
        output = workload.run(problem)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        failures.append(f"raised {type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = time.perf_counter() - start
    problems = workload.check(problem, output)
    if problems:
        failures.append("; ".join(problems))
        return elapsed, None
    return elapsed, output


def measure(workload, ctx, seconds, deep_check):
    """Set-up, the first operation, then warm repeats; ``seconds`` of wall
    time in all, counted from the start of the set-up.

    The deep check, when asked for, runs untimed on the first output; its
    wall time comes out of ``seconds`` too.
    """
    result = {"failures": []}
    failures = result["failures"]
    start = time.perf_counter()
    problem = workload.setup(ctx)
    result["setup_s"] = time.perf_counter() - start

    first_s, output = attempt(workload, problem, failures)
    result["first_op_s"] = first_s
    result["peak_rss_mb"] = _peak_rss_mb()
    if output is not None and deep_check:
        problems = workload.deep_check(problem, output, ctx.seed)
        if problems:
            failures.append("; ".join(problems))

    # Repeat while the next operation, as long as the last one, still ends
    # inside the budget; at least one warm operation always runs.
    times = []
    cpu_start = _cpu_s()
    loop_start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        elapsed, _ = attempt(workload, problem, failures)
        times.append(elapsed)
    result["op_times"] = times
    result["cpu_s"] = _cpu_s() - cpu_start
    result["wall_s"] = time.perf_counter() - loop_start
    result["attempted"] = 1 + len(times)
    result["failed"] = len(failures)
    return result


def _files(directory):
    found = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            stat = os.stat(path)
            found[path] = (stat.st_size, stat.st_mtime_ns)
    return found


def trace(workload, ctx, seconds, dump_path):
    """Traced set-up and operation, then the per-layer metrics.

    Traced against untraced pairs repeat while the next pair still ends
    inside ``seconds`` of wall time from the start; at least one runs.
    """
    from tracing import (Tracer, call_counts, per_layer_metrics,
                         solve_count_mismatches)

    start = time.perf_counter()
    failures = []
    problems = []
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.region("bench.setup"):
            traced_problem = workload.setup(ctx)
        before = _files(ctx.work_dir)
        with tracer.region("bench.op"):
            attempt(workload, traced_problem, failures)
    finally:
        tracer.uninstall()
    after = _files(ctx.work_dir)
    problems += [f"not restored: {name}" for name in tracer.not_restored()]

    spans, counts = tracer.spans, tracer.counts
    tracer.dump(dump_path)
    metrics = per_layer_metrics(spans, counts)
    metrics["cli.bytes_written"] = (
        sum(size for path, (size, mtime) in after.items()
            if before.get(path) != (size, mtime)), "B")

    problems += solve_count_mismatches(spans)
    op_index = next(i for i, s in enumerate(spans) if s.name == "bench.op")
    op_calls = call_counts(spans, under=op_index)

    outcomes = probe_default_tolerance(ctx)
    metrics["linsolve.default_tol_stalls"] = (
        sum(1 for text in outcomes.values() if text.startswith("SolverError")),
        "count")

    # Traced against untraced repeats of the same operation.
    plain_problem = workload.setup(ctx)
    ratios = []
    pair_s = 0.0
    while not ratios or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        plain_s, _ = attempt(workload, plain_problem, failures)
        tracer.reset()
        tracer.install()
        try:
            with tracer.region("bench.op"):
                traced_s, _ = attempt(workload, traced_problem, failures)
        finally:
            tracer.uninstall()
        ratios.append(traced_s / plain_s)
        pair_s = time.perf_counter() - pair_start
        repeat_calls = call_counts(tracer.spans, under=0)
        if repeat_calls != op_calls:
            diff = sorted(set(repeat_calls.items()) ^ set(op_calls.items()))
            problems.append(f"traced call counts changed between"
                            f" operations: {diff[:6]}")
    problems += [f"not restored: {name}" for name in tracer.not_restored()]
    metrics["trace.overhead"] = (statistics.median(ratios), "1")

    attempted = 1 + 2 * len(ratios)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "default_tol": outcomes,
        "overhead_pairs": len(ratios),
        "spans": len(spans),
    }


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("e2e", "setup", "trace"))
    parser.add_argument("--deep-check", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--dump", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ctx = types.SimpleNamespace(root=args.root, work_dir=args.work_dir,
                                seed=args.seed)
    try:
        if args.mode == "trace":
            result = trace(workload, ctx, args.seconds, args.dump)
        elif args.mode == "setup":
            start = time.perf_counter()
            workload.setup(ctx)
            result = {"setup_s": time.perf_counter() - start}
        else:
            result = measure(workload, ctx, args.seconds, args.deep_check)
        result["versions"] = _versions()
    except Exception:
        # Set-up failed: no operation could be attempted.
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
