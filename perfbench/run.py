"""Benchmark of the caginalp_control package: one workload per call.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk-verify --seed 1729 \
        --seconds 50 --trace 0

Workloads: desk-verify, rod-simulate (see ``workloads.py`` and
BENCHMARK.json for what each stresses and checks).

``--trace 0`` measures the end-to-end metrics with tracing off. It starts
``SAMPLE_PROCESSES`` fresh processes one after the other, which share the
``--seconds`` of wall time between them. Each sets the workload up
(``setup_s``), runs its first operation (``first_op_s``, then
``peak_rss_mb``) and repeats the operation while its share lasts
(``op_s``). The first process also runs the once-per-run deep check. After
each of them one more fresh process only sets up, for more ``setup_s``
samples. Every figure is the median over its samples, which are spread over
the whole run.

``--trace 1`` runs one process under the span tracer (``tracing.py``) and
reports the per-layer metrics, together with ``trace.overhead``; it too
ends after about ``--seconds``.

Every process has OMP/OpenBLAS/MKL pinned to one thread before numpy loads.
Lines starting with ``#`` describe the environment and the samples; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes per end-to-end run, each one first_op_s and peak_rss_mb
# sample and at least one op_s sample. The host's speed swings by a third
# within seconds, so a run needs several of each to spread over its length;
# with five, a desk-verify run in a slow phase (7 s operations) would
# outlast its --seconds by half, since every process runs two operations.
SAMPLE_PROCESSES = 4
# Every run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    ticks = [int(x) for x in fields[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child(mode, args, env, work_dir, deadline, extra=()):
    """Run one worker process; returns its JSON result or an error dict."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--mode", mode,
               "--seed", str(args.seed), "--root", ROOT,
               "--work-dir", work_dir, *extra]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(command, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process exceeded {timeout:.0f} s"}
    finally:
        # Also reached when this process is told to stop: never leave the
        # child running.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"{mode} process exited {proc.returncode}:"
                         f" {stderr.strip()[-2000:]}"}


def _environment(args, versions, steal_share):
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu": _cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "steal_share": steal_share,
    }


def _end_to_end(args, env, work_dir, deadline):
    samples = []
    setup_times = []
    budget_end = time.monotonic() + args.seconds
    for index in range(SAMPLE_PROCESSES):
        # Each process gets an equal share of what is left, so that one
        # that overran its share shortens the next ones.
        share = (budget_end - time.monotonic()) / (SAMPLE_PROCESSES - index)
        extra = ["--seconds", str(max(0.0, share))]
        if index == 0:
            extra.append("--deep-check")
        sample = _child("e2e", args, env, work_dir, deadline, extra)
        if "error" in sample:
            return None, sample["error"]
        samples.append(sample)
        setup_only = _child("setup", args, env, work_dir, deadline,
                            ["--seconds", "0"])
        if "error" in setup_only:
            return None, setup_only["error"]
        setup_times += [sample["setup_s"], setup_only["setup_s"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    op_times = [t for s in samples for t in s["op_times"]]
    metrics = {
        "op_s": (statistics.median(op_times), "s"),
        "first_op_s": (statistics.median(s["first_op_s"] for s in samples),
                       "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"]
                                          for s in samples), "MB"),
    }
    cpu_per_wall = (sum(s["cpu_s"] for s in samples)
                    / sum(s["wall_s"] for s in samples))
    notes = [
        f"op_s: median of {len(op_times)} warm operations;"
        f" first_op_s, peak_rss_mb: medians of {len(samples)} fresh"
        f" processes; setup_s: median of {len(setup_times)}",
        "op_times_s: " + ", ".join(f"{t:.4f}" for t in op_times),
        "first_op_times_s: " + ", ".join(f"{s['first_op_s']:.4f}"
                                         for s in samples),
        f"cpu_per_wall (warm operations): {cpu_per_wall:.3f}",
        f"fail_share: {failed}/{attempted} = {failed / attempted:.4g}",
    ]
    failures = [f for s in samples for f in s["failures"]]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures, "problems": [], "notes": notes,
            "versions": samples[-1]["versions"]}, None


def _traced(args, env, work_dir, deadline):
    dump_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(dump_dir, exist_ok=True)
    dump = os.path.join(dump_dir, f"{args.workload}.trace.json")
    result = _child("trace", args, env, work_dir, deadline,
                    ["--seconds", str(args.seconds), "--dump", dump])
    if "error" in result:
        return None, result["error"]
    result["metrics"] = {k: tuple(v) for k, v in result["metrics"].items()}
    result["notes"] = [
        f"per-layer metrics cover one traced set-up plus one operation;"
        f" {result['spans']} spans written to {os.path.relpath(dump, ROOT)}",
        f"trace.overhead: median traced/untraced ratio over"
        f" {result['overhead_pairs']} pair(s)",
    ] + [f"default linear_tol, step 0 of {name}: {outcome}"
         for name, outcome in sorted(result["default_tol"].items())]
    return result, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Turn a termination request into SystemExit so that the clean-up in
    # _child and below runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for required in (os.path.join("src", "caginalp_control", "__init__.py"),
                     os.path.join("configs", "desk.cfg")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            return _fail(f"{required} not found under {ROOT}; run from a"
                         " checkout of the repository")

    for name in THREAD_VARS:
        os.environ[name] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    ticks_before = _cpu_ticks()
    try:
        run = _traced if args.trace else _end_to_end
        result, error = run(args, env, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if error is not None:
        return _fail(error)

    ticks_after = _cpu_ticks()
    steal_share = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_share = round((ticks_after[0] - ticks_before[0])
                            / (ticks_after[1] - ticks_before[1]), 6)
    print("# env " + json.dumps(_environment(args, result["versions"],
                                             steal_share)))
    for note in result["notes"]:
        print(f"# {note}")
    for text in result["failures"]:
        print(f"# FAILED operation: {text}")
    for text in result["problems"]:
        print(f"# CHECK FAILED: {text}")
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
