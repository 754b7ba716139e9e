"""Command-line entry points: ``simulate``, ``optimize`` and ``verify``.

Exit codes are stable:

- 0: success (for ``verify``: every selected check passed);
- 2: configuration problem (bad config file, bad suite name, failed model
  hypothesis checks, an ``[output] dir`` that cannot be created);
- 3: the forward solver failed;
- 4: the optimization loop aborted;
- 5: at least one verification check failed.

All CSV files are written with round-trip float precision and Unix line
endings, so repeated runs of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import EFFECTIVE_CONFIG_NAME, load_config
from .control import projected_gradient_descent
from .errors import ConfigurationError, OptimizerError, SolverError
from .grid import _FMT, _write_node_table, write_space_time_csv
from .model import validate
from .state import solve_state
from .verification import run_suite

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_SOLVER",
    "EXIT_OPTIMIZER",
    "EXIT_VERIFY",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_OPTIMIZER = 4
EXIT_VERIFY = 5

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="caginalp",
        description="Solver and verification suite for a coupled "
                    "phase-field/temperature/nutrient control problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run the forward solver and write state plus "
                         "diagnostics CSVs")
    sim.add_argument("config", help="path to a run config file")

    opt = sub.add_parser(
        "optimize", help="run projected gradient descent and write the "
                         "iterate report and final control")
    opt.add_argument("config", help="path to a run config file")

    ver = sub.add_parser(
        "verify", help="run a verification suite ('all' or one suite name) "
                       "and write its reports")
    ver.add_argument("suite", help="'all' or one suite name")
    ver.add_argument("config", help="path to a run config file")
    return parser


def _write_csv(path, header, rows, seed=None):
    """Write one delimited report; a seed is recorded as a comment line."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return _FMT.format(value)
        return str(value)

    lines = [] if seed is None else [f"# seed={seed}"]
    lines.append(",".join(header))
    lines.extend(",".join(map(cell, row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _check_model(cfg):
    """Run the hypothesis checks; any failure is a configuration error."""
    report = validate(cfg.params, cfg.nonlinearities, cfg.potential)
    if report.all_passed:
        return
    parts = []
    for check in report.failures():
        suffix = f" ({check.witness})" if check.witness else ""
        parts.append(f"[{check.hypothesis}] {check.description}{suffix}")
    raise ConfigurationError("model hypothesis checks failed: "
                             + "; ".join(parts))


def _prepare_output(cfg):
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"[output].dir: cannot create {cfg.output_dir!r}: {exc.strerror}")
    return cfg.output_dir


def _write_effective_config(cfg):
    path = os.path.join(cfg.output_dir, EFFECTIVE_CONFIG_NAME)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(cfg.effective_config())


_STATE_FIELDS = ("theta", "phi", "mu", "sigma")


def _write_state_slice(path, trajectory, level):
    """Write one time level of the state as a node table."""
    _write_node_table(path, trajectory.grid, _STATE_FIELDS, [[
        trajectory.field_array(name)[level] for name in _STATE_FIELDS]])


def _cmd_simulate(config_path):
    cfg = load_config(config_path)
    _check_model(cfg)
    out_dir = _prepare_output(cfg)

    trajectory = solve_state(cfg.init, cfg.control, cfg.solver, cfg.params,
                             cfg.nonlinearities, cfg.potential)

    header = ("step", "time", "mass_theta_ell_phi", "mass_phi", "energy",
              "linf_theta", "linf_phi")
    rows = [(d.step, d.time, d.mass_theta_ell_phi, d.mass_phi, d.energy,
             d.linf_theta, d.linf_phi) for d in trajectory.diagnostics]
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), header, rows)

    for level in cfg.output_slices:
        _write_state_slice(os.path.join(out_dir, f"state_{level:06d}.csv"),
                           trajectory, level)

    _write_effective_config(cfg)
    print(f"simulate: {cfg.time_grid.nt} steps,"
          f" {len(cfg.output_slices)} state slice(s),"
          f" reports in {out_dir}")
    return EXIT_OK


def _cmd_optimize(config_path):
    cfg = load_config(config_path)
    _check_model(cfg)
    problem = cfg.verify_problem()
    out_dir = _prepare_output(cfg)

    report = projected_gradient_descent(problem, problem.control)

    header = ("iter", "J", "stationarity", "step", "backtracks")
    rows = [(it.iteration, it.cost, it.stationarity, it.step, it.backtracks)
            for it in report.iterates]
    _write_csv(os.path.join(out_dir, "optim_report.csv"), header, rows)
    header = ("iter", "forward_sweeps", "adjoint_sweeps", "linear_solves")
    rows = [(it.iteration, it.forward_sweeps, it.adjoint_sweeps,
             it.linear_solves) for it in report.iterates]
    _write_csv(os.path.join(out_dir, "optim_work.csv"), header, rows)
    write_space_time_csv(report.final_control,
                         os.path.join(out_dir, "control.csv"))

    _write_effective_config(cfg)
    print(f"optimize: {report.stop_reason} after"
          f" {len(report.iterates) - 1} iteration(s),"
          f" J={report.final_cost:.12e}"
          f" stationarity={report.final_stationarity:.6e},"
          f" reports in {out_dir}")
    return EXIT_OK


def _cmd_verify(suite, config_path):
    cfg = load_config(config_path)
    _check_model(cfg)
    problem = cfg.verify_problem()
    verify_cfg = cfg.verify
    if suite != "all":
        verify_cfg = dataclasses.replace(verify_cfg, suites=(suite,))
    out_dir = _prepare_output(cfg)

    report = run_suite(verify_cfg, problem)
    for line in report.summary_lines():
        print(line)

    header = ("name", "passed", "measured", "tolerance")
    rows = [(r.name, r.passed, r.measured, r.tolerance)
            for r in report.results]
    _write_csv(os.path.join(out_dir, "verify_report.csv"), header, rows,
               seed=report.seed)
    for stem in sorted(report.tables):
        table_header, table_rows = report.tables[stem]
        _write_csv(os.path.join(out_dir, f"{stem}.csv"), table_header,
                   table_rows, seed=report.seed)

    _write_effective_config(cfg)
    failed = sum(1 for r in report.results if not r.passed)
    if failed:
        print(f"verify: {failed} of {len(report.results)} check(s) FAILED,"
              f" reports in {out_dir}")
        return EXIT_VERIFY
    print(f"verify: all {len(report.results)} check(s) passed,"
          f" reports in {out_dir}")
    return EXIT_OK


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args.config)
        if args.command == "optimize":
            return _cmd_optimize(args.config)
        return _cmd_verify(args.suite, args.config)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"error: forward solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OptimizerError as exc:
        print(f"error: optimization aborted: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER


if __name__ == "__main__":
    sys.exit(main())
