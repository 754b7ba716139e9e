"""Verification battery: selection, tolerances, fault injection, reports."""

import dataclasses
import os

import numpy as np
import pytest
from conftest import CONFIGS

from caginalp_control import (
    ConfigurationError,
    Field,
    Grid,
    InitialData,
    SUITE_NAMES,
    VerifySuiteConfig,
    load_config,
    run_suite,
    solve_state,
)


def test_default_battery_passes(desk_report):
    failures = [r.name for r in desk_report.results if not r.passed]
    assert desk_report.all_passed, f"failed checks: {failures}"
    assert desk_report.seed == 1729


def test_every_suite_contributes_results(desk_report):
    names = {r.name for r in desk_report.results}
    expected = {
        "conservation_theta_ell_phi", "conservation_phi",
        "equilibrium_fixed_point", "oracle_state", "oracle_linearized",
        "oracle_adjoint", "taylor_slope", "taylor_linear_regime",
        "dot_product", "duality", "gradient_central_difference",
        "optimizer_monotone", "optimizer_stationarity",
        "optimizer_clamp_residual", "variational_inequality",
        "energy_dissipation", "lipschitz_uniform",
    }
    assert names == expected


def test_summary_lines_one_per_check(desk_report):
    lines = desk_report.summary_lines()
    assert len(lines) == len(desk_report.results)
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert any("measured=" in line and "tolerance=" in line
               for line in lines)


def test_report_tables_have_expected_shapes(desk_report):
    tables = desk_report.tables
    header, rows = tables["taylor_report"]
    assert header == ("epsilon", "remainder_norm", "slope")
    assert len(rows) == 3
    header, rows = tables["dot_product_report"]
    assert header == ("trial", "lhs", "rhs", "relative_error")
    assert len(rows) == 10
    header, rows = tables["duality_report"]
    assert len(rows) == 10
    header, rows = tables["optim_report"]
    assert header == ("iter", "J", "stationarity", "step", "backtracks")
    assert len(rows) >= 2
    costs = [row[1] for row in rows]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_other_seed_also_passes(desk_problem):
    report = run_suite(VerifySuiteConfig(
        seed=7, suites=("taylor", "adjoint", "gradient")), desk_problem)
    assert report.all_passed
    assert report.seed == 7
    assert all(r.seed == 7 for r in report.results)


def test_fault_injection_fails_adjoint_and_gradient_only(desk_problem):
    cfg = VerifySuiteConfig(
        suites=("conservation", "adjoint", "gradient"),
        debug_flip_adjoint_sign=True)
    report = run_suite(cfg, desk_problem)
    verdicts = {r.name: r.passed for r in report.results}
    assert verdicts["conservation_theta_ell_phi"]
    assert verdicts["conservation_phi"]
    assert not verdicts["dot_product"]
    assert not verdicts["duality"]
    assert not verdicts["gradient_central_difference"]


def test_unknown_suite_name_lists_valid_names():
    with pytest.raises(ConfigurationError, match="valid names"):
        VerifySuiteConfig(suites=("conservation", "nonsense"))


def test_unknown_tolerance_override_rejected():
    with pytest.raises(ConfigurationError, match="tolerance override"):
        VerifySuiteConfig(tolerances={"no_such_check": 1e-3})


def test_tolerance_override_reaches_the_check(desk_problem):
    cfg = VerifySuiteConfig(suites=("adjoint",),
                            tolerances={"dot_product": 1e-300})
    report = run_suite(cfg, desk_problem)
    verdicts = {r.name: r.passed for r in report.results}
    assert not verdicts["dot_product"]
    assert verdicts["duality"]
    failed = next(r for r in report.results if r.name == "dot_product")
    assert failed.tolerance == 1e-300


def test_suite_selection_runs_in_canonical_order(desk_problem):
    cfg = VerifySuiteConfig(suites=("energy", "conservation"))
    assert cfg.selected() == ("conservation", "energy")
    report = run_suite(cfg, desk_problem)
    names = [r.name for r in report.results]
    assert names == ["conservation_theta_ell_phi", "conservation_phi",
                     "energy_dissipation"]


def test_suite_exception_is_contained(desk_problem):
    # Breaking the initial data grid takes out the suites that consume it,
    # but the battery records the failure and keeps going.
    other = Grid(9, 2.0)
    broken = dataclasses.replace(desk_problem, init=InitialData(
        theta0=Field(other, np.zeros(other.shape)),
        phi0=Field(other, np.zeros(other.shape)),
        sigma0=Field(other, np.zeros(other.shape)),
    ))
    cfg = VerifySuiteConfig(suites=("conservation", "equilibrium"))
    report = run_suite(cfg, broken)
    by_name = {r.name: r for r in report.results}
    crashed = by_name["conservation"]
    assert not crashed.passed
    assert "ConfigurationError" in crashed.detail
    assert np.isnan(crashed.measured)
    assert by_name["equilibrium_fixed_point"].passed


def test_desk_problem_targets_come_from_reference_run(desk_problem):
    reference = load_config(os.path.join(CONFIGS, "desk_reference.cfg"))
    ref = reference.control
    assert np.all(ref.values >= desk_problem.admissible.u_min)
    assert np.all(ref.values <= desk_problem.admissible.u_max)
    traj = solve_state(reference.init, ref, reference.solver,
                       reference.params, reference.nonlinearities,
                       reference.potential)
    cost = desk_problem.cost
    for target, name in ((cost.theta_q, "theta"), (cost.phi_q, "phi")):
        assert np.array_equal(target.values.reshape(
            traj.field_array(name).shape), traj.field_array(name))
    assert np.array_equal(cost.theta_omega.flat,
                          traj.field_array("theta")[-1])
    assert np.array_equal(cost.phi_omega.flat, traj.field_array("phi")[-1])


def test_suite_names_are_pinned():
    assert SUITE_NAMES == ("conservation", "equilibrium", "oracle",
                           "taylor", "adjoint", "gradient", "optimizer",
                           "energy", "lipschitz")
