"""Verification battery: selection, tolerances, fault injection, reports."""

import dataclasses
import sys

import numpy as np
import pytest
from conftest import DESK_CFG

import caginalp_control
from caginalp_control import (
    ConfigurationError,
    Field,
    Grid,
    InitialData,
    SUITE_NAMES,
    SpaceTimeField,
    VerifySuiteConfig,
    load_config,
    run_suite,
)
from caginalp_control import control, state, verification


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
    header, rows = tables["optimizer_report"]
    assert header == ("iter", "J", "stationarity", "step", "backtracks")
    assert len(rows) >= 2
    costs = [row[1] for row in rows]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


# Seed 312 draws a dot-product pairing that nearly cancels, <h, z> = 3.5e-7
# against about 1e-3 elsewhere, so its relative gap is the most sensitive
# to rounding in the sweeps.
@pytest.mark.parametrize("seed", [7, 312])
def test_other_seed_also_passes(desk_problem, seed):
    report = run_suite(VerifySuiteConfig(
        seed=seed, suites=("taylor", "adjoint", "gradient")), desk_problem)
    assert report.all_passed
    assert report.seed == seed
    assert all(r.seed == seed for r in report.results)


def test_fault_injection_fails_adjoint_and_gradient_only(desk_problem,
                                                         flipped_adjoint):
    cfg = VerifySuiteConfig(suites=("conservation", "adjoint", "gradient"))
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


def _replace_everywhere(monkeypatch, original, replacement):
    """Point every package-module attribute holding ``original`` at
    ``replacement``, since ``from .x import y`` copies it."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(caginalp_control.__name__):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def test_battery_solves_base_state_and_its_cost_adjoint_once(
        monkeypatch, desk_problem):
    # The taylor, adjoint, gradient and lipschitz suites share one
    # S(control) of the problem's model and one cost adjoint around it.
    base_states = []
    adjoint_bases = []
    real_solve_state = state.solve_state
    real_gradient = control._gradient_from_state

    def counting_solve_state(init, u, cfg, params, nl, pot):
        traj = real_solve_state(init, u, cfg, params, nl, pot)
        if u is desk_problem.control and params is desk_problem.params:
            base_states.append(traj)
        return traj

    def counting_gradient(base, u, cost, cost_value=None):
        adjoint_bases.append(base)
        return real_gradient(base, u, cost, cost_value)

    _replace_everywhere(monkeypatch, real_solve_state, counting_solve_state)
    _replace_everywhere(monkeypatch, real_gradient, counting_gradient)
    report = run_suite(VerifySuiteConfig(), desk_problem)
    assert report.all_passed
    assert len(base_states) == 1
    assert sum(any(b is s for s in base_states) for b in adjoint_bases) == 1


def test_failed_base_sweep_fails_every_suite_that_needs_it(desk_problem):
    # A raising base sweep is not kept: each dependent suite solves it
    # again and records its own failure, and other suites are unaffected.
    broken = dataclasses.replace(desk_problem, params=dataclasses.replace(
        desk_problem.params, lambda_p=1e300))
    dependent = ("taylor", "adjoint", "gradient", "lipschitz")
    cfg = VerifySuiteConfig(suites=("equilibrium",) + dependent)
    with np.errstate(over="ignore"):
        report = run_suite(cfg, broken)
    names = [r.name for r in report.results]
    assert names == ["equilibrium_fixed_point", *dependent]
    assert report.results[0].passed
    for row in report.results[1:]:
        assert not row.passed
        assert row.detail.startswith("SolverError"), row.detail
        assert "phase solve" in row.detail, row.detail
        assert row.detail.endswith("in the forward sweep"), row.detail


def test_desk_targets_are_the_desk_state_under_their_control(desk_problem):
    # desk.cfg's targets are its own state under the control cosine:0.4,1.
    p = desk_problem
    profile = 0.4 * np.cos(np.pi * p.grid.coords(0) / p.grid.length[0])
    ref = SpaceTimeField(p.time_grid, p.grid, np.broadcast_to(
        profile, (p.time_grid.nt + 1,) + profile.shape))
    assert np.all(ref.values >= p.admissible.u_min)
    assert np.all(ref.values <= p.admissible.u_max)
    traj = p.solve(ref)
    cost = p.cost
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


def _desk_problem_on(tmp_path, n, length):
    """The desk problem with only its [grid] changed."""
    with open(DESK_CFG, encoding="utf-8") as handle:
        text = handle.read()
    (tmp_path / "desk.cfg").write_text(text.replace(
        "[grid]\nn = 33\nlength = 2.0\n",
        f"[grid]\nn = {n}\nlength = {length}\n"))
    return load_config(str(tmp_path / "desk.cfg")).verify_problem()


@pytest.mark.parametrize("n", [513, 1025])
def test_equilibrium_holds_on_fine_rods(tmp_path, n):
    # Desk data with only the node count changed. A constant state is a
    # fixed point at every grid size; mu formed through the merged operator
    # (a I - Lap), whose diagonal grows as 2/h^2, drifted 2.9e-12 at 513
    # nodes and 1.2e-11 at 1025.
    problem = _desk_problem_on(tmp_path, n, "2.0")
    assert problem.grid.n == (n,)
    report = run_suite(VerifySuiteConfig(suites=("equilibrium",)), problem)
    assert report.all_passed, report.results


@pytest.mark.parametrize("n, length, suites, bound", [
    (1025, "2.0", ("adjoint", "gradient"), None),
    ("65,65", "2.0,2.0", ("equilibrium",), 1e-14),
], ids=["1d-1025", "2d-65x65"])
def test_fine_grids_keep_the_sweeps_exact(tmp_path, n, length, suites,
                                          bound):
    # A phase residual formed with the assembled Schur matrix, whose
    # entries grow as 6/h^4, left a low-mode error in every phase solve: at
    # 1025 nodes dot_product read 1.0e-8, duality 2.4e-8 and
    # gradient_central_difference 2.2e-6. On 65^2 the equilibrium check
    # guards the warm-start rule, that an exact guess is kept as it is: a
    # correction forced on it adds noise that Lap amplifies in mu, 6.2e-13
    # against 2.1e-15. That passes the check's own tolerance of 1e-12, so
    # this test bounds the measured value at 1e-14.
    problem = _desk_problem_on(tmp_path, n, length)
    report = run_suite(VerifySuiteConfig(suites=suites), problem)
    assert report.all_passed, report.results
    if bound is not None:
        assert max(r.measured for r in report.results) <= bound


# With every rate zero and phi constant, theta stays at theta0 under u = 0;
# with only b1 and zero targets, theta0 = 0 makes u = 0 the minimizer.
TRACK_THETA_CFG = """\
[grid]
n = 9
length = 1.0

[time]
t_final = 0.1

[model]
ell = 0.5
lambda_big = 0.7
chi = 0.3

[solver]
nt = 5
theta0 = {theta0}
phi0 = constant:0.2
sigma0 = constant:0.8

[cost]
b1 = 1.0

[admissible]
u_min = -1.0
u_max = 1.0
"""


def _clamp_row(tmp_path, theta0):
    path = tmp_path / "track.cfg"
    path.write_text(TRACK_THETA_CFG.format(theta0=theta0))
    problem = load_config(str(path)).verify_problem()
    report = run_suite(VerifySuiteConfig(suites=("optimizer",)), problem)
    rows = {r.name: r for r in report.results}
    return rows, rows["optimizer_clamp_residual"]


def test_zero_minimizer_reads_zero_clamp_residual(tmp_path):
    # The residual was relative to ||u|| alone and read inf here, although
    # the descent stops at once on stationarity with measure 0.
    rows, clamp = _clamp_row(tmp_path, "zero")
    assert rows["optimizer_stationarity"].measured == 0.0
    assert clamp.measured == 0.0
    assert clamp.passed


def test_zero_control_off_the_minimizer_reads_one(tmp_path, monkeypatch):
    # Where u = 0 but clamp(-z/b5) is not, the clamp is the whole residual.
    real_descent = verification.projected_gradient_descent

    def descent_ending_at_zero(problem, u0):
        report = real_descent(problem, u0)
        return dataclasses.replace(report, final_control=u0)

    monkeypatch.setattr(verification, "projected_gradient_descent",
                        descent_ending_at_zero)
    _, clamp = _clamp_row(tmp_path, "constant:0.5")
    assert clamp.measured == 1.0
    assert not clamp.passed
