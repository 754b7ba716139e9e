"""Cost functional, admissible box and projected gradient descent."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_params, smooth_init

import caginalp_control.control as control
from caginalp_control import (
    AdmissibleSet,
    ConfigurationError,
    CostSpec,
    Field,
    Grid,
    InitialData,
    ModelParams,
    Nonlinearities,
    OptimizerConfig,
    OptimizerError,
    SolverConfig,
    SpaceTimeField,
    TimeGrid,
    default_nonlinearities,
    default_potential,
    evaluate_cost,
    project_admissible,
    projected_gradient_descent,
    reduced_gradient,
    solve_state,
    stationarity_check,
)
from caginalp_control.grid import l2q_norm
from caginalp_control.oracle import dense_oracle_solve, oracle_cost


def _constant_init(grid, theta, phi, sigma):
    return InitialData(
        theta0=Field(grid, np.full(grid.shape, theta)),
        phi0=Field(grid, np.full(grid.shape, phi)),
        sigma0=Field(grid, np.full(grid.shape, sigma)),
    )


def test_cost_zero_when_trajectory_matches_targets():
    rng = np.random.default_rng(3)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = smooth_init(grid, rng)
    u = SpaceTimeField.zeros(time_grid, grid)
    params = desk_params()
    traj = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), default_potential())
    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    shape = (time_grid.nt + 1,) + grid.shape
    cost = CostSpec(
        b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5,
        theta_q=SpaceTimeField(time_grid, grid, theta.reshape(shape)),
        phi_q=SpaceTimeField(time_grid, grid, phi.reshape(shape)),
        theta_omega=Field(grid, theta[-1].reshape(grid.shape)),
        phi_omega=Field(grid, phi[-1].reshape(grid.shape)),
    )
    assert evaluate_cost(traj, u, cost) == 0.0


def test_cost_pure_regularization_unit_value():
    # J = 0.5 * b5 * int_0^T ||u||^2 with u = 1 on a unit domain and unit
    # horizon gives exactly b5 / 2.
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(1.0, 10)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u = SpaceTimeField.constant(time_grid, grid, 1.0)
    traj = solve_state(init, u, SolverConfig(), ModelParams(),
                       default_nonlinearities(), default_potential())
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=2.0)
    assert evaluate_cost(traj, u, cost) == pytest.approx(1.0, rel=1e-14)


def test_cost_matches_dense_oracle():
    rng = np.random.default_rng(7)
    grid = Grid(4, 1.0)
    time_grid = TimeGrid(0.3, 3)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    values = rng.normal(size=(time_grid.nt + 1,) + grid.shape) * 0.3
    u = SpaceTimeField(time_grid, grid, values)
    cost = CostSpec(
        b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5,
        theta_q=SpaceTimeField.constant(time_grid, grid, 0.1),
        phi_q=SpaceTimeField.constant(time_grid, grid, 0.2),
        theta_omega=Field(grid, np.full(grid.shape, 0.05)),
        phi_omega=Field(grid, np.full(grid.shape, 0.3)),
    )
    traj = solve_state(init, u, SolverConfig(), params, nl, pot)
    dense_traj = dense_oracle_solve(init, u, params, nl, pot)
    ours = evaluate_cost(traj, u, cost)
    theirs = oracle_cost(dense_traj, u, cost)
    assert ours == pytest.approx(theirs, rel=1e-12)


def test_projection_identity_inside_box():
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    u = SpaceTimeField.constant(time_grid, grid, 0.5)
    assert np.array_equal(project_admissible(u, adm).values, u.values)


def test_projection_clamps_to_bounds():
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    u = SpaceTimeField.constant(time_grid, grid, 10.0)
    clamped = project_admissible(u, adm)
    assert np.all(clamped.values == 1.0)
    again = project_admissible(clamped, adm)
    assert np.array_equal(again.values, clamped.values)


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(11)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    adm = AdmissibleSet(u_min=-0.4, u_max=0.8)
    from caginalp_control import l2q_norm

    for _ in range(20):
        a = SpaceTimeField(
            time_grid, grid,
            rng.normal(size=(time_grid.nt + 1,) + grid.shape) * 3.0)
        b = SpaceTimeField(
            time_grid, grid,
            rng.normal(size=(time_grid.nt + 1,) + grid.shape) * 3.0)
        lhs = l2q_norm(project_admissible(a, adm)
                       - project_admissible(b, adm))
        rhs = l2q_norm(a - b)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_admissible_set_validation():
    with pytest.raises(ConfigurationError, match="empty box"):
        AdmissibleSet(u_min=1.0, u_max=-1.0)
    with pytest.raises(ConfigurationError, match="finite"):
        AdmissibleSet(u_min=float("nan"), u_max=1.0)


def test_cost_spec_validation():
    with pytest.raises(ConfigurationError, match="b5"):
        CostSpec(b1=1.0, b2=1.0, b3=1.0, b4=1.0, b5=0.0)
    with pytest.raises(ConfigurationError, match="b1"):
        CostSpec(b1=-1.0, b2=1.0, b3=1.0, b4=1.0, b5=1.0)


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError, match="max_iters"):
        OptimizerConfig(max_iters=-1)
    with pytest.raises(ConfigurationError, match="stationarity_tol"):
        OptimizerConfig(stationarity_tol=-1e-8)


def test_descent_pure_regularization_reaches_zero():
    # With only the b5 term the exact minimizer over a symmetric box is
    # u = 0 and one exact gradient step from any start lands on it.
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u0 = SpaceTimeField.constant(time_grid, grid, 0.5)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    report = projected_gradient_descent(
        u0, init, adm, cost, OptimizerConfig(), SolverConfig(),
        ModelParams(), default_nonlinearities(), default_potential())
    assert report.stop_reason == "stationarity"
    assert np.all(report.final_control.values == 0.0)
    assert report.final_cost == 0.0
    assert len(report.iterates) == 2
    costs = [rec.cost for rec in report.iterates]
    assert costs == sorted(costs, reverse=True)


def test_descent_takes_the_barzilai_borwein_step_after_the_first():
    # With only the b5 term the gradient is b5 * u, so every difference of
    # gradients is b5 times the difference of controls and the short
    # Barzilai-Borwein step <s, y> / <y, y> is exactly 1 / b5, which lands
    # on the minimizer u = 0.
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u0 = SpaceTimeField.constant(time_grid, grid, 0.7)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=0.5)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    report = projected_gradient_descent(
        u0, init, adm, cost, OptimizerConfig(), SolverConfig(),
        ModelParams(), default_nonlinearities(), default_potential())
    assert report.iterates[0].step == control.INITIAL_STEP
    assert report.iterates[1].step == pytest.approx(1.0 / cost.b5,
                                                    rel=1e-12)
    assert report.stop_reason == "stationarity"
    assert len(report.iterates) == 3
    assert report.final_cost == 0.0


def test_descent_falls_back_to_the_initial_step_without_curvature(
        monkeypatch):
    # A gradient that does not change gives <s, y> = 0, so the second
    # iterate's first trial is INITIAL_STEP again, not a spectral step.
    monkeypatch.setattr(control, "INITIAL_STEP", 0.25)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    fixed = SpaceTimeField.constant(time_grid, grid, 0.35)
    original = control._gradient_from_state

    def unchanging(traj, u, cost_spec, cost_value):
        result = original(traj, u, cost_spec, cost_value)
        return dataclasses.replace(result, gradient=fixed)

    monkeypatch.setattr(control, "_gradient_from_state", unchanging)
    report = projected_gradient_descent(
        SpaceTimeField.constant(time_grid, grid, 0.7),
        _constant_init(grid, 0.0, 1.0, 0.5),
        AdmissibleSet(u_min=-1.0, u_max=1.0),
        CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=0.5),
        OptimizerConfig(max_iters=2), SolverConfig(), ModelParams(),
        default_nonlinearities(), default_potential())
    assert report.stop_reason == "max_iters"
    assert [(rec.step, rec.backtracks) for rec in report.iterates[:-1]] == [
        (0.25, 0), (0.25, 0)]


def test_descent_respects_active_lower_bound():
    # Keeping u >= 0.2 makes the boundary point the constrained minimizer
    # of the pure regularization cost.
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u0 = SpaceTimeField.constant(time_grid, grid, 0.9)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=0.2, u_max=1.0)
    report = projected_gradient_descent(
        u0, init, adm, cost, OptimizerConfig(), SolverConfig(),
        ModelParams(), default_nonlinearities(), default_potential())
    assert report.stop_reason == "stationarity"
    values = report.final_control.values[:-1]
    assert np.allclose(values, 0.2, atol=1e-9)
    check = stationarity_check(report.final_control, report.final_gradient,
                               adm, seed=5)
    assert check.measure <= 1e-8
    assert np.min(check.vi_samples) >= -1e-10


def test_stationarity_check_flags_nonminimizer():
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u = SpaceTimeField.constant(time_grid, grid, 0.9)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    grad = reduced_gradient(u, init, cost, SolverConfig(), ModelParams(),
                            default_nonlinearities(),
                            default_potential()).gradient
    check = stationarity_check(u, grad, adm, seed=7)
    assert check.measure > 0.1
    assert np.min(check.vi_samples) < 0.0


def test_descent_tracking_cost_decreases_monotonically():
    rng = np.random.default_rng(13)
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.3, 15)
    init = smooth_init(grid, rng)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    target_u = SpaceTimeField.constant(time_grid, grid, 0.4)
    reference = solve_state(init, target_u, SolverConfig(), params, nl,
                            pot)
    shape = (time_grid.nt + 1,) + grid.shape
    cost = CostSpec(
        b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5,
        theta_q=SpaceTimeField(
            time_grid, grid,
            reference.field_array("theta").reshape(shape)),
        phi_q=SpaceTimeField(
            time_grid, grid, reference.field_array("phi").reshape(shape)),
        theta_omega=Field(
            grid, reference.field_array("theta")[-1].reshape(grid.shape)),
        phi_omega=Field(
            grid, reference.field_array("phi")[-1].reshape(grid.shape)),
    )
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    u0 = SpaceTimeField.zeros(time_grid, grid)
    report = projected_gradient_descent(
        u0, init, adm, cost, OptimizerConfig(max_iters=5), SolverConfig(),
        params, nl, pot)
    assert report.stop_reason == "max_iters"
    costs = [rec.cost for rec in report.iterates]
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert report.final_cost == costs[-1]
    assert report.iterates[-1].linear_solves > 0


def test_descent_wraps_solver_failures():
    nl = default_nonlinearities()

    def nan_gate(s):
        return np.full_like(np.asarray(s, dtype=float), np.nan)

    broken = Nonlinearities(
        H_gate=nan_gate, H_gate_prime=nl.H_gate_prime,
        H_gate_second=nl.H_gate_second, K_temp=nl.K_temp,
        K_temp_prime=nl.K_temp_prime, K_temp_second=nl.K_temp_second,
    )
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    init = _constant_init(grid, 0.0, 0.5, 0.5)
    u0 = SpaceTimeField.zeros(time_grid, grid)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    with pytest.raises(OptimizerError, match="sweep failed"):
        projected_gradient_descent(
            u0, init, adm, cost, OptimizerConfig(), SolverConfig(),
            ModelParams(lambda_p=1.0), broken, default_potential())


def test_descent_stops_when_the_step_no_longer_moves_the_control(
        monkeypatch):
    # A flat cost fails every Armijo test. With a step floor far below
    # rounding, backtracking reaches steps that leave the control unchanged;
    # such a null trial must end the search, not be accepted as a move.
    # (With J = 1 the resolution stop now ends the search first, after 37
    # backtracks; the zero-cost test below reaches the null trial.)
    monkeypatch.setattr(control, "evaluate_cost", lambda *args: 1.0)
    monkeypatch.setattr(control, "MIN_STEP", 1e-300)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u0 = SpaceTimeField.constant(time_grid, grid, 0.5)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    report = projected_gradient_descent(
        u0, init, adm, cost, OptimizerConfig(max_iters=5),
        SolverConfig(), ModelParams(), default_nonlinearities(),
        default_potential())
    assert report.stop_reason == "resolution"
    assert len(report.iterates) == 1
    assert np.array_equal(report.final_control.values, u0.values)


def test_descent_at_zero_cost_stops_when_the_step_no_longer_moves(
        monkeypatch):
    # At J = 0 the cost's resolution linear_tol * |J| is zero, so every
    # rejected trial that moved the control predicts a decrease above it;
    # only the null trial at a step below rounding ends the search.
    monkeypatch.setattr(control, "evaluate_cost", lambda *args: 0.0)
    monkeypatch.setattr(control, "MIN_STEP", 1e-300)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u0 = SpaceTimeField.constant(time_grid, grid, 0.5)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=-1.0, u_max=1.0)
    report = projected_gradient_descent(
        u0, init, adm, cost, OptimizerConfig(max_iters=5),
        SolverConfig(), ModelParams(), default_nonlinearities(),
        default_potential())
    assert report.stop_reason == "min_step"
    assert len(report.iterates) == 1
    # 0.5 - alpha * 0.5 rounds back to 0.5 once alpha reaches 2^-54.
    assert report.iterates[0].step < 2.0 ** -53
    assert report.iterates[0].step > 1e-300
    assert np.array_equal(report.final_control.values, u0.values)


def test_descent_runs_one_forward_sweep_per_trial(monkeypatch):
    # The accepted trial's state is reused for the next gradient, so the
    # forward sweeps are the one at the start plus one per trial.
    import caginalp_control.adjoint as adjoint
    import caginalp_control.state as state

    # A first trial step of 8 makes the first iterate backtrack; within
    # max_iters = 2 the run stops on max_iters before reaching stationarity.
    monkeypatch.setattr(control, "INITIAL_STEP", 8.0)
    sweeps = []
    original = state.solve_state

    def counting(*args, **kwargs):
        sweeps.append(1)
        return original(*args, **kwargs)

    for module in (state, adjoint, control):
        if getattr(module, "solve_state", None) is original:
            monkeypatch.setattr(module, "solve_state", counting)

    rng = np.random.default_rng(17)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = smooth_init(grid, rng)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    reference = original(init, SpaceTimeField.constant(time_grid, grid, 0.4),
                         SolverConfig(), params, nl, pot)
    theta_q = reference.space_time("theta")
    phi_q = reference.space_time("phi")
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5,
                    theta_q=theta_q, phi_q=phi_q,
                    theta_omega=theta_q.slice(time_grid.nt),
                    phi_omega=phi_q.slice(time_grid.nt))
    report = projected_gradient_descent(
        SpaceTimeField.zeros(time_grid, grid), init,
        AdmissibleSet(u_min=-1.0, u_max=1.0), cost,
        OptimizerConfig(max_iters=2), SolverConfig(),
        params, nl, pot)
    assert report.stop_reason == "max_iters"
    trials = sum(rec.backtracks + 1 for rec in report.iterates[:-1])
    assert trials > len(report.iterates) - 1, "no step backtracked"
    assert len(sweeps) == 1 + trials
    assert report.iterates[-1].forward_sweeps == len(sweeps)
    assert report.iterates[-1].adjoint_sweeps == len(report.iterates)


# Cost and stationarity of iterates 0-8 of PGD from zero on the desk
# problem. Each of iterates 0-7 accepts its first trial, which the
# resolution stop never skips, so these values do not depend on it.
_DESK_DESCENT = (
    (0.004964887383784637, 0.03562773535709938),
    (0.004094422864932944, 0.013239092278376953),
    (0.0039549349933646625, 9.395291392410299e-05),
    (0.003954927293807571, 2.1263185792819006e-05),
    (0.003954926984723311, 7.933176453391178e-06),
    (0.003954926949988294, 1.6156453452388405e-06),
    (0.003954926948452567, 2.6648994643528114e-07),
    (0.0039549269483945704, 1.0717838548807178e-07),
    (0.003954926948382975, 1.370250114212455e-09),
)


@pytest.fixture(scope="module")
def desk_descent(desk_problem):
    p = desk_problem
    return projected_gradient_descent(
        SpaceTimeField.zeros(p.time_grid, p.grid), p.init, p.admissible,
        p.cost, p.optimizer, p.solver, p.params, p.nonlinearities,
        p.potential)


def test_desk_descent_matches_its_recorded_iterates(desk_descent):
    # With the phase step mass-exact, the desk cost is resolved finely
    # enough that descent reaches stationarity_tol = 1e-8 at iterate 8
    # before any trial's predicted decrease falls under the cost's
    # resolution linear_tol * |J|; that stop stays covered by
    # test_search_ends_once_a_rejection_is_below_the_cost_resolution.
    report = desk_descent
    assert report.stop_reason == "stationarity"
    assert report.iterates[-1].backtracks <= 1
    costs = [rec.cost for rec in report.iterates]
    stationarity = [rec.stationarity for rec in report.iterates]
    assert costs == pytest.approx([c for c, _ in _DESK_DESCENT], rel=1e-10)
    assert stationarity == pytest.approx([s for _, s in _DESK_DESCENT],
                                         rel=1e-6)
    assert report.final_cost == pytest.approx(0.003954926948382975,
                                              rel=1e-10)
    assert l2q_norm(report.final_control) == pytest.approx(
        0.05669761922112426, rel=1e-10)


def test_report_gradient_is_the_gradient_at_the_final_control(
        desk_problem, desk_descent):
    p = desk_problem
    result = reduced_gradient(desk_descent.final_control, p.init, p.cost,
                              p.solver, p.params, p.nonlinearities,
                              p.potential)
    assert np.array_equal(desk_descent.final_gradient.values,
                          result.gradient.values)


def test_search_ends_once_a_rejection_is_below_the_cost_resolution(
        monkeypatch):
    # Pure regularization over the box [0.2, 1]: the minimizer is u = 0.2,
    # and a start 1e-12 above it at one node has a first trial that lowers
    # the cost by about 8e-16, under the resolution linear_tol * J = 4e-15.
    # When the trial's cost reads high by noise under that resolution, the
    # rejection is noise, and the search must end after that one trial
    # instead of halving alpha down to MIN_STEP.
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    values = np.full((time_grid.nt + 1,) + grid.shape, 0.2)
    values[0, 4] += 1e-12
    u0 = SpaceTimeField(time_grid, grid, values)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adm = AdmissibleSet(u_min=0.2, u_max=1.0)
    solver_cfg = SolverConfig()
    args = (init, adm, cost)
    model = (solver_cfg, ModelParams(), default_nonlinearities(),
             default_potential())
    opt_cfg = OptimizerConfig(stationarity_tol=0.0, max_iters=1)

    clean = projected_gradient_descent(u0, *args, opt_cfg, *model)
    assert clean.iterates[0].backtracks == 0, "the trial lowers the cost"

    start_cost = clean.iterates[0].cost
    noise = 0.5 * solver_cfg.linear_tol * abs(start_cost)
    original = control.evaluate_cost

    def noisy(traj, u, cost_spec):
        value = original(traj, u, cost_spec)
        return value if np.array_equal(u.values, values) else value + noise

    monkeypatch.setattr(control, "evaluate_cost", noisy)
    report = projected_gradient_descent(u0, *args, opt_cfg, *model)
    assert report.stop_reason == "resolution"
    assert len(report.iterates) == 1
    assert report.iterates[0].backtracks == 1
    assert np.array_equal(report.final_control.values, values)
