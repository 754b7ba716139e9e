"""Exact linearization of the forward scheme and the Taylor remainder test."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_params, problem_of, smooth_init

from caginalp_control import (
    ConfigurationError,
    Field,
    Grid,
    InitialData,
    ModelParams,
    SolverConfig,
    SolverError,
    SpaceTimeField,
    TimeGrid,
    default_nonlinearities,
    default_potential,
    solve_linearized,
    l2q_norm,
    solve_state,
    taylor_test,
    zero_potential,
)
from caginalp_control.oracle import oracle_linearized


def _random_control(time_grid, grid, rng, scale=1.0):
    values = rng.normal(size=(time_grid.nt + 1,) + grid.shape) * scale
    values[-1] = 0.0
    return SpaceTimeField(time_grid, grid, values)


def test_zero_direction_gives_zero_trajectory():
    rng = np.random.default_rng(3)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 10)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.2)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    base = solve_state(init, u, SolverConfig(), params, nl, pot)
    h = SpaceTimeField.zeros(time_grid, grid)
    lin = solve_linearized(base, h)
    for name in ("zeta", "xi", "eta", "rho"):
        assert np.all(lin.field_array(name) == 0.0), name


def test_failure_names_the_linearized_sweep():
    # The forward sweep never evaluates H'; the linearization does, so a
    # base whose H' is NaN fails only in the linearized sweep.
    rng = np.random.default_rng(5)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    nl = dataclasses.replace(
        default_nonlinearities(),
        H_gate_prime=lambda s: np.full_like(s, np.nan))
    base = solve_state(smooth_init(grid, rng),
                       _random_control(time_grid, grid, rng, 0.2),
                       SolverConfig(), desk_params(), nl,
                       default_potential())
    with pytest.raises(SolverError) as excinfo:
        solve_linearized(base, _random_control(time_grid, grid, rng))
    assert excinfo.value.step == 0
    assert excinfo.value.block == "phase"
    assert excinfo.value.sweep == "linearized"
    assert str(excinfo.value).endswith("in the linearized sweep")


def test_linearized_map_is_linear():
    rng = np.random.default_rng(7)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 8)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.2)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    cfg = SolverConfig()
    base = solve_state(init, u, cfg, params, nl, pot)
    h1 = _random_control(time_grid, grid, rng)
    h2 = _random_control(time_grid, grid, rng)
    alpha, beta = 1.7, -0.4
    combined = solve_linearized(base, alpha * h1 + beta * h2)
    lin1 = solve_linearized(base, h1)
    lin2 = solve_linearized(base, h2)
    for name in ("zeta", "xi", "eta", "rho"):
        lhs = combined.field_array(name)
        rhs = (alpha * lin1.field_array(name)
               + beta * lin2.field_array(name))
        scale = 1.0 + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-12, name


def test_two_step_sweep_matches_forward_difference():
    # Step 1 of the linearized sweep perturbs the temperature, so step 2 is
    # the derivative of one forward step with respect to (previous state,
    # control slice) jointly; a forward difference of two-step sweeps must
    # match it at first order.
    rng = np.random.default_rng(13)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.04, 2)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    cfg = SolverConfig()
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.3)
    # The control reaches the nonlinearities only through the temperature;
    # a large direction lifts the first-order remainder above rounding.
    h = _random_control(time_grid, grid, rng, 100.0)
    base = solve_state(init, u, cfg, params, nl, pot)
    lin = solve_linearized(base, h)
    assert np.any(lin.field_array("zeta")[1] != 0.0)

    pairs = (("theta", "zeta"), ("phi", "xi"), ("mu", "eta"),
             ("sigma", "rho"))
    errors = []
    for eps in (1e-3, 1e-4, 1e-5):
        shifted = solve_state(init, u + eps * h, cfg, params, nl, pot)
        err = 0.0
        for state_name, lin_name in pairs:
            diff = (shifted.field_array(state_name)
                    - base.field_array(state_name)) / eps
            err = max(err, np.max(np.abs(
                diff - lin.field_array(lin_name))))
        errors.append(err)
    # First-order remainder: error should shrink linearly in eps until
    # cancellation noise takes over; demand a decade across each pair.
    assert errors[1] <= 0.15 * errors[0]
    assert errors[2] <= 0.15 * errors[1]


def test_matches_dense_jacobian_on_tiny_grid():
    rng = np.random.default_rng(17)
    grid = Grid(4, 1.0)
    time_grid = TimeGrid(0.3, 3)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    cfg = SolverConfig()
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    u = _random_control(time_grid, grid, rng, 0.3)
    h = _random_control(time_grid, grid, rng)
    base = solve_state(init, u, cfg, params, nl, pot)
    lin = solve_linearized(base, h)
    # Hand the dense oracle the same base trajectory so the comparison
    # isolates the Jacobian itself.
    dense = oracle_linearized(base, params, nl, pot, h)
    for name in ("zeta", "xi", "eta", "rho"):
        ours = lin.field_array(name)
        theirs = dense.field_array(name)
        scale = 1.0 + np.max(np.abs(theirs))
        assert np.max(np.abs(ours - theirs)) / scale <= 1e-10, name


def test_linear_regime_state_equals_linearization():
    # With zero potential, zero gating couplings and zero initial data the
    # scheme itself is linear in the control, so solving from zero with
    # control h must reproduce the linearized trajectory.
    rng = np.random.default_rng(19)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 10)
    params = ModelParams(ell=0.5, lambda_big=0.0, chi=0.0, tau=0.5,
                         lambda_b=0.0)
    nl = default_nonlinearities()
    pot = zero_potential()
    cfg = SolverConfig()
    zero = Field(grid, np.zeros(grid.shape))
    init = InitialData(theta0=zero, phi0=zero, sigma0=zero)
    h = _random_control(time_grid, grid, rng, 0.5)
    base = solve_state(init, SpaceTimeField.zeros(time_grid, grid), cfg,
                       params, nl, pot)
    full = solve_state(init, h, cfg, params, nl, pot)
    lin = solve_linearized(base, h)
    pairs = (("theta", "zeta"), ("phi", "xi"), ("mu", "eta"),
             ("sigma", "rho"))
    for state_name, lin_name in pairs:
        lhs = full.field_array(state_name)
        rhs = lin.field_array(lin_name)
        scale = 1.0 + np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-11, state_name


def test_taylor_slopes_near_two():
    rng = np.random.default_rng(101)
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.3, 15)
    init = smooth_init(grid, rng)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    cfg = SolverConfig()
    u = _random_control(time_grid, grid, rng, 0.2)
    h = _random_control(time_grid, grid, rng)
    # Scale the direction well above the roundoff floor so the quadratic
    # remainder dominates across all three epsilons.
    h = (64.0 / l2q_norm(h)) * h
    base = solve_state(init, u, cfg, params, nl, pot)
    report = taylor_test(problem_of(init, u, params, nl, pot, solver=cfg),
                         base, h, (1e-2, 1e-3, 1e-4))
    assert len(report.rows) == 3
    assert report.slopes, "all rows hit the roundoff floor"
    assert 1.9 <= min(report.slopes) <= max(report.slopes) <= 2.1
    remainders = [row.remainder for row in report.rows]
    assert remainders == sorted(remainders, reverse=True)


def test_taylor_floor_flags_in_linear_regime():
    # A linear map has zero second-order remainder, so every row sits on
    # the roundoff floor and no slope survives.
    rng = np.random.default_rng(103)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 10)
    params = ModelParams(ell=0.5, lambda_big=0.0, chi=0.0, tau=0.5,
                         lambda_b=0.0)
    zero = Field(grid, np.zeros(grid.shape))
    init = InitialData(theta0=zero, phi0=zero, sigma0=zero)
    u = SpaceTimeField.zeros(time_grid, grid)
    h = _random_control(time_grid, grid, rng, 0.5)
    base = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), zero_potential())
    report = taylor_test(problem_of(init, u, params, pot=zero_potential()),
                         base, h, (1e-2, 1e-3, 1e-4))
    assert all(row.floor_flagged for row in report.rows)
    assert report.slopes == ()
    assert report.floor > 0.0


def test_taylor_test_input_validation():
    rng = np.random.default_rng(107)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 5)
    init = smooth_init(grid, rng)
    u = SpaceTimeField.zeros(time_grid, grid)
    h = _random_control(time_grid, grid, rng)
    base = solve_state(init, u, SolverConfig(), desk_params(),
                       default_nonlinearities(), default_potential())
    problem = problem_of(init, u, desk_params())
    with pytest.raises(ConfigurationError, match="three"):
        taylor_test(problem, base, h, (1e-2, 1e-3))
    with pytest.raises(ConfigurationError, match="decreasing"):
        taylor_test(problem, base, h, (1e-3, 1e-2, 1e-4))
    with pytest.raises(ConfigurationError, match="positive"):
        taylor_test(problem, base, h, (1e-2, 1e-3, 0.0))
    with pytest.raises(ConfigurationError, match="nonzero"):
        taylor_test(problem, base, u, (1e-2, 1e-3, 1e-4))
    lin = solve_linearized(base, h)
    with pytest.raises(ConfigurationError, match="operators"):
        taylor_test(problem, lin, h, (1e-2, 1e-3, 1e-4))
