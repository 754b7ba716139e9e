"""Dense reference implementations: size caps and hand-checked values."""

import dataclasses

import numpy as np
import pytest
from conftest import desk_params

from caginalp_control import (
    AdjointSources,
    ConfigurationError,
    CostSpec,
    Field,
    Grid,
    InitialData,
    ModelParams,
    SolverConfig,
    SpaceTimeField,
    TimeGrid,
    cost_sources,
    default_nonlinearities,
    default_potential,
    evaluate_cost,
    solve_adjoint_with_sources,
    solve_state,
)
from caginalp_control.oracle import (
    dense_laplacian,
    dense_oracle_solve,
    dense_weights,
    oracle_adjoint,
    oracle_cost,
    oracle_linearized,
    oracle_terminal_conditions,
)


def test_size_cap_on_axis_width():
    grid = Grid(6, 1.0)
    time_grid = TimeGrid(0.1, 2)
    zero = Field(grid, np.zeros(grid.shape))
    init = InitialData(theta0=zero, phi0=zero, sigma0=zero)
    u = SpaceTimeField.zeros(time_grid, grid)
    with pytest.raises(ConfigurationError, match="refuses"):
        dense_oracle_solve(init, u, ModelParams(), default_nonlinearities(),
                           default_potential())


def test_size_cap_on_step_count():
    grid = Grid(4, 1.0)
    time_grid = TimeGrid(0.4, 4)
    zero = Field(grid, np.zeros(grid.shape))
    init = InitialData(theta0=zero, phi0=zero, sigma0=zero)
    u = SpaceTimeField.zeros(time_grid, grid)
    with pytest.raises(ConfigurationError, match="refuses"):
        dense_oracle_solve(init, u, ModelParams(), default_nonlinearities(),
                           default_potential())


def test_dense_laplacian_hand_stencil():
    lap = dense_laplacian((3,), (0.5,))
    expected = np.array([[-2.0, 2.0, 0.0],
                         [1.0, -2.0, 1.0],
                         [0.0, 2.0, -2.0]]) / 0.25
    assert np.array_equal(lap, expected)


def test_dense_weights_hand_values():
    w = dense_weights((4,), (0.5,))
    assert np.array_equal(w, np.array([0.25, 0.5, 0.5, 0.25]))
    w2 = dense_weights((3, 3), (1.0, 1.0))
    expected = np.outer([0.5, 1.0, 0.5], [0.5, 1.0, 0.5]).ravel()
    assert np.array_equal(w2, expected)


def test_terminal_conditions_match_fast_path():
    # Index nt of the cost adjoint holds the terminal data of the sweep.
    rng = np.random.default_rng(3)
    grid = Grid(4, 1.0)
    time_grid = TimeGrid(0.1, 2)
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    u = SpaceTimeField(time_grid, grid,
                       rng.normal(size=(3,) + grid.shape) * 0.3)
    cost = CostSpec(
        b1=0.0, b2=0.7, b3=0.0, b4=1.3, b5=1.0,
        theta_omega=Field(grid, rng.normal(size=grid.shape)),
        phi_omega=Field(grid, rng.normal(size=grid.shape)),
    )
    nl = default_nonlinearities()
    pot = default_potential()
    for tau in (0.0, 1.0):
        params = ModelParams(ell=0.5, tau=tau)
        base = solve_state(init, u, SolverConfig(), params, nl, pot)
        adj = solve_adjoint_with_sources(base, cost_sources(base, cost))
        dense = oracle_terminal_conditions(
            base.field_array("theta")[-1], base.field_array("phi")[-1],
            cost, params, grid)
        for name, expected in zip(("z", "p", "q", "r"), dense):
            fast = adj.field_array(name)[-1]
            scale = 1.0 + np.max(np.abs(expected))
            assert np.max(np.abs(fast - expected)) / scale <= 1e-10, name


def test_oracle_solve_conserves_combined_mass():
    rng = np.random.default_rng(7)
    grid = Grid(4, 1.0)
    time_grid = TimeGrid(0.3, 3)
    params = desk_params(lambda_p=0.0, lambda_a=0.0, lambda_e=0.0)
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = dense_oracle_solve(init, u, params, default_nonlinearities(),
                              default_potential())
    w = dense_weights(grid.n, grid.spacing)
    masses = (traj.field_array("theta")
              + params.ell * traj.field_array("phi")) @ w
    assert np.max(np.abs(masses - masses[0])) <= 1e-12 * (1.0 + abs(masses[0]))


def _tiny_run(time_grid):
    rng = np.random.default_rng(5)
    grid = Grid(4, 1.0)
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    u = SpaceTimeField(time_grid, grid,
                       rng.normal(size=(time_grid.nt + 1,) + grid.shape))
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    return init, u, params, nl, pot


def test_sweeps_reject_data_on_other_grids():
    # Same nt, another horizon: a dt the base was not solved with.
    time_grid = TimeGrid(0.3, 3)
    init, u, params, nl, pot = _tiny_run(time_grid)
    base = dense_oracle_solve(init, u, params, nl, pot)
    longer = TimeGrid(0.6, 3)
    with pytest.raises(ConfigurationError, match="direction grids"):
        oracle_linearized(base, params, nl, pot,
                          SpaceTimeField.zeros(longer, base.grid))
    with pytest.raises(ConfigurationError, match="direction grids"):
        oracle_linearized(base, params, nl, pot,
                          SpaceTimeField.zeros(time_grid, Grid(4, 2.0)))
    with pytest.raises(ConfigurationError, match="source grids"):
        oracle_adjoint(base, params, nl, pot,
                       AdjointSources(longer, base.grid))
    with pytest.raises(ConfigurationError, match="control grids"):
        oracle_cost(base, SpaceTimeField.zeros(longer, base.grid),
                    CostSpec(b1=1.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0))


def test_adjoint_after_linearized_on_one_base_calls_no_model_function():
    time_grid = TimeGrid(0.3, 3)
    init, u, params, nl, pot = _tiny_run(time_grid)
    calls = []

    def counted(name):
        real = getattr(nl, name)
        return lambda *args: calls.append(name) or real(*args)

    nl = dataclasses.replace(nl, **{name: counted(name) for name in (
        "H_gate", "H_gate_prime", "K_temp", "K_temp_prime")})
    base = dense_oracle_solve(init, u, params, nl, pot)
    oracle_linearized(base, params, nl, pot,
                      SpaceTimeField.zeros(time_grid, base.grid))
    assert calls
    calls.clear()
    oracle_adjoint(base, params, nl, pot,
                   AdjointSources(time_grid, base.grid))
    assert calls == []


def test_cost_without_targets_matches_fast_path():
    # CostSpec allows every target to be None, which counts as zero.
    time_grid = TimeGrid(0.3, 3)
    init, u, params, nl, pot = _tiny_run(time_grid)
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    traj = solve_state(init, u, SolverConfig(), params, nl, pot)
    dense = dense_oracle_solve(init, u, params, nl, pot)
    assert oracle_cost(dense, u, cost) == pytest.approx(
        evaluate_cost(traj, u, cost), rel=1e-12)

    adj = solve_adjoint_with_sources(traj, cost_sources(traj, cost))
    split = oracle_terminal_conditions(
        traj.field_array("theta")[-1], traj.field_array("phi")[-1], cost,
        params, traj.grid)
    for name, expected in zip(("z", "p", "q", "r"), split):
        fast = adj.field_array(name)[-1]
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(fast - expected)) / scale <= 1e-10, name
