"""Inner solves: the shifted nutrient solve, factorization counts, failures."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import caginalp_control.linsolve as linsolve
from caginalp_control import (
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
    laplacian_matrix,
    solve_state,
)
from caginalp_control.state import StepOperators


def _desk_params(**overrides):
    values = dict(ell=0.5, lambda_big=0.7, chi=0.3, tau=0.5, lambda_p=0.6,
                  lambda_a=0.2, lambda_e=0.3, lambda_c=0.4, lambda_b=0.3,
                  lambda_d=0.2)
    values.update(overrides)
    return ModelParams(**values)


def _nutrient_case(grid, dt, params, seed):
    """Operators, a decay drawn across the declared range and a rhs."""
    nl = default_nonlinearities()
    ops = StepOperators(grid, dt, SolverConfig(), params, nl)
    rng = np.random.default_rng(seed)
    top = (params.lambda_b + params.lambda_c * nl.h_star
           + params.lambda_d * nl.k_star)
    decay = rng.uniform(params.lambda_b, top, size=grid.num_nodes)
    rhs = rng.normal(size=grid.num_nodes)
    matrix = (sp.identity(grid.num_nodes) / dt - laplacian_matrix(grid)
              + sp.diags_array(decay))
    return ops, decay, rhs, spsolve(matrix.tocsc(), rhs)


def _relative_error(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("grid", [
    Grid(33, 2.0),
    Grid(1025, 2.0),
    Grid((33, 33), (2.0, 2.0)),
], ids=["1d-33", "1d-1025", "2d-33x33"])
def test_shifted_nutrient_solve_matches_spsolve(grid):
    ops, decay, rhs, reference = _nutrient_case(grid, 0.01, _desk_params(),
                                                seed=11)
    cold = ops.solve_nutrient(rhs, decay)
    assert _relative_error(cold, reference) <= 1e-10
    warm = ops.solve_nutrient(rhs, decay, guess=reference + 1e-3)
    assert _relative_error(warm, reference) <= 1e-10


def test_shifted_nutrient_solve_converges_when_decay_is_stiff():
    # dt * (lambda_C + lambda_D) = 30: the decay dominates I/dt, so the
    # reference shift no longer makes the preconditioner nearly exact.
    params = _desk_params(lambda_c=40.0, lambda_d=20.0)
    grid = Grid(129, 2.0)
    ops, decay, rhs, reference = _nutrient_case(grid, 0.5, params, seed=13)
    assert ops.dt * (params.lambda_c + params.lambda_d) >= 20.0
    x = ops.solve_nutrient(rhs, decay)
    assert _relative_error(x, reference) <= 1e-10


def test_decay_reference_is_midpoint_of_declared_range():
    params = _desk_params()
    ops = StepOperators(Grid(9, 1.0), 0.1, SolverConfig(), params,
                        default_nonlinearities())
    assert ops.decay_ref == pytest.approx(0.3 + 0.5 * (0.4 + 0.2))


def _desk_init(grid):
    x = grid.coords(0)
    cosx = np.cos(np.pi * x / grid.length[0])
    return InitialData(theta0=Field(grid, 0.05 * cosx),
                       phi0=Field(grid, 0.2 + 0.5 * cosx),
                       sigma0=Field(grid, 0.8 + 0.1 * cosx))


@pytest.mark.parametrize("nt", [2, 9])
def test_forward_sweep_factorizes_three_times(monkeypatch, nt):
    calls = []
    real_splu = linsolve.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(linsolve, "splu", counting_splu)
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.1 * nt, nt)
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = solve_state(_desk_init(grid), u, SolverConfig(), _desk_params(),
                       default_nonlinearities(), default_potential())
    assert len(calls) == 3
    assert traj.linear_solve_count == 3 * nt


def test_forward_stall_names_block_and_step():
    # No corrections allowed: the warm-started phase solve is the first
    # solve of step 0 and cannot meet the tolerance from the old level.
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.2, 2)
    with pytest.raises(SolverError) as excinfo:
        solve_state(_desk_init(grid), SpaceTimeField.zeros(time_grid, grid),
                    SolverConfig(max_linear_iters=0), _desk_params(),
                    default_nonlinearities(), default_potential())
    error = excinfo.value
    assert error.block == "phase"
    assert error.step == 0
    assert "phase" in str(error) and "step 0" in str(error)


def test_every_block_names_itself_when_it_stalls():
    grid = Grid(9, 1.0)
    ops = StepOperators(grid, 0.1, SolverConfig(max_linear_iters=0),
                        _desk_params(), default_nonlinearities())
    rhs = np.ones(grid.num_nodes)
    guess = np.zeros(grid.num_nodes)
    decay = np.zeros(grid.num_nodes)
    for label, solve in (
        ("phase", lambda: ops.ch_schur.solve(rhs, step=0, guess=guess)),
        ("heat", lambda: ops.heat.solve(rhs, step=0, guess=guess)),
        ("nutrient", lambda: ops.solve_nutrient(rhs, decay, step=0,
                                                guess=guess)),
    ):
        with pytest.raises(SolverError) as excinfo:
            solve()
        assert excinfo.value.block == label
        assert str(excinfo.value).startswith(f"{label} solve at step 0")
