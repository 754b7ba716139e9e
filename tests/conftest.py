"""Shared fixtures and helpers: the shipped desk problem, found from this
file's path, its model constants, smooth random initial data, a control
problem built from a model and data, one run of the full verification
battery, counters of factorizations and of sparse LU calls, and a fault
that flips the sign of every adjoint density."""

import dataclasses
import functools
import os

import numpy as np
import pytest

import caginalp_control.adjoint as adjoint
import caginalp_control.control as control
import caginalp_control.linsolve as linsolve
import caginalp_control.verification as verification
from caginalp_control import (
    AdmissibleSet,
    CostSpec,
    Field,
    InitialData,
    OptimizerConfig,
    Problem,
    SolverConfig,
    Trajectory,
    VerifySuiteConfig,
    default_nonlinearities,
    default_potential,
    load_config,
    run_suite,
)

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
DESK_CFG = os.path.join(CONFIGS, "desk.cfg")


@functools.cache
def _desk_config():
    return load_config(DESK_CFG)


def desk_params(**overrides):
    """ModelParams of ``configs/desk.cfg``, with any field replaced by
    ``overrides``."""
    return dataclasses.replace(_desk_config().params, **overrides)


def smooth_init(grid, rng):
    """Initial data on a 1D grid: each field a random sum of the first
    three cosine modes, which satisfy the no-flux conditions exactly."""
    x = grid.coords(0)

    def bumps(amplitude, offset=0.0):
        values = np.full(grid.shape, offset)
        for mode in range(1, 4):
            values += (rng.normal() * amplitude / mode**2
                       * np.cos(mode * np.pi * x / grid.length[0]))
        return Field(grid, values)

    return InitialData(theta0=bumps(0.1), phi0=bumps(0.4),
                       sigma0=bumps(0.2, offset=0.6))


def problem_of(init, control, params, nl=None, pot=None, **fields):
    """Problem of a model and data on the default solver settings, with the
    pure regularization cost, the box [-1, 1] and the default stopping
    rule; ``nl`` and ``pot`` default to the package's, and ``fields``
    replace any other field."""
    return Problem(**{
        "params": params,
        "nonlinearities": nl or default_nonlinearities(),
        "potential": pot or default_potential(),
        "solver": SolverConfig(), "init": init, "control": control,
        "cost": CostSpec(), "admissible": AdmissibleSet(-1.0, 1.0),
        "optimizer": OptimizerConfig(), **fields})


@pytest.fixture(scope="session")
def desk_problem():
    """Problem of ``configs/desk.cfg``."""
    return _desk_config().verify_problem()


@pytest.fixture(scope="session")
def desk_report(desk_problem):
    """VerifyReport of the default battery on the desk problem."""
    return run_suite(VerifySuiteConfig(), desk_problem)


@pytest.fixture
def factorizations(monkeypatch):
    """Shapes of the matrices factorized while the test runs, by either
    backend: one entry per FactorizedOperator built."""
    calls = []
    real_init = linsolve.FactorizedOperator.__init__

    def counting_init(self, matrix, *args, **kwargs):
        calls.append(matrix.shape)
        real_init(self, matrix, *args, **kwargs)

    monkeypatch.setattr(linsolve.FactorizedOperator, "__init__",
                        counting_init)
    return calls


@pytest.fixture
def splu_calls(monkeypatch):
    """Shapes of the matrices given to the sparse LU while the test runs."""
    calls = []
    real_splu = linsolve.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(linsolve, "splu", counting_splu)
    return calls


@pytest.fixture
def flipped_adjoint(monkeypatch):
    """Fault injection: every adjoint sweep returns its density z negated,
    so the reduced gradient becomes -z + b5*u. The dot-product, duality and
    gradient checks must then fail, and checks that run no adjoint sweep
    must still pass."""
    real_sweep = adjoint.solve_adjoint_with_sources

    def flipped_sweep(base, sources):
        sweep = real_sweep(base, sources)
        arrays = {name: sweep.field_array(name) for name in "zpqr"}
        arrays["z"] = -arrays["z"]
        return Trajectory(sweep.time_grid, sweep.grid, arrays,
                          linear_solve_count=sweep.linear_solve_count)

    monkeypatch.setattr(adjoint, "solve_adjoint_with_sources", flipped_sweep)
    monkeypatch.setattr(control, "solve_adjoint_with_sources", flipped_sweep)
    monkeypatch.setattr(verification, "solve_adjoint_with_sources",
                        flipped_sweep)
