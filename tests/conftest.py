"""Shared fixtures: the shipped desk problem, found from this file's path,
one run of the full verification battery on it, and counters of
factorizations and of sparse LU calls."""

import os

import pytest

import caginalp_control.linsolve as linsolve
from caginalp_control import VerifySuiteConfig, load_config, run_suite

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
DESK_CFG = os.path.join(CONFIGS, "desk.cfg")


@pytest.fixture(scope="session")
def desk_problem():
    """VerifyProblem of ``configs/desk.cfg``."""
    return load_config(DESK_CFG).verify_problem()


@pytest.fixture(scope="session")
def desk_report(desk_problem):
    """VerifyReport of the default battery on the desk problem."""
    return run_suite(VerifySuiteConfig(), desk_problem)


@pytest.fixture
def factorizations(monkeypatch):
    """Shapes of the matrices factorized while the test runs, by either
    backend: one entry per FactorizedOperator built. The band factors a
    shifted 1D solve makes inside ``solve`` are not counted."""
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
