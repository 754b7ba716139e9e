"""Shared fixtures: the shipped desk problem, found from this file's path,
one run of the full verification battery on it, and a factorization
counter."""

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
def splu_calls(monkeypatch):
    """Shapes of the matrices factorized while the test runs."""
    calls = []
    real_splu = linsolve.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(linsolve, "splu", counting_splu)
    return calls
