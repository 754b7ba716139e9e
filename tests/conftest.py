"""Shared fixtures: the shipped desk problem, found from this file's path,
and one run of the full verification battery on it."""

import os

import pytest

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
