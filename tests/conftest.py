"""Shared fixtures: the shipped desk problem, found from this file's path."""

import os

import pytest

from caginalp_control import load_config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
DESK_CFG = os.path.join(CONFIGS, "desk.cfg")


@pytest.fixture(scope="session")
def desk_problem():
    """VerifyProblem of ``configs/desk.cfg``."""
    return load_config(DESK_CFG).verify_problem()
