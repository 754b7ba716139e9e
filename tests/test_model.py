"""Model constants, gate functions, potential and hypothesis validation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from caginalp_control import (
    ConfigurationError,
    ModelParams,
    Nonlinearities,
    default_nonlinearities,
    default_potential,
    validate,
    zero_potential,
)


def test_h_gate_at_zero_and_symmetry():
    nl = default_nonlinearities()
    assert nl.H_gate(0.0) == 0.5
    rng = np.random.default_rng(5)
    s = rng.uniform(-10.0, 10.0, size=50)
    assert np.allclose(nl.H_gate(s) + nl.H_gate(-s), 1.0, rtol=0.0,
                       atol=1e-15)


def test_h_gate_at_one_scalar_oracle():
    nl = default_nonlinearities()
    oracle = 0.5 * (1.0 + math.tanh(2.0))
    assert nl.H_gate(1.0) == pytest.approx(oracle, rel=1e-15)
    assert nl.H_gate(1.0) == pytest.approx(0.98201, abs=5e-6)


def test_k_temp_at_zero_and_bounds():
    nl = default_nonlinearities()
    assert nl.K_temp(0.0) == 0.5
    s = np.linspace(-40.0, 40.0, 401)
    vals = nl.K_temp(s)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_quartic_roots_and_values():
    pot = default_potential()
    assert pot.f(0.0) == 0.0
    assert pot.f(1.0) == 0.0
    assert pot.f(-1.0) == 0.0
    assert pot.F_hat(1.0) == 0.0
    assert pot.F_hat(-1.0) == 0.0
    assert pot.f_prime(2.0) == 11.0
    assert pot.F_hat(0.0) == 0.25


def test_zero_potential_is_identically_zero():
    pot = zero_potential()
    s = np.linspace(-3.0, 3.0, 7)
    for fn in (pot.F_hat, pot.f, pot.f_prime):
        assert np.all(fn(s) == 0.0)
    assert pot.lower_bound_c0 == 0.0


def test_model_params_structural_sign_checks():
    with pytest.raises(ConfigurationError, match="tau"):
        ModelParams(tau=-0.1)
    with pytest.raises(ConfigurationError, match="lambda_p"):
        ModelParams(lambda_p=-1.0)
    with pytest.raises(ConfigurationError, match="ell"):
        ModelParams(ell=float("inf"))
    with pytest.raises(ConfigurationError, match="sigma_b"):
        ModelParams(sigma_b=float("nan"))


def test_validate_defaults_all_pass():
    report = validate(ModelParams(), default_nonlinearities(),
                      default_potential())
    assert report.all_passed
    assert report.failures() == []
    assert "pass" in str(report)


def test_validate_negative_chi_names_chi():
    # Constructors allow chi <= 0 (verification regimes zero it out); the
    # hypothesis check is what reports it.
    report = validate(ModelParams(chi=-1.0), default_nonlinearities(),
                      default_potential())
    assert not report.all_passed
    failures = report.failures()
    assert len(failures) == 1
    assert failures[0].hypothesis == "H1"
    assert "chi" in failures[0].description
    assert "chi=-1.0" in failures[0].witness


def test_validate_unbounded_gate_fails_with_large_witness():
    nl = default_nonlinearities()
    unbounded = Nonlinearities(
        H_gate=lambda s: np.asarray(s, dtype=float),
        H_gate_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        K_temp=nl.K_temp,
        K_temp_prime=nl.K_temp_prime,
    )
    report = validate(ModelParams(), unbounded, default_potential())
    failures = [c for c in report.failures() if c.hypothesis == "H3"]
    assert failures
    gate_fail = next(c for c in failures if "H_gate" in c.description
                     and "h_star" in c.description)
    witness_arg = float(gate_fail.witness.split("(")[1].split(")")[0])
    assert abs(witness_arg) >= 1.0


def test_validate_wrong_derivative_fails_fd_check():
    nl = default_nonlinearities()
    wrong = Nonlinearities(
        H_gate=nl.H_gate,
        H_gate_prime=lambda s: 2.0 / np.cosh(2.0 * np.asarray(s)) ** 2,
        K_temp=nl.K_temp,
        K_temp_prime=nl.K_temp_prime,
    )
    report = validate(ModelParams(), wrong, default_potential())
    failed = [c.description for c in report.failures()]
    assert any("H_gate_prime matches finite differences" in d
               for d in failed)


def test_validate_raising_check_is_reported_not_raised():
    nl = default_nonlinearities()

    def boom(s):
        raise RuntimeError("gate exploded")

    broken = Nonlinearities(
        H_gate=boom, H_gate_prime=boom,
        K_temp=nl.K_temp, K_temp_prime=nl.K_temp_prime,
    )
    report = validate(ModelParams(), broken, default_potential())
    assert not report.all_passed
    assert any("check raised" in c.witness for c in report.failures())


def test_validate_overflowing_gate_fails_without_numpy_warnings():
    def grow(s):
        return np.exp(40.0 * np.asarray(s, dtype=float))

    gates = dataclasses.replace(default_nonlinearities(), H_gate=grow,
                                H_gate_prime=lambda s: 40.0 * grow(s))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate(ModelParams(), gates, default_potential())
    assert caught == []
    failed = [c.description for c in report.failures()]
    assert any("H_gate <= h_star" in d for d in failed)
    assert any("H_gate_prime matches finite differences" in d
               for d in failed)


def test_validate_runs_every_check_despite_failures():
    report_ok = validate(ModelParams(), default_nonlinearities(),
                         default_potential())
    report_bad = validate(ModelParams(chi=-1.0, ell=-1.0),
                          default_nonlinearities(), default_potential())
    assert len(report_bad.checks) == len(report_ok.checks)
    assert len(report_bad.failures()) == 2


def test_sigma_b_at_scalar_broadcast():
    from caginalp_control import Grid

    grid = Grid(5, 1.0)
    params = ModelParams(sigma_b=0.75)
    assert np.array_equal(params.sigma_b_at(0.0, 0.1, grid),
                          np.full(5, 0.75))


def test_sigma_b_at_samples_its_own_time_grid():
    from caginalp_control import Grid, SpaceTimeField, TimeGrid

    grid = Grid(5, 1.0)
    values = np.arange(7.0)[:, None] * np.ones((7, 5))
    params = ModelParams(sigma_b=SpaceTimeField(TimeGrid(0.6, 6), grid,
                                                values))
    # A run with dt = 0.2 starts its step 1 at t = 0.2, level 2 of the
    # supply's own grid of step 0.1.
    assert np.array_equal(params.sigma_b_at(0.2, 0.2, grid), values[2])
    with pytest.raises(ConfigurationError, match="no level"):
        params.sigma_b_at(0.25, 0.2, grid)
    with pytest.raises(ConfigurationError, match="does not cover"):
        params.sigma_b_at(0.8, 0.2, grid)
    with pytest.raises(ConfigurationError, match="grid"):
        params.sigma_b_at(0.2, 0.2, Grid(7, 1.0))
