"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test covers one acceptance criterion, prints a single pass/fail line
with the measured value, and fails if the measurement exceeds the pinned
tolerance. Tolerances are hard-coded here on purpose: they are the
contract, independent of the defaults inside the verification module.
"""

import pytest


@pytest.fixture(scope="module")
def battery(desk_report):
    return {r.name: r for r in desk_report.results}, desk_report.tables


def _gate(number, label, checks, bound_overrides=None):
    """Assert every named check passed within its pinned tolerance."""
    results, tolerance_by_name = checks
    bound_overrides = bound_overrides or {}
    passed = all(r.passed for r in results)
    measured = ", ".join(f"{r.name}={r.measured:.3e}" for r in results)
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {verdict}: {label} ({measured})")
    for r in results:
        bound = bound_overrides.get(r.name, tolerance_by_name[r.name])
        assert r.passed, f"{r.name} failed: {r.measured} > {r.tolerance}"
        assert r.measured <= bound, (
            f"{r.name} measured {r.measured} above the pinned {bound}")
        assert r.runtime < 120.0, (
            f"{r.name} took {r.runtime:.1f}s, beyond the desk budget")


_PINNED = {
    "conservation_theta_ell_phi": 1e-10,
    "conservation_phi": 1e-10,
    "equilibrium_fixed_point": 1e-12,
    "oracle_state": 1e-10,
    "oracle_linearized": 1e-10,
    "oracle_adjoint": 1e-10,
    "taylor_slope": 0.1,
    "taylor_linear_regime": 1e-12,
    "dot_product": 1e-10,
    "duality": 1e-9,
    "gradient_central_difference": 1e-6,
    "optimizer_monotone": 0.0,
    "optimizer_stationarity": 1e-6,
    "optimizer_clamp_residual": 1e-4,
    "variational_inequality": 1e-8,
    "energy_dissipation": 1e-12,
    "lipschitz_uniform": 0.05,
}


def _select(battery, *names):
    results_by_name, _ = battery
    return [results_by_name[name] for name in names], _PINNED


def test_criterion_01_conservation(battery):
    _gate(1, "discrete mass laws over 100 steps",
          _select(battery, "conservation_theta_ell_phi",
                  "conservation_phi"))


def test_criterion_02_equilibrium(battery):
    _gate(2, "constant data is a fixed point over 100 steps",
          _select(battery, "equilibrium_fixed_point"))


def test_criterion_03_oracle_equivalence(battery):
    _gate(3, "fast path matches the dense oracle on tiny problems",
          _select(battery, "oracle_state", "oracle_linearized",
                  "oracle_adjoint"))


def test_criterion_04_taylor_remainder(battery):
    _gate(4, "second-order Taylor remainder of the control-to-state map",
          _select(battery, "taylor_slope", "taylor_linear_regime"))
    _, tables = battery
    _, rows = tables["taylor_report"]
    slopes = [row[2] for row in rows if row[2] == row[2]]  # drop NaN
    assert slopes
    assert all(1.9 <= s <= 2.1 for s in slopes)


def test_criterion_05_dot_product(battery):
    _gate(5, "adjoint is the transpose of the linearization, 10 pairs",
          _select(battery, "dot_product"))


def test_criterion_06_duality(battery):
    _gate(6, "cost adjoint reproduces the cost derivative, 10 directions",
          _select(battery, "duality"))


def test_criterion_07_gradient_check(battery):
    _gate(7, "reduced gradient against central differences, 5 directions",
          _select(battery, "gradient_central_difference"))


def test_criterion_08_optimizer(battery):
    _gate(8, "projected descent: monotone, stationary, bang-bang clamp",
          _select(battery, "optimizer_monotone", "optimizer_stationarity",
                  "optimizer_clamp_residual"))
    _, tables = battery
    _, rows = tables["optimizer_report"]
    assert len(rows) - 1 <= 200, "optimizer exceeded the iteration budget"
    costs = [row[1] for row in rows]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_criterion_09_variational_inequality(battery):
    _gate(9, "first-order optimality over 100 random admissible controls",
          _select(battery, "variational_inequality"))


def test_criterion_10_energy_dissipation(battery):
    _gate(10, "free energy is non-increasing at the pinned step size",
          _select(battery, "energy_dissipation"))


def test_criterion_11_lipschitz(battery):
    _gate(11, "continuous dependence ratio uniform across three scales",
          _select(battery, "lipschitz_uniform"))
