"""Exact linearization of the forward time-stepping map.

Each forward step freezes its nonlinear coefficients at the old level, so the
step is a smooth map of (old state, control slice) and its derivative is
computed exactly: the linearized step solves the same three linear systems
with the same matrices as the forward step, only the right-hand sides change.
Sharing the factorizations makes one linearized sweep cost the same as one
forward sweep and keeps the derivative consistent with the discrete map to
rounding accuracy, which the Taylor test below verifies.

The linearized variables are (zeta, xi, eta, rho) for the perturbations of
(theta, phi, mu, sigma). Initial data is unperturbed, so all four start at
zero; eta carries no initial condition of its own because the chemical
potential at t=0 is an algebraic function of the unperturbed initial fields.
The sweep returns them as a :class:`~caginalp_control.grid.Trajectory`
indexed like the state: index k of the linearized trajectory holds the
perturbation at time level t_k, and index 0 is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Trajectory, l2q_norm
from .linsolve import SolveCounter
from .state import (
    StepOperators,
    _decay_coefficient,
    _require_finite,
    solve_state,
    y_norm,
)

__all__ = [
    "solve_linearized",
    "TaylorRow",
    "TaylorReport",
    "taylor_test",
]


def _lin_step_arrays(ops, base_theta_n, base_phi_n, base_sigma_n,
                     base_sigma_next, zeta_n, xi_n, rho_n, h_n, params, nl,
                     pot, step):
    """One linearized step on flat arrays; returns the four new levels."""
    dt = ops.dt
    with np.errstate(over="ignore", invalid="ignore"):
        gate = np.asarray(nl.H_gate(base_phi_n), dtype=float)
        gate_prime = np.asarray(nl.H_gate_prime(base_phi_n), dtype=float)
        source_prime = (params.lambda_p * base_sigma_n - params.lambda_a
                        - params.lambda_e * base_theta_n) * gate_prime
        rhs_phase = (xi_n / dt + source_prime * xi_n
                     + params.lambda_p * gate * rho_n
                     - params.lambda_e * gate * zeta_n)
        rhs_potential = (ops.a * xi_n
                         - np.asarray(pot.f_prime(base_phi_n), dtype=float)
                         * xi_n
                         + params.chi * rho_n + params.lambda_big * zeta_n)
        decay = _decay_coefficient(base_theta_n, gate, params, nl)
        gate_prime_phi = params.lambda_c * gate_prime
        k_prime = params.lambda_d * np.asarray(
            nl.K_temp_prime(base_theta_n), dtype=float)
    _require_finite(rhs_phase, step)
    _require_finite(rhs_potential, step)
    _require_finite(decay, step)

    xi_next = ops.ch_schur.solve(rhs_phase - ops.lap @ rhs_potential,
                                 step=step)
    eta_next = ops.a_minus_lap @ xi_next - rhs_potential

    rhs_heat = zeta_n / dt - (params.ell / dt) * (xi_next - xi_n) + h_n
    zeta_next = ops.heat.solve(rhs_heat, step=step)

    rhs_nutrient = (rho_n / dt - params.chi * (ops.lap @ xi_next)
                    - base_sigma_next * (gate_prime_phi * xi_n
                                         + k_prime * zeta_n))
    rho_next = ops.solve_nutrient(rhs_nutrient, decay, step=step)
    return zeta_next, xi_next, eta_next, rho_next


def solve_linearized(base, h, cfg, params, nl, pot, counter=None):
    """Sweep the linearized system along a base trajectory.

    Args:
        base: State trajectory the linearization is taken around.
        h: Control direction as a SpaceTimeField on the same grids.
        cfg: SolverConfig.
        params, nl, pot: Model data.
        counter: Optional SolveCounter.

    Returns:
        Trajectory of (zeta, xi, eta, rho), zero at level 0.
    """
    grid = base.grid
    time_grid = base.time_grid
    if h.grid != grid or h.time_grid != time_grid:
        raise ConfigurationError("direction grids do not match base")
    nt = time_grid.nt
    total = grid.num_nodes

    counter = counter if counter is not None else SolveCounter()
    start_count = counter.count
    ops = StepOperators(grid, time_grid.dt, cfg, params, nl, counter=counter)

    zeta = np.zeros((nt + 1, total))
    xi = np.zeros((nt + 1, total))
    eta = np.zeros((nt + 1, total))
    rho = np.zeros((nt + 1, total))

    theta_b = base.field_array("theta")
    phi_b = base.field_array("phi")
    sigma_b = base.field_array("sigma")
    directions = h.flat_slices
    for step in range(nt):
        out = _lin_step_arrays(
            ops, theta_b[step], phi_b[step], sigma_b[step],
            sigma_b[step + 1], zeta[step], xi[step], rho[step],
            directions[step], params, nl, pot, step=step,
        )
        zeta[step + 1], xi[step + 1], eta[step + 1], rho[step + 1] = out

    return Trajectory(
        time_grid, grid, {"zeta": zeta, "xi": xi, "eta": eta, "rho": rho},
        linear_solve_count=counter.count - start_count,
    )


@dataclass(frozen=True)
class TaylorRow:
    """One epsilon of the Taylor test."""

    epsilon: float
    remainder: float
    floor_flagged: bool


@dataclass(frozen=True)
class TaylorReport:
    """Remainders, pairwise slopes and the rounding floor of a Taylor test.

    Slopes near 2 confirm that the linearized sweep is the exact derivative
    of the forward sweep; rows whose remainder sits at the rounding floor are
    flagged and excluded from the slope list.
    """

    rows: tuple
    slopes: tuple
    floor: float

    def min_slope(self):
        return min(self.slopes) if self.slopes else float("nan")

    def max_slope(self):
        return max(self.slopes) if self.slopes else float("nan")


def taylor_test(base_u, h, epsilons, init, cfg, params, nl, pot):
    """Second-order Taylor remainder check of the linearization.

    For each epsilon the remainder ||S(u + eps*h) - S(u) - eps*S'(u)h||_Y is
    computed; exact differentiation makes it O(eps^2), so consecutive
    remainders should decay with slope about 2 in log-log until they hit the
    rounding floor 1e-12 * (1 + ||S(u)||_Y).

    Args:
        base_u: Base control.
        h: Direction; must be nonzero.
        epsilons: At least three strictly decreasing positive values.
        init: Initial data.
        cfg: SolverConfig.
        params, nl, pot: Model data.

    Returns:
        TaylorReport with one row per epsilon and one slope per consecutive
        pair of rows that both sit above the floor.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ConfigurationError("taylor test needs at least three epsilons")
    if any(e <= 0.0 for e in eps):
        raise ConfigurationError("taylor epsilons must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigurationError("taylor epsilons must be strictly decreasing")
    if l2q_norm(h) == 0.0:
        raise ConfigurationError("taylor direction must be nonzero")

    base_traj = solve_state(init, base_u, cfg, params, nl, pot)
    lin = solve_linearized(base_traj, h, cfg, params, nl, pot)
    grid = base_traj.grid
    time_grid = base_traj.time_grid

    base_norm = y_norm(
        base_traj.field_array("theta"), base_traj.field_array("phi"),
        base_traj.field_array("mu"), base_traj.field_array("sigma"),
        grid, time_grid,
    )
    floor = 1e-12 * (1.0 + base_norm)

    rows = []
    for e in eps:
        perturbed = solve_state(init, base_u + e * h, cfg, params, nl, pot)
        remainder = y_norm(
            perturbed.field_array("theta") - base_traj.field_array("theta")
            - e * lin.field_array("zeta"),
            perturbed.field_array("phi") - base_traj.field_array("phi")
            - e * lin.field_array("xi"),
            perturbed.field_array("mu") - base_traj.field_array("mu")
            - e * lin.field_array("eta"),
            perturbed.field_array("sigma") - base_traj.field_array("sigma")
            - e * lin.field_array("rho"),
            grid, time_grid,
        )
        rows.append(TaylorRow(epsilon=e, remainder=float(remainder),
                              floor_flagged=remainder <= floor))

    slopes = []
    for first, second in zip(rows, rows[1:]):
        if first.floor_flagged or second.floor_flagged:
            continue
        slopes.append(math.log(first.remainder / second.remainder)
                      / math.log(first.epsilon / second.epsilon))

    return TaylorReport(rows=tuple(rows), slopes=tuple(slopes), floor=floor)
