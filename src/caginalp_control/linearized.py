"""Exact linearization of the forward time-stepping map.

Each forward step freezes its nonlinear coefficients at the old level, so the
step is a smooth map of (old state, control slice) and its derivative is
computed exactly: the linearized step solves the same three linear systems
with the same matrices as the forward step, only the right-hand sides change.
A linearized sweep takes those factorizations, and the model, from its base
trajectory, so it costs no more than one forward sweep and stays consistent
with the discrete map to rounding accuracy, which the Taylor test below
verifies. It evaluates the coefficients it freezes at the base once, on all
levels, so its steps call no model function.

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

from .errors import ConfigurationError, names_sweep
from .grid import Trajectory, l2q_norm
from .state import (
    _base_operators,
    _frozen_coefficients,
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


def _lin_step_arrays(ops, frozen, base_sigma_next, zeta_n, xi_n, rho_n,
                     h_n, step):
    """One linearized step on flat arrays; returns the four new levels."""
    dt, params = ops.dt, ops.params
    gate = frozen["gate"][step]
    decay = frozen["decay"][step]
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_phase = (xi_n / dt + frozen["source_prime"][step] * xi_n
                     + params.lambda_p * gate * rho_n
                     - params.lambda_e * gate * zeta_n)
        rhs_potential = (ops.a * xi_n - frozen["f_prime"][step] * xi_n
                         + params.chi * rho_n + params.lambda_big * zeta_n)
    _require_finite(rhs_phase, step)
    _require_finite(rhs_potential, step)
    _require_finite(decay, step)

    xi_next = ops.ch_schur.solve(rhs_phase - ops.apply_lap(rhs_potential),
                                 step=step)
    eta_next = (ops.a * xi_next - ops.apply_lap(xi_next)) - rhs_potential

    rhs_heat = zeta_n / dt - (params.ell / dt) * (xi_next - xi_n) + h_n
    zeta_next = ops.heat.solve(rhs_heat, step=step)

    rhs_nutrient = (rho_n / dt - params.chi * ops.apply_lap(xi_next)
                    - base_sigma_next * (frozen["h_prime"][step] * xi_n
                                         + frozen["k_prime"][step] * zeta_n))
    rho_next = ops.solve_nutrient(rhs_nutrient, decay, step=step)
    return zeta_next, xi_next, eta_next, rho_next


@names_sweep("linearized")
def solve_linearized(base, h):
    """Sweep the linearized system along a base trajectory.

    Args:
        base: State trajectory of :func:`~caginalp_control.state.solve_state`
            the linearization is taken around; its operators and model are
            used.
        h: Control direction as a SpaceTimeField on the same grids.

    Returns:
        Trajectory of (zeta, xi, eta, rho), zero at level 0.

    Raises:
        ConfigurationError: If the grids differ or ``base`` carries no
            operators.
        SolverError: Propagated from the failing step, with its index and
            sweep "linearized".
    """
    grid = base.grid
    time_grid = base.time_grid
    if h.grid != grid or h.time_grid != time_grid:
        raise ConfigurationError("direction grids do not match base")
    nt = time_grid.nt

    ops = _base_operators(base)
    start_count = ops.counter.count

    zeta, xi, eta, rho = np.zeros((4, nt + 1, grid.num_nodes))

    frozen = _frozen_coefficients(ops, base)
    sigma_b = base.field_array("sigma")
    directions = h.flat_slices
    for step in range(nt):
        out = _lin_step_arrays(ops, frozen, sigma_b[step + 1], zeta[step],
                               xi[step], rho[step], directions[step],
                               step=step)
        zeta[step + 1], xi[step + 1], eta[step + 1], rho[step + 1] = out

    return Trajectory(
        time_grid, grid, {"zeta": zeta, "xi": xi, "eta": eta, "rho": rho},
        linear_solve_count=ops.counter.count - start_count,
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


def taylor_test(base, base_u, h, epsilons, init):
    """Second-order Taylor remainder check of the linearization around a base.

    For each epsilon the remainder ||S(u + eps*h) - S(u) - eps*S'(u)h||_Y is
    computed; exact differentiation makes it O(eps^2), so consecutive
    remainders should decay with slope about 2 in log-log until they hit the
    rounding floor 1e-12 * (1 + ||S(u)||_Y). S(u) is the given base, not
    solved again: the test costs one linearized sweep plus one forward sweep
    per epsilon, on the solver settings and model of ``base.operators``.

    Args:
        base: S(base_u), the trajectory of
            :func:`~caginalp_control.state.solve_state` from ``init`` and
            ``base_u``.
        base_u: Base control.
        h: Direction; must be nonzero.
        epsilons: At least three strictly decreasing positive values.
        init: Initial data of ``base``.

    Returns:
        TaylorReport with one row per epsilon and one slope per consecutive
        pair of rows that both sit above the floor.

    Raises:
        ConfigurationError: On invalid epsilons, a zero direction, or a base
            that carries no operators.
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

    ops = _base_operators(base)
    lin = solve_linearized(base, h)
    grid = base.grid
    time_grid = base.time_grid

    base_norm = y_norm(
        base.field_array("theta"), base.field_array("phi"),
        base.field_array("mu"), base.field_array("sigma"),
        grid, time_grid,
    )
    floor = 1e-12 * (1.0 + base_norm)

    rows = []
    for e in eps:
        perturbed = solve_state(init, base_u + e * h, ops.cfg, ops.params,
                                ops.nl, ops.pot)
        remainder = y_norm(
            perturbed.field_array("theta") - base.field_array("theta")
            - e * lin.field_array("zeta"),
            perturbed.field_array("phi") - base.field_array("phi")
            - e * lin.field_array("xi"),
            perturbed.field_array("mu") - base.field_array("mu")
            - e * lin.field_array("eta"),
            perturbed.field_array("sigma") - base.field_array("sigma")
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
