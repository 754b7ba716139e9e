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
from .state import _base_operators, _frozen_coefficients, y_norm

__all__ = [
    "solve_linearized",
    "TaylorRow",
    "TaylorReport",
    "taylor_test",
]


@np.errstate(over="ignore", invalid="ignore")
def _lin_step_arrays(ops, frozen, base_sigma_next, zeta_n, xi_n, rho_n,
                     h_n, step):
    """One linearized step on flat arrays; returns the four new levels. The
    block solves judge the assembled right-hand sides, so a non-finite one
    fails with the name of its block and step."""
    dt, params = ops.dt, ops.params
    gate = frozen["gate"][step]
    rhs_phase = (xi_n / dt + frozen["source_prime"][step] * xi_n
                 + params.lambda_p * gate * rho_n
                 - params.lambda_e * gate * zeta_n)
    rhs_potential = (ops.a * xi_n - frozen["f_prime"][step] * xi_n
                     + params.chi * rho_n + params.lambda_big * zeta_n)

    xi_next = ops.ch_schur.solve(rhs_phase - ops.apply_lap(rhs_potential),
                                 step=step)
    lap_xi_next = ops.apply_lap(xi_next)
    eta_next = (ops.a * xi_next - lap_xi_next) - rhs_potential

    rhs_heat = zeta_n / dt - (params.ell / dt) * (xi_next - xi_n) + h_n
    zeta_next = ops.heat.solve(rhs_heat, step=step)

    rhs_nutrient = (rho_n / dt - params.chi * lap_xi_next
                    - base_sigma_next * (frozen["h_prime"][step] * xi_n
                                         + frozen["k_prime"][step] * zeta_n))
    rho_next = ops.solve_nutrient(rhs_nutrient, frozen["decay"][step],
                                  step=step)
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
        SolverError: Propagated from the failing block solve, with its
            block, step index and sweep "linearized".
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
    """One epsilon of the Taylor test.

    ``slope`` is the log-log decay rate of the remainder from the row
    before to this one; it is NaN on the first row and wherever this row or
    the one before sits at the rounding floor.
    """

    epsilon: float
    remainder: float
    floor_flagged: bool
    slope: float


@dataclass(frozen=True)
class TaylorReport:
    """Remainders, pairwise slopes and the rounding floor of a Taylor test.

    Slopes near 2 confirm that the linearized sweep is the exact derivative
    of the forward sweep; rows whose remainder sits at the rounding floor are
    flagged and excluded from the slope list.
    """

    rows: tuple
    floor: float

    @property
    def slopes(self):
        """The slopes of the rows that have one, in row order."""
        return tuple(r.slope for r in self.rows if not math.isnan(r.slope))


def taylor_test(problem, base, h, epsilons):
    """Second-order Taylor remainder check of the linearization around a base.

    For each epsilon the remainder ||S(u + eps*h) - S(u) - eps*S'(u)h||_Y is
    computed at the problem's control u; exact differentiation makes it
    O(eps^2), so consecutive remainders should decay with slope about 2 in
    log-log until they hit the rounding floor 1e-12 * (1 + ||S(u)||_Y). S(u)
    is the given base, not solved again: the test costs one linearized sweep
    plus one forward sweep ``problem.solve`` per epsilon.

    Args:
        problem: :class:`~caginalp_control.control.Problem` whose state
            system S is tested.
        base: S(u), the trajectory ``problem.solve(problem.control)``.
        h: Direction; must be nonzero.
        epsilons: At least three strictly decreasing positive values.

    Returns:
        TaylorReport with one row per epsilon.

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
        perturbed = problem.solve(problem.control + e * h)
        remainder = float(y_norm(
            perturbed.field_array("theta") - base.field_array("theta")
            - e * lin.field_array("zeta"),
            perturbed.field_array("phi") - base.field_array("phi")
            - e * lin.field_array("xi"),
            perturbed.field_array("mu") - base.field_array("mu")
            - e * lin.field_array("eta"),
            perturbed.field_array("sigma") - base.field_array("sigma")
            - e * lin.field_array("rho"),
            grid, time_grid,
        ))
        flagged = remainder <= floor
        slope = float("nan")
        if rows and not (flagged or rows[-1].floor_flagged):
            slope = (math.log(rows[-1].remainder / remainder)
                     / math.log(rows[-1].epsilon / e))
        rows.append(TaylorRow(epsilon=e, remainder=remainder,
                              floor_flagged=flagged, slope=slope))

    return TaylorReport(rows=tuple(rows), floor=floor)
