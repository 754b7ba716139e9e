"""Discrete adjoint of the forward time-stepping map.

The adjoint system is the exact transpose of the linearized sweep with
respect to the trapezoid inner product, derived by differentiating the
Lagrangian of the discrete equations. Because the quadrature matrix W and
the mirror-closed Laplacian satisfy W L = L^T W exactly, the transposed
equations read again as nodal equations in L itself, and every adjoint solve
reuses a forward factorization: the backward heat solve uses I - dt*L, the
backward phase solve uses the same fourth-order Schur complement, and the
backward nutrient solve uses the forward nutrient operator shifted by the
decay coefficient one level below the step. An adjoint sweep takes those
factorizations, and the model, from its base trajectory. It factorizes the
terminal operator I - tau*L once per base, and in 1D each step's shifted
nutrient band. It evaluates the coefficients it freezes at the base once,
on all levels, so its steps call no model function.

Indexing convention: the multiplier attached to the step that produces
level k is stored at trajectory index k - 1, so index m of the adjoint
trajectory (a :class:`~caginalp_control.grid.Trajectory` with fields z, p, q
and r) holds the multipliers of the step m -> m + 1, and index nt holds the
terminal data (z_T, p_T, q_T, r_T) derived from the terminal cost.
With this layout the reduced gradient is simply g_n = z_n + b5 * u_n, slice
by slice, where z_n is the z-component of trajectory index n.

The backward sweep can be driven either by a cost functional (tracking
residuals become the sources) or by arbitrary per-level sources and terminal
data, which is what the transpose identity checks exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, names_sweep
from .grid import Field, SpaceTimeField, Trajectory
from .state import _base_operators, _frozen_coefficients, solve_state

__all__ = [
    "AdjointSources",
    "solve_adjoint",
    "solve_adjoint_with_sources",
    "GradientResult",
    "reduced_gradient",
]


def _running_target(target, grid, time_grid):
    """Slices of a running target by level; a zero column if it is None."""
    if target is None:
        return np.zeros((time_grid.nt + 1, 1))
    if isinstance(target, SpaceTimeField):
        if target.grid != grid or target.time_grid != time_grid:
            raise ConfigurationError("tracking target grids do not match")
        return target.flat_slices
    raise ConfigurationError(
        f"unsupported tracking target type {type(target).__name__}"
    )


def _terminal_target(target, grid):
    if target is None:
        return 0.0
    if isinstance(target, Field):
        if target.grid != grid:
            raise ConfigurationError("terminal target grid does not match")
        return target.flat
    raise ConfigurationError(
        f"unsupported terminal target type {type(target).__name__}"
    )


class AdjointSources:
    """Per-level adjoint sources plus terminal data.

    The arrays have shape (nt + 1, N); level 0 is unused by the backward
    sweep and kept zero. Levels 1..nt enter the step that produces them with
    weight dt; the terminal vectors (g_z, g_w, g_r) seed the terminal data.
    """

    __slots__ = ("time_grid", "grid", "s_theta", "s_phi", "s_eta", "s_sigma",
                 "g_z", "g_w", "g_r")

    def __init__(self, time_grid, grid, s_theta=None, s_phi=None, s_eta=None,
                 s_sigma=None, g_z=None, g_w=None, g_r=None):
        expected = (time_grid.nt + 1, grid.num_nodes)
        self.time_grid = time_grid
        self.grid = grid
        for name, arr in (("s_theta", s_theta), ("s_phi", s_phi),
                          ("s_eta", s_eta), ("s_sigma", s_sigma)):
            if arr is None:
                arr = np.zeros(expected)
            else:
                arr = np.array(arr, dtype=float)
                if arr.shape != expected:
                    raise ConfigurationError(
                        f"source array {name} has shape {arr.shape},"
                        f" expected {expected}"
                    )
            arr.setflags(write=False)
            setattr(self, name, arr)
        for name, vec in (("g_z", g_z), ("g_w", g_w), ("g_r", g_r)):
            if vec is None:
                vec = np.zeros(grid.num_nodes)
            else:
                vec = np.array(vec, dtype=float)
                if vec.shape != (grid.num_nodes,):
                    raise ConfigurationError(
                        f"terminal vector {name} has shape {vec.shape},"
                        f" expected {(grid.num_nodes,)}"
                    )
            vec.setflags(write=False)
            setattr(self, name, vec)

    @classmethod
    def from_cost(cls, base, cost):
        """Tracking and terminal residuals of a quadratic cost.

        The running tracking terms are sampled at levels 1..nt-1 (the level-0
        terms do not depend on the control and the left-endpoint time rule
        never samples level nt); the terminal terms seed g_z and g_w.
        """
        grid = base.grid
        time_grid = base.time_grid
        nt = time_grid.nt
        theta = base.field_array("theta")
        phi = base.field_array("phi")

        s_theta = np.zeros((nt + 1, grid.num_nodes))
        s_phi = np.zeros((nt + 1, grid.num_nodes))
        if cost.b1 != 0.0:
            theta_q = _running_target(cost.theta_q, grid, time_grid)
            for k in range(1, nt):
                s_theta[k] = cost.b1 * (theta[k] - theta_q[k])
        if cost.b3 != 0.0:
            phi_q = _running_target(cost.phi_q, grid, time_grid)
            for k in range(1, nt):
                s_phi[k] = cost.b3 * (phi[k] - phi_q[k])
        g_z = cost.b2 * (theta[nt] - _terminal_target(cost.theta_omega, grid))
        g_w = cost.b4 * (phi[nt] - _terminal_target(cost.phi_omega, grid))
        return cls(time_grid, grid, s_theta=s_theta, s_phi=s_phi,
                   g_z=np.asarray(g_z, dtype=float) if cost.b2 != 0.0
                   else None,
                   g_w=np.asarray(g_w, dtype=float) if cost.b4 != 0.0
                   else None)


def _terminal_from_vectors(ops, g_z, g_w, g_r):
    """Split terminal cost gradients into the four adjoint variables.

    z_T = g_z, (I - tau * Lap) p_T = g_w - ell * g_z, q_T = -Lap p_T and
    r_T = g_r; for a cost, g_z = b2 * (theta_T - theta_omega),
    g_w = b4 * (phi_T - phi_omega) and g_r = 0.
    """
    z_t = np.asarray(g_z, dtype=float)
    v_t = np.asarray(g_w, dtype=float) - ops.params.ell * z_t
    p_t = v_t.copy() if ops.params.tau == 0.0 else ops.solve_terminal(v_t)
    q_t = -ops.apply_lap(p_t)
    return z_t, p_t, q_t, np.asarray(g_r, dtype=float)


def _adjoint_step_arrays(ops, frozen, sigma_b, sources, level, z_next,
                         p_next, q_next, r_next):
    """One backward step on flat arrays, producing trajectory index level.

    The step transposes the forward step level -> level + 1, so it reads the
    decay of the base's coefficients ``frozen`` at base level `level` and the
    others at base level k = level + 1. The terminal step (level = nt - 1)
    is seeded by the terminal data instead of later multipliers.
    """
    dt, params = ops.dt, ops.params
    nt = len(sigma_b) - 1
    k = level + 1
    decay = frozen["decay"][level]
    s_eta_k = sources.s_eta[k]

    if k == nt:
        z_new = ops.heat.solve((z_next + dt * sources.s_theta[k]) / dt,
                               step=level)
        r_new = ops.solve_nutrient(
            (r_next + dt * sources.s_sigma[k]) / dt, decay, step=level)
        w_t = p_next + params.tau * q_next + params.ell * z_next
        rhs_p = (w_t + dt * sources.s_phi[k] - params.ell * z_new
                 - dt * params.chi * ops.apply_lap(r_new)
                 + dt * (ops.a * s_eta_k - ops.apply_lap(s_eta_k)))
    else:
        gate = frozen["gate"][k]
        sigma_next_level = sigma_b[k + 1]

        rhs_z = z_next + dt * (
            sources.s_theta[k] - params.lambda_e * gate * p_next
            + params.lambda_big * q_next
            - frozen["k_prime"][k] * sigma_next_level * r_next)
        z_new = ops.heat.solve(rhs_z / dt, step=level)

        rhs_r = r_next + dt * (
            sources.s_sigma[k] + params.lambda_p * gate * p_next
            + params.chi * q_next)
        r_new = ops.solve_nutrient(rhs_r / dt, decay, step=level)

        rhs_p = (p_next
                 + dt * (frozen["source_prime"][k] * p_next + ops.a * q_next
                         - frozen["f_prime"][k] * q_next
                         - frozen["h_prime"][k] * sigma_next_level * r_next
                         + sources.s_phi[k])
                 + params.ell * (z_next - z_new)
                 - dt * params.chi * ops.apply_lap(r_new)
                 + dt * (ops.a * s_eta_k - ops.apply_lap(s_eta_k)))

    p_new = ops.ch_schur.solve(rhs_p / dt, step=level)
    q_new = -ops.apply_lap(p_new) - s_eta_k
    return z_new, p_new, q_new, r_new


@names_sweep("adjoint")
def solve_adjoint_with_sources(base, sources):
    """Backward sweep driven by explicit sources and terminal vectors.

    Args:
        base: State trajectory of :func:`~caginalp_control.state.solve_state`;
            its operators and model are used.
        sources: AdjointSources on matching grids.

    Returns:
        Trajectory of (z, p, q, r); index nt holds the terminal data.

    Raises:
        ConfigurationError: If the grids differ or ``base`` carries no
            operators.
        SolverError: Propagated from the failing step, with its index and
            sweep "adjoint".
    """
    grid = base.grid
    time_grid = base.time_grid
    if sources.grid != grid or sources.time_grid != time_grid:
        raise ConfigurationError("source grids do not match base")
    nt = time_grid.nt

    ops = _base_operators(base)
    start_count = ops.counter.count

    z, p, q, r = np.zeros((4, nt + 1, grid.num_nodes))
    z[nt], p[nt], q[nt], r[nt] = _terminal_from_vectors(
        ops, sources.g_z, sources.g_w, sources.g_r)

    frozen = _frozen_coefficients(ops, base)
    sigma_b = base.field_array("sigma")
    for level in range(nt - 1, -1, -1):
        out = _adjoint_step_arrays(ops, frozen, sigma_b, sources, level,
                                   z[level + 1], p[level + 1], q[level + 1],
                                   r[level + 1])
        z[level], p[level], q[level], r[level] = out

    return Trajectory(
        time_grid, grid, {"z": z, "p": p, "q": q, "r": r},
        linear_solve_count=ops.counter.count - start_count,
    )


def solve_adjoint(base, cost):
    """Backward sweep driven by a cost functional.

    Equivalent to solve_adjoint_with_sources with the tracking and terminal
    residuals of the cost as sources.
    """
    _base_operators(base)
    sources = AdjointSources.from_cost(base, cost)
    return solve_adjoint_with_sources(base, sources)


@dataclass(frozen=True)
class GradientResult:
    """Reduced gradient together with the runs that produced it."""

    gradient: SpaceTimeField
    cost_value: float
    state: Trajectory
    adjoint: Trajectory


def reduced_gradient(u, init, cost, cfg, params, nl, pot):
    """Reduced cost gradient at a control, via one forward-backward sweep.

    The gradient slice at level n is z_n + b5 * u_n, where z_n is the
    z-component of adjoint trajectory index n. The final slice never enters
    the left-endpoint time quadrature, so it carries no information, but it
    is populated by the same formula for uniformity.

    Returns:
        GradientResult with the gradient, the cost value and both sweeps.
    """
    state = solve_state(init, u, cfg, params, nl, pot)
    return _gradient_from_state(state, u, cost)


def _gradient_from_state(state, u, cost, cost_value=None):
    """Reduced gradient at u from the state trajectory u produced.

    Runs only the backward sweep; see :func:`reduced_gradient`. A caller
    that has already costed ``state`` passes that value as ``cost_value``.
    """
    from .control import evaluate_cost

    if cost_value is None:
        cost_value = evaluate_cost(state, u, cost)
    adjoint = solve_adjoint(state, cost)
    return GradientResult(gradient=adjoint.space_time("z") + cost.b5 * u,
                          cost_value=cost_value, state=state, adjoint=adjoint)
