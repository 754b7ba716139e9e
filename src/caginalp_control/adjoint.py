"""Discrete adjoint of the forward time-stepping map.

The adjoint system is the exact transpose of the linearized sweep with
respect to the trapezoid inner product, derived by differentiating the
Lagrangian of the discrete equations. Because the quadrature matrix W and
the mirror-closed Laplacian satisfy W L = L^T W exactly, the transposed
equations read again as nodal equations in L itself, and every adjoint solve
reuses a forward factorization: the backward heat solve uses I - dt*L, the
backward phase solve uses the same fourth-order Schur complement, and the
backward nutrient solve uses the forward nutrient operator at the reference
decay. The forward step takes the rest of the decay, D - decay_ref,
explicitly on its old level, so the transpose meets it in the step that
reads that level: the backward step producing index m adds
-dt (D_k - decay_ref) r_k, with k = m + 1, to its nutrient right-hand side,
and reads the base's sigma_k in the H' and K' couplings. An adjoint
sweep takes those factorizations, and the model, from its base trajectory.
It factorizes the terminal operator I - tau*L once per base. It evaluates
the coefficients it freezes at the base once, on all levels, so its steps
call no model function.

Indexing convention: the multiplier attached to the step that produces
level k is stored at trajectory index k - 1, so index m of the adjoint
trajectory (a :class:`~caginalp_control.grid.Trajectory` with fields z, p, q
and r) holds the multipliers of the step m -> m + 1, and index nt holds the
terminal data (z_T, p_T, q_T, r_T) derived from the terminal cost.
With this layout the reduced gradient is simply g_n = z_n + b5 * u_n, slice
by slice, where z_n is the z-component of trajectory index n.

The sweep is driven by per-level sources and terminal data and knows no
cost: :func:`~caginalp_control.control.cost_sources` forms a cost's sources,
and the transpose identity checks draw them at random.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, names_sweep
from .grid import Trajectory
from .state import _base_operators, _frozen_coefficients

__all__ = [
    "AdjointSources",
    "solve_adjoint_with_sources",
    "reduced_gradient",
]


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


def _adjoint_step_arrays(ops, frozen, base_sigma, sources, level, z_next,
                         p_next, q_next, r_next):
    """One backward step on flat arrays, producing trajectory index level.

    The step transposes the forward step level -> level + 1 and the
    dependence of step k -> k + 1 on level k = level + 1, so it reads the
    base's coefficients ``frozen`` and ``base_sigma`` at base level k. The
    terminal step (level = nt - 1) is seeded by the terminal data instead
    of later multipliers.
    """
    dt, params = ops.dt, ops.params
    nt = len(base_sigma) - 1
    k = level + 1
    s_eta_k = sources.s_eta[k]

    if k == nt:
        z_new = ops.heat.solve((z_next + dt * sources.s_theta[k]) / dt,
                               step=level)
        r_new = ops.nutrient.solve((r_next + dt * sources.s_sigma[k]) / dt,
                                   step=level)
        w_t = p_next + params.tau * q_next + params.ell * z_next
        rhs_p = (w_t + dt * sources.s_phi[k] - params.ell * z_new
                 - dt * params.chi * ops.apply_lap(r_new)
                 + dt * (ops.a * s_eta_k - ops.apply_lap(s_eta_k)))
    else:
        gate = frozen["gate"][k]
        sigma_k = base_sigma[k]

        rhs_z = z_next + dt * (
            sources.s_theta[k] - params.lambda_e * gate * p_next
            + params.lambda_big * q_next
            - frozen["k_prime"][k] * sigma_k * r_next)
        z_new = ops.heat.solve(rhs_z / dt, step=level)

        rhs_r = r_next + dt * (
            sources.s_sigma[k] + params.lambda_p * gate * p_next
            + params.chi * q_next - frozen["explicit_decay"][k] * r_next)
        r_new = ops.nutrient.solve(rhs_r / dt, step=level)

        rhs_p = (p_next
                 + dt * (frozen["source_prime"][k] * p_next + ops.a * q_next
                         - frozen["f_prime"][k] * q_next
                         - frozen["h_prime"][k] * sigma_k * r_next
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
    base_sigma = base.field_array("sigma")
    for level in range(nt - 1, -1, -1):
        out = _adjoint_step_arrays(ops, frozen, base_sigma, sources, level,
                                   z[level + 1], p[level + 1], q[level + 1],
                                   r[level + 1])
        z[level], p[level], q[level], r[level] = out

    return Trajectory(
        time_grid, grid, {"z": z, "p": p, "q": q, "r": r},
        linear_solve_count=ops.counter.count - start_count,
    )


def reduced_gradient(problem, u):
    """Reduced cost gradient at a control, via one forward-backward sweep.

    The gradient slice at level n is z_n + b5 * u_n, where z_n is the
    z-component of adjoint trajectory index n. The final slice never enters
    the left-endpoint time quadrature, so it carries no information, but it
    is populated by the same formula for uniformity.

    It lives here, importing :mod:`caginalp_control.control` at call time,
    only because ``perfbench/selftest.py`` pins it to this module.

    Args:
        problem: :class:`~caginalp_control.control.Problem` whose state
            system and cost are differentiated.
        u: Control on the problem's grids.

    Returns:
        :class:`~caginalp_control.control.GradientResult` with the gradient,
        the cost value and both sweeps.
    """
    from .control import _gradient_from_state

    return _gradient_from_state(problem.solve(u), u, problem.cost)
