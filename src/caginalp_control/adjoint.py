"""Discrete adjoint of the forward time-stepping map.

The backward sweep runs the linearized step's program (see
:mod:`~caginalp_control.linearized`) transposed, so it is the exact
transpose of the linearized sweep under the trapezoid inner product, and
every adjoint solve reuses a forward factorization. It takes those
factorizations and the model from its base trajectory, builds the
program's coefficient tables once, and factorizes the terminal operator
I - tau*L once per base.

Index m < nt of the adjoint trajectory (a
:class:`~caginalp_control.grid.Trajectory` with fields z, p, q and r) holds
the cotangents of step m's heat, phase, potential and nutrient right-hand
sides, divided by dt. The cotangents of the registers that hold level
k = 1..nt are seeded with dt times its sources s_theta, s_phi, s_eta and
s_sigma, and at level nt also with the terminal vectors g_z, g_w and g_r.
Index nt holds the terminal data (z_T, p_T, q_T, r_T) derived from those
vectors. With this layout the reduced gradient is g_n = z_n + b5 * u_n,
slice by slice.

The sweep is driven by per-level sources and terminal data and knows no
cost: :func:`~caginalp_control.control.cost_sources` forms a cost's sources,
and the transpose identity checks draw them at random.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, names_sweep
from .grid import Trajectory
from .linearized import _run, _step_program, _transposed
from .state import _base_operators

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

    dt = ops.dt
    program = _transposed(_step_program(ops, base))
    s_theta, s_phi, s_eta, s_sigma = (
        dt * s for s in (sources.s_theta, sources.s_phi, sources.s_eta,
                         sources.s_sigma))
    later = {"zeta": sources.g_z, "xi": sources.g_w, "rho": sources.g_r}
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(nt - 1, -1, -1):
            k = level + 1
            later = _run(program, {
                "zeta'": later["zeta"] + s_theta[k],
                "xi'": later["xi"] + s_phi[k],
                "eta'": s_eta[k],
                "rho'": later["rho"] + s_sigma[k],
            }, level)
            z[level], p[level], q[level], r[level] = (
                later["heat"], later["phase"], later["potential"],
                later["nutrient"])
    for multipliers in (z, p, q, r):
        multipliers[:nt] /= dt

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
