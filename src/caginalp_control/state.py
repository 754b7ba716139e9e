"""Forward solver for the coupled temperature/phase/nutrient system.

One time step advances the state (theta, phi, mu, sigma) by three sequential
linear solves in Gauss-Seidel order, with every nonlinear coefficient frozen
at the old level:

1. the Cahn-Hilliard pair for (phi, mu), with the potential treated
   explicitly plus a linear stabilization S * (phi_new - phi_old) and the
   viscous term tau * (phi_new - phi_old) / dt kept implicit;
2. the heat equation for theta, with the latent-heat coupling
   ell * (phi_new - phi_old) / dt already known from step 1 and the control
   sampled at the left endpoint of the step;
3. the nutrient equation for sigma, driven by the fresh chemotaxis term
   chi * Lap(phi_new). Its nonnegative linear decay
   D = lambda_C * H(phi_old) + lambda_B + lambda_D * K(theta_old) is split
   into a constant reference decay decay_ref, kept implicit, and the rest
   D - decay_ref, taken explicitly on sigma_old, an implicit-explicit
   splitting (Ascher, Ruuth and Wetton, SIAM J. Numer. Anal. 32, 1995):
   ((1/dt + decay_ref) I - Lap) sigma_new
       = sigma_old / dt - (D - decay_ref) sigma_old - chi Lap(phi_new)
         + lambda_B sigma_b.
   Since 0 <= D <= 2 decay_ref, the explicit factor
   |1/dt - (D - decay_ref)| stays at most 1/dt + decay_ref, the margin by
   which every row of the implicit operator is diagonally dominant; so
   without chemotaxis and supply a decay of any stiffness cannot make a
   step raise max|sigma|.

Freezing the nonlinearities at the old level makes the whole step an
explicitly differentiable affine map of (old state, control slice). Its
derivative is written once, as the linearized module's program of linear
instructions; the linearized sweep runs that program forward and the
adjoint sweep runs it in reverse, each instruction transposed.

The phase, heat and nutrient operators are constant over a sweep. Each is
factorized once per forward sweep (see :class:`StepOperators`) and reused
by every linearized and adjoint sweep around that trajectory. Each is a
shifted Laplacian rI - Lap or, for the phase block, a product of two,
factored by a LAPACK tridiagonal LU in 1D and by a sparse LU in 2D (see
:mod:`~caginalp_control.linsolve`).

The Cahn-Hilliard pair is solved through its Schur complement in phi
(eliminating mu by the potential equation), and mu is then recovered as
mu = (a * phi_new - Lap phi_new) - rhs, with a = tau/dt + S and
S = STABILIZATION_S. The two products are formed apart because Lap of a
constant is exactly zero, so a constant phi keeps mu constant; a merged
(a I - Lap), with diagonal a + 2/h^2, rounds it at order 1/h^2.

The chemical potential at t=0 is defined algebraically from the potential
equation with a zero phase rate, mu0 = -Lap(phi0) + f(phi0) - chi*sigma0
- Lambda*theta0, since the continuous problem prescribes no initial mu.

Weighted sums are numpy's pairwise np.add.reduce(w * x), not a BLAS dot
product, which splits long vectors over threads; so a sweep and its
diagnostics do not depend on the thread count.

A sweep keeps only the current level and hands each level k, from the
initial data at k = 0 to the final state at k = nt, to one recorder. The
default recorder stores them all: the sweep returns a
:class:`~caginalp_control.grid.Trajectory` with fields theta, phi, mu and
sigma, whose index k holds time level t_k, and which keeps the operators
that produced it as ``operators``. A caller that reads only some levels,
such as ``simulate``, passes its own recorder; the sweep then returns a
Trajectory with no fields and no operators, carrying only its solve count.
The diagnostics row of a level (masses, energy and sup norms) comes from
one row function, which a recorder calls per level and :func:`diagnostics`
maps over a stored trajectory; a sweep computes no diagnostics itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, names_sweep
from .grid import (
    Field,
    Trajectory,
    laplacian_matrix,
    quadrature_weights,
)
from .linsolve import FactorizedOperator, MatVec, SolveCounter

__all__ = [
    "SolverConfig",
    "InitialData",
    "StepOperators",
    "initial_mu",
    "solve_state",
    "ch_energy",
    "DIAGNOSTICS_HEADER",
    "diagnostics",
    "y_norm",
    "trajectory_distance_y",
]


# Stabilization constant S of the explicit-potential splitting, so that
# a = tau/dt + S; the dense oracle reads the same value.
STABILIZATION_S = 2.0

# Fields of a forward trajectory, in the order a recorder receives them.
_STATE_FIELDS = ("theta", "phi", "mu", "sigma")


@dataclass(frozen=True)
class SolverConfig:
    """The ``[solver] linear_tol`` key, validated and otherwise unread.

    Attributes:
        linear_tol: In (0, 1e-6]. Every inner solve is direct, so no solve
            reads it; the key stays accepted so that configs that set it
            still load.
    """

    linear_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.linear_tol <= 1e-6):
            raise ConfigurationError(
                f"linear_tol must lie in (0, 1e-6], got {self.linear_tol}"
            )


@dataclass(frozen=True)
class InitialData:
    """Initial fields (theta0, phi0, sigma0) on a shared grid."""

    theta0: Field
    phi0: Field
    sigma0: Field

    def __post_init__(self):
        if not (self.theta0.grid == self.phi0.grid == self.sigma0.grid):
            raise ConfigurationError("initial fields live on different grids")

    @property
    def grid(self):
        return self.theta0.grid


class StepOperators:
    """Model data and factorizations of one forward sweep.

    Holds the model (params, nl, pot), the quadrature weights and their sum
    ``wsum``, the sparse Laplacian and its product with a vector
    (``apply_lap``, see :class:`~caginalp_control.linsolve.MatVec`), the
    shift ``a`` of the potential relation mu = a*phi - Lap phi - rhs, whose
    two products the steps form apart, and three operators
    factorized once per forward sweep and reused by every linearized and
    adjoint sweep around its trajectory: the heat operator (I/dt - Lap),
    the Cahn-Hilliard Schur complement (I/dt - a*Lap + Lap^2), held as the
    factor pair (r1 I - Lap)(r2 I - Lap), and the nutrient operator at the
    reference decay ((1/dt + decay_ref) I - Lap). The rest of the decay is
    explicit in every step. The reference decay is the midpoint of the
    declared range [lambda_B, lambda_B + lambda_C*h_star + lambda_D*k_star],
    taken from the model alone, so that every sweep of a problem factorizes
    the same matrix. Every solve ticks ``counter``.
    """

    def __init__(self, grid, dt, params, nl, pot):
        self.dt = float(dt)
        self.params = params
        self.nl = nl
        self.pot = pot
        self.counter = SolveCounter()
        self._terminal = None
        self.lap = laplacian_matrix(grid)
        self.weights = quadrature_weights(grid)
        self.wsum = float(self.weights.sum())
        self.a = params.tau / self.dt + STABILIZATION_S
        self.apply_lap = MatVec(self.lap)
        self.decay_ref = params.lambda_b + 0.5 * (
            params.lambda_c * nl.h_star + params.lambda_d * nl.k_star)
        inv_dt = 1.0 / self.dt
        self.heat = self._factorize("heat", inv_dt)
        self.ch_schur = self._factorize("phase", inv_dt, self.a)
        self.nutrient = self._factorize("nutrient", inv_dt + self.decay_ref)

    def solve_terminal(self, rhs):
        """Solve (I - tau*Lap) x = rhs as (I/tau - Lap) x = rhs/tau,
        factorizing on the first call."""
        tau = self.params.tau
        if self._terminal is None:
            self._terminal = self._factorize("terminal", 1.0 / tau)
        return self._terminal.solve(rhs / tau)

    def _factorize(self, label, c0, c1=None):
        return FactorizedOperator(self.lap, c0, c1, counter=self.counter,
                                  label=label)


def _base_operators(base):
    """The StepOperators a linearized or adjoint sweep around ``base`` uses.

    Raises:
        ConfigurationError: If ``base`` carries none, so it is not the
            output of :func:`solve_state`.
    """
    if base.operators is None:
        raise ConfigurationError(
            "base trajectory carries no operators; it must come from"
            " solve_state")
    return base.operators


def _explicit_decay(ops, theta_flat, gate):
    """The explicit part D - decay_ref of the nutrient decay
    D = lambda_c H(phi) + lambda_b + lambda_d K(theta), given the gate
    values H(phi)."""
    params = ops.params
    return (params.lambda_c * gate + params.lambda_b
            + params.lambda_d * np.asarray(ops.nl.K_temp(theta_flat),
                                           dtype=float)) - ops.decay_ref


def _step_arrays(ops, theta_n, phi_n, sigma_n, u_n, sigma_b_n, step):
    """One forward step on flat arrays; returns the four new levels. The
    block solves judge the assembled right-hand sides, so a non-finite one
    fails with the name of its block and step."""
    dt, params, nl, pot = ops.dt, ops.params, ops.nl, ops.pot
    gate = np.asarray(nl.H_gate(phi_n), dtype=float)
    source = (params.lambda_p * sigma_n - params.lambda_a
              - params.lambda_e * theta_n) * gate
    rhs_phase = phi_n / dt + source
    rhs_potential = (ops.a * phi_n - np.asarray(pot.f(phi_n), dtype=float)
                     + params.chi * sigma_n + params.lambda_big * theta_n)
    explicit_decay = _explicit_decay(ops, theta_n, gate)

    phi_next = ops.ch_schur.solve(rhs_phase - ops.apply_lap(rhs_potential),
                                  step=step, guess=phi_n)
    # The Schur operator maps constants to constants / dt and w^T Lap = 0,
    # so the exact phi_next has mass w.(phi_n + dt * source). The rounding
    # of each factor solve, of size u * |rI - Lap| ~ h^-2, moves that mass;
    # put the difference back as a constant. Without it the battery's
    # conservation_phi read 1.9e-12 at 1025 nodes and 6.3e-13 on 65^2,
    # against 2.6e-14 and 4.5e-14 with it. Not in place: a guess the solve
    # accepts as it is comes back as phi_n itself.
    w = ops.weights
    phi_next = phi_next + (np.add.reduce(w * (phi_n + dt * source))
                           - np.add.reduce(w * phi_next)) / ops.wsum
    lap_phi_next = ops.apply_lap(phi_next)
    mu_next = (ops.a * phi_next - lap_phi_next) - rhs_potential

    rhs_heat = (theta_n / dt - (params.ell / dt) * (phi_next - phi_n) + u_n)
    theta_next = ops.heat.solve(rhs_heat, step=step, guess=theta_n)

    rhs_nutrient = (sigma_n / dt - explicit_decay * sigma_n
                    - params.chi * lap_phi_next + params.lambda_b * sigma_b_n)
    sigma_next = ops.nutrient.solve(rhs_nutrient, step=step, guess=sigma_n)
    return theta_next, phi_next, mu_next, sigma_next


def initial_mu(init, params, pot):
    """Consistent chemical potential at t=0 (zero phase rate)."""
    lap = laplacian_matrix(init.grid)
    phi0 = init.phi0.flat
    mu0 = (-(lap @ phi0) + np.asarray(pot.f(phi0), dtype=float)
           - params.chi * init.sigma0.flat
           - params.lambda_big * init.theta0.flat)
    return Field(init.grid, mu0.reshape(init.grid.shape))


def _level_energy(apply_lap, w, pot, phi):
    """Discrete Cahn-Hilliard free energy 0.5*<-Lap(phi), phi> + int F_hat
    of one flat level, given the Laplacian's product and the weights."""
    interface = 0.5 * np.add.reduce(w * (-apply_lap(phi) * phi))
    bulk = np.add.reduce(w * np.asarray(pot.F_hat(phi), dtype=float))
    return interface + bulk


def ch_energy(phi, grid, pot):
    """Discrete Cahn-Hilliard free energy of every level of ``phi``, a
    (levels, N) array of flat levels.

    Works one level at a time, so it allocates nothing the size of ``phi``.
    """
    apply_lap = MatVec(laplacian_matrix(grid))
    w = quadrature_weights(grid)
    return np.array([_level_energy(apply_lap, w, pot, values)
                     for values in phi], dtype=float)


@names_sweep("forward")
def solve_state(init, u, cfg, params, nl, pot, on_level=None):
    """March the full horizon.

    Args:
        init: Initial data.
        u: Control SpaceTimeField; its time grid drives the solve and its
            final slice is unused.
        cfg: SolverConfig; no solve reads it.
        params, nl, pot: Model data.
        on_level: Optional recorder, called as
            ``on_level(k, theta, phi, mu, sigma)`` with the flat arrays of
            each level k = 0..nt in turn, under the sweep's floating-point
            error state. It must copy what it keeps: an accepted warm start
            comes back as the previous level's own array.

    Returns:
        Without ``on_level``, the Trajectory of (theta, phi, mu, sigma) at
        levels 0..nt, with the sweep's StepOperators, which linearized and
        adjoint sweeps around it reuse; :func:`diagnostics` computes its
        per-level rows. With ``on_level``, a Trajectory with no fields and
        no operators, carrying the sweep's linear solve count.

    Raises:
        SolverError: Propagated from the failing block solve, with its
            block, step index and sweep "forward".
    """
    grid = init.grid
    if u.grid != grid:
        raise ConfigurationError("control grid does not match initial data")
    time_grid = u.time_grid
    nt = time_grid.nt
    dt = time_grid.dt

    ops = StepOperators(grid, dt, params, nl, pot)

    arrays = None
    if on_level is None:
        arrays = {name: np.empty((nt + 1, grid.num_nodes))
                  for name in _STATE_FIELDS}

        def on_level(k, *level):
            for name, values in zip(_STATE_FIELDS, level):
                arrays[name][k] = values

    theta, phi, sigma = init.theta0.flat, init.phi0.flat, init.sigma0.flat
    mu = initial_mu(init, params, pot).flat
    controls = u.flat_slices
    times = time_grid.times
    # One error state for the whole sweep: a diverging level overflows in
    # numpy before its block solve judges the right-hand side and raises.
    with np.errstate(over="ignore", invalid="ignore"):
        on_level(0, theta, phi, mu, sigma)
        for step in range(nt):
            sb = params.sigma_b_at(times[step], dt, grid)
            theta, phi, mu, sigma = _step_arrays(
                ops, theta, phi, sigma, controls[step], sb, step=step)
            on_level(step + 1, theta, phi, mu, sigma)

    if arrays is None:
        return Trajectory(time_grid, grid, {},
                          linear_solve_count=ops.counter.count)
    return Trajectory(time_grid, grid, arrays,
                      linear_solve_count=ops.counter.count, operators=ops)


DIAGNOSTICS_HEADER = ("step", "time", "mass_theta_ell_phi", "mass_phi",
                      "energy", "linf_theta", "linf_phi")


def _diagnostics_row(grid, time_grid, params, pot):
    """The function ``row(k, theta, phi)`` that gives the diagnostics row of
    level k from its flat theta and phi, in DIAGNOSTICS_HEADER order: step,
    time, the masses of theta + ell*phi and of phi, the Cahn-Hilliard
    energy and the sup norms of theta and phi. The Laplacian's product and
    the weights are built once, here, for every level."""
    apply_lap = MatVec(laplacian_matrix(grid))
    w = quadrature_weights(grid)
    times = time_grid.times
    ell = params.ell

    def row(level, theta, phi):
        return (level, float(times[level]),
                float(np.add.reduce(w * (theta + ell * phi))),
                float(np.add.reduce(w * phi)),
                float(_level_energy(apply_lap, w, pot, phi)),
                float(np.max(np.abs(theta))),
                float(np.max(np.abs(phi))))

    return row


def diagnostics(traj, params, pot):
    """Per-level rows of a stored forward trajectory, in DIAGNOSTICS_HEADER
    order (see :func:`_diagnostics_row`)."""
    row = _diagnostics_row(traj.grid, traj.time_grid, params, pot)
    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    return [row(level, theta[level], phi[level])
            for level in range(traj.time_grid.nt + 1)]


def y_norm(theta, phi, mu, sigma, grid, time_grid):
    """Trajectory norm used by the Taylor remainder and the Lipschitz suite.

    Discrete surrogate of the solution-space norm: for the theta and sigma
    components the max-in-time weighted l2 plus the l2-in-time full H1 norm;
    for phi the max-in-time l2 plus the l2-in-time of l2(Lap phi); for mu the
    l2-in-time l2. Max runs over levels 0..nt, time integrals over levels
    1..nt with weight dt. The four components are added with equal weights,
    which is a reporting choice rather than a modeled one.
    """
    lap = laplacian_matrix(grid)
    w = quadrature_weights(grid)
    dt = time_grid.dt

    def level_l2_sq(arr):
        return (arr * arr) @ w

    def component_parabolic(arr):
        l2_sq = level_l2_sq(arr)
        lap_rows = arr @ lap.T
        h1_sq = np.clip(-(lap_rows * arr) @ w, 0.0, None)
        return (np.sqrt(l2_sq.max())
                + np.sqrt(dt * np.sum(l2_sq[1:] + h1_sq[1:])))

    def component_fourth_order(arr):
        l2_sq = level_l2_sq(arr)
        lap_rows = arr @ lap.T
        lap_l2_sq = level_l2_sq(lap_rows)
        return np.sqrt(l2_sq.max()) + np.sqrt(dt * np.sum(lap_l2_sq[1:]))

    def component_l2_time(arr):
        l2_sq = level_l2_sq(arr)
        return np.sqrt(dt * np.sum(l2_sq[1:]))

    return float(component_parabolic(theta) + component_fourth_order(phi)
                 + component_l2_time(mu) + component_parabolic(sigma))


def trajectory_distance_y(a, b):
    """Y-norm of the difference of two state trajectories."""
    if a.grid != b.grid or a.time_grid != b.time_grid:
        raise ConfigurationError("trajectories live on different grids")
    return y_norm(
        a.field_array("theta") - b.field_array("theta"),
        a.field_array("phi") - b.field_array("phi"),
        a.field_array("mu") - b.field_array("mu"),
        a.field_array("sigma") - b.field_array("sigma"),
        a.grid, a.time_grid,
    )
