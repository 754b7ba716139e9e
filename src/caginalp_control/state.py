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
3. the nutrient equation for sigma, implicit in its nonnegative linear decay
   (lambda_C * H(phi_old) + lambda_B + lambda_D * K(theta_old)) and driven by
   the fresh chemotaxis term chi * Lap(phi_new).

Freezing the nonlinearities at the old level makes the whole step an
explicitly differentiable affine map of (old state, control slice); the
linearized and adjoint modules differentiate and transpose exactly this map.

The phase, heat and nutrient operators are each factorized once per forward
sweep (see :class:`StepOperators`) and reused by every linearized and
adjoint sweep around that trajectory. On a 1D grid every operator is banded
and gets a LAPACK band LU; on a 2D grid, whose band is about sqrt(N) wide,
a sparse LU (see :mod:`~caginalp_control.linsolve`). The nutrient decay
changes every step and enters each nutrient solve as a diagonal shift of
the operator at a reference decay: in 1D the step factors its own shifted
band, in 2D it runs conjugate gradients preconditioned by the reference
factor.

The Cahn-Hilliard pair is solved through its Schur complement in phi
(eliminating mu by the potential equation), so the potential relation
mu = (a I - Lap) phi_new - rhs holds to machine precision by construction,
with a = tau/dt + S and S = STABILIZATION_S.

The chemical potential at t=0 is defined algebraically from the potential
equation with a zero phase rate, mu0 = -Lap(phi0) + f(phi0) - chi*sigma0
- Lambda*theta0, since the continuous problem prescribes no initial mu.

A sweep returns a :class:`~caginalp_control.grid.Trajectory` with fields
theta, phi, mu and sigma: index k of the state trajectory holds time level
t_k, from the initial data at index 0 to the final state at index nt. The
trajectory keeps the operators that produced it as ``operators``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, SolverError
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
    "DiagnosticsRecord",
    "StepOperators",
    "initial_mu",
    "solve_state",
    "ch_energy",
    "y_norm",
    "trajectory_distance_y",
]


# Stabilization constant S of the explicit-potential splitting, so that
# a = tau/dt + S; the dense oracle reads the same value.
STABILIZATION_S = 2.0
# Cap on the corrections of one inner solve, each one back-substitution.
MAX_LINEAR_ITERS = 50


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solve tolerance shared by the forward, linearized and adjoint
    sweeps.

    Attributes:
        linear_tol: Relative residual at which an inner solve is
            accepted, in (0, 1e-6]. A solve is also accepted once its
            normwise backward error is at rounding level, which is what
            a fine grid's solves reach before this target.
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


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-level balance and norm diagnostics.

    A forward sweep computes its rows on the first read of
    ``Trajectory.diagnostics``, not while it marches.
    """

    step: int
    time: float
    mass_theta_ell_phi: float
    mass_phi: float
    energy: float
    linf_theta: float
    linf_phi: float


class StepOperators:
    """Model data and factorizations of one forward sweep.

    Holds the model (params, nl, pot), the quadrature weights and their sum
    ``wsum``, the sparse Laplacian, the potential recovery operator
    (a*I - Lap), their products with a vector (``apply_lap`` and
    ``apply_a_minus_lap``, see
    :class:`~caginalp_control.linsolve.MatVec`), and three operators
    factorized once per forward sweep and reused by every linearized and
    adjoint sweep around its trajectory: the heat operator (I/dt - Lap), the
    Cahn-Hilliard Schur complement (I/dt - a*Lap + Lap^2) and the nutrient
    operator at a reference decay (I/dt - Lap + decay_ref*I). Each operator
    picks its factorization from its own matrix: a LAPACK band LU in 1D,
    where heat and nutrient are tridiagonal and the Schur complement is
    pentadiagonal, and a sparse LU in 2D. The nutrient decay changes every
    step; each step solves with its own decay through
    :meth:`solve_nutrient`, by a band factor of its own in 1D and by
    conjugate gradients preconditioned by the reference factor in 2D. The
    reference decay is the midpoint of the declared range
    [lambda_B, lambda_B + lambda_C*h_star + lambda_D*k_star], taken from the
    model alone, so that every sweep of a problem factorizes the same
    matrix. Every solve ticks ``counter``.
    """

    def __init__(self, grid, dt, cfg, params, nl, pot):
        self.grid = grid
        self.dt = float(dt)
        self.cfg = cfg
        self.params = params
        self.nl = nl
        self.pot = pot
        self.counter = SolveCounter()
        self._terminal = None
        self.lap = laplacian_matrix(grid)
        self.weights = quadrature_weights(grid)
        self.wsum = float(self.weights.sum())
        self.a = params.tau / self.dt + STABILIZATION_S
        eye = sp.identity(grid.num_nodes, format="csr")
        self.a_minus_lap = (self.a * eye - self.lap).tocsr()
        self.apply_lap = MatVec(self.lap)
        self.apply_a_minus_lap = MatVec(self.a_minus_lap)
        self.decay_ref = params.lambda_b + 0.5 * (
            params.lambda_c * nl.h_star + params.lambda_d * nl.k_star)
        heat = eye / self.dt - self.lap
        schur = eye / self.dt - self.a * self.lap + self.lap @ self.lap
        self.heat = self._factorize(heat, "heat")
        self.ch_schur = self._factorize(schur, "phase")
        self.nutrient = self._factorize(heat + self.decay_ref * eye,
                                        "nutrient")

    def solve_nutrient(self, rhs, decay, step=None, guess=None):
        """Solve (I/dt - Lap + diag(decay)) x = rhs as a diagonal shift of
        the nutrient operator at the reference decay."""
        return self.nutrient.solve(rhs, step=step, guess=guess,
                                   shift=decay - self.decay_ref)

    def solve_terminal(self, rhs):
        """Solve (I - tau*Lap) x = rhs, factorizing on the first call."""
        if self._terminal is None:
            eye = sp.identity(self.grid.num_nodes, format="csr")
            self._terminal = self._factorize(
                eye - self.params.tau * self.lap, "terminal")
        return self._terminal.solve(rhs)

    def _factorize(self, matrix, label):
        return FactorizedOperator(matrix, self.cfg.linear_tol,
                                  MAX_LINEAR_ITERS, self.counter,
                                  weights=self.weights, label=label)


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


def _decay_coefficient(theta_flat, gate, params, nl):
    """Nutrient decay lambda_c H(phi) + lambda_b + lambda_d K(theta), given
    the gate values H(phi)."""
    return (params.lambda_c * gate + params.lambda_b
            + params.lambda_d * np.asarray(nl.K_temp(theta_flat), dtype=float))


def _require_finite(arr, step):
    if not np.isfinite(arr).all():
        raise SolverError("non-finite values while assembling a step",
                          step=step, residual=float("nan"))


def _step_arrays(ops, theta_n, phi_n, sigma_n, u_n, sigma_b_n, step):
    """One forward step on flat arrays; returns the four new levels."""
    dt, params, nl, pot = ops.dt, ops.params, ops.nl, ops.pot
    with np.errstate(over="ignore", invalid="ignore"):
        gate = np.asarray(nl.H_gate(phi_n), dtype=float)
        source = (params.lambda_p * sigma_n - params.lambda_a
                  - params.lambda_e * theta_n) * gate
        rhs_phase = phi_n / dt + source
        rhs_potential = (ops.a * phi_n - np.asarray(pot.f(phi_n), dtype=float)
                         + params.chi * sigma_n + params.lambda_big * theta_n)
        decay = _decay_coefficient(theta_n, gate, params, nl)
    _require_finite(rhs_phase, step)
    _require_finite(rhs_potential, step)
    _require_finite(decay, step)

    phi_next = ops.ch_schur.solve(rhs_phase - ops.apply_lap(rhs_potential),
                                  step=step, guess=phi_n)
    # The Schur operator maps constants to constants / dt and w^T Lap = 0,
    # so the exact phi_next has mass w.(phi_n + dt * source). The solve's
    # rounding, of size u * |Schur operator| ~ h^-4, moves that mass; put
    # the difference back as a constant. Not in place: a guess the solve
    # accepts as it is comes back as phi_n itself.
    w = ops.weights
    phi_next = phi_next + (w @ (phi_n + dt * source)
                           - w @ phi_next) / ops.wsum
    mu_next = ops.apply_a_minus_lap(phi_next) - rhs_potential

    rhs_heat = (theta_n / dt - (params.ell / dt) * (phi_next - phi_n) + u_n)
    theta_next = ops.heat.solve(rhs_heat, step=step, guess=theta_n)

    rhs_nutrient = (sigma_n / dt - params.chi * ops.apply_lap(phi_next)
                    + params.lambda_b * sigma_b_n)
    sigma_next = ops.solve_nutrient(rhs_nutrient, decay, step=step,
                                    guess=sigma_n)
    return theta_next, phi_next, mu_next, sigma_next


def initial_mu(init, params, pot):
    """Consistent chemical potential at t=0 (zero phase rate)."""
    lap = laplacian_matrix(init.grid)
    phi0 = init.phi0.flat
    mu0 = (-(lap @ phi0) + np.asarray(pot.f(phi0), dtype=float)
           - params.chi * init.sigma0.flat
           - params.lambda_big * init.theta0.flat)
    return Field(init.grid, mu0.reshape(init.grid.shape))


def ch_energy(phi, grid, pot):
    """Discrete Cahn-Hilliard free energy 0.5*<-Lap(phi), phi> + int F_hat
    of every level of ``phi``, a (levels, N) array of flat levels.

    Works one level at a time, so it allocates nothing the size of ``phi``.
    """
    apply_lap = MatVec(laplacian_matrix(grid))
    w = quadrature_weights(grid)
    energies = np.empty(len(phi))
    for level, values in enumerate(phi):
        interface = 0.5 * np.dot(w, -apply_lap(values) * values)
        bulk = np.dot(w, np.asarray(pot.F_hat(values), dtype=float))
        energies[level] = interface + bulk
    return energies


def solve_state(init, u, cfg, params, nl, pot):
    """March the full horizon; per-level diagnostics follow on first read.

    Args:
        init: Initial data.
        u: Control SpaceTimeField; its time grid drives the solve and its
            final slice is unused.
        cfg: SolverConfig.
        params, nl, pot: Model data.

    Returns:
        Trajectory of (theta, phi, mu, sigma) at levels 0..nt, with one
        diagnostics row per level, computed on the first read of
        ``diagnostics``, and the sweep's StepOperators, which linearized
        and adjoint sweeps around it reuse.

    Raises:
        SolverError: Propagated from the failing step, with its index.
    """
    grid = init.grid
    if u.grid != grid:
        raise ConfigurationError("control grid does not match initial data")
    time_grid = u.time_grid
    nt = time_grid.nt
    dt = time_grid.dt
    total = grid.num_nodes

    ops = StepOperators(grid, dt, cfg, params, nl, pot)

    theta = np.zeros((nt + 1, total))
    phi = np.zeros((nt + 1, total))
    mu = np.zeros((nt + 1, total))
    sigma = np.zeros((nt + 1, total))
    theta[0] = init.theta0.flat
    phi[0] = init.phi0.flat
    sigma[0] = init.sigma0.flat
    mu[0] = initial_mu(init, params, pot).flat

    controls = u.flat_slices
    times = time_grid.times
    for step in range(nt):
        sb = params.sigma_b_at(times[step], dt, grid)
        out = _step_arrays(ops, theta[step], phi[step], sigma[step],
                           controls[step], sb, step=step)
        theta[step + 1], phi[step + 1], mu[step + 1], sigma[step + 1] = out

    def diagnostics():
        weights = ops.weights
        energies = ch_energy(phi, grid, pot)
        return [DiagnosticsRecord(
            step=level,
            time=float(times[level]),
            mass_theta_ell_phi=float(
                np.dot(weights, theta[level] + params.ell * phi[level])),
            mass_phi=float(np.dot(weights, phi[level])),
            energy=float(energies[level]),
            linf_theta=float(np.max(np.abs(theta[level]))),
            linf_phi=float(np.max(np.abs(phi[level]))),
        ) for level in range(nt + 1)]

    return Trajectory(
        time_grid, grid,
        {"theta": theta, "phi": phi, "mu": mu, "sigma": sigma},
        diagnostics=diagnostics,
        linear_solve_count=ops.counter.count,
        operators=ops,
    )


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
