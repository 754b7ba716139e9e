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
adjoint sweep around that trajectory. Each is a shifted Laplacian
rI - Lap or, for the phase block, a product of two, factored by a LAPACK
tridiagonal LU in 1D and by a sparse LU in 2D (see
:mod:`~caginalp_control.linsolve`). The nutrient decay changes every step
and enters each nutrient solve as a diagonal shift of the operator at a
reference decay: in 1D the step factors its own shifted band, in 2D it
runs conjugate gradients preconditioned by the reference factor.

The Cahn-Hilliard pair is solved through its Schur complement in phi
(eliminating mu by the potential equation), and mu is then recovered as
mu = (a * phi_new - Lap phi_new) - rhs, with a = tau/dt + S and
S = STABILIZATION_S. The two products are formed apart because Lap of a
constant is exactly zero, so a constant phi keeps mu constant; a merged
(a I - Lap), with diagonal a + 2/h^2, rounds it at order 1/h^2.

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


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solve tolerance shared by the forward, linearized and adjoint
    sweeps.

    Attributes:
        linear_tol: Relative residual at which a 2D nutrient solve by
            conjugate gradients is accepted, once its normwise backward
            error is at rounding level too, in (0, 1e-6]. Direct solves
            need no tolerance.
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
    ``wsum``, the sparse Laplacian and its product with a vector
    (``apply_lap``, see :class:`~caginalp_control.linsolve.MatVec`), the
    shift ``a`` of the potential relation mu = a*phi - Lap phi - rhs, whose
    two products the steps form apart, and three operators
    factorized once per forward sweep and reused by every linearized and
    adjoint sweep around its trajectory: the heat operator (I/dt - Lap),
    the Cahn-Hilliard Schur complement (I/dt - a*Lap + Lap^2), held as the
    factor pair (r1 I - Lap)(r2 I - Lap), and the nutrient operator at a
    reference decay ((1/dt + decay_ref) I - Lap). The nutrient decay
    changes every step; each step solves with its own decay through
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
        self.apply_lap = MatVec(self.lap)
        self.decay_ref = params.lambda_b + 0.5 * (
            params.lambda_c * nl.h_star + params.lambda_d * nl.k_star)
        inv_dt = 1.0 / self.dt
        self.heat = self._factorize("heat", inv_dt)
        self.ch_schur = self._factorize("phase", inv_dt, self.a)
        self.nutrient = self._factorize("nutrient", inv_dt + self.decay_ref)

    def solve_nutrient(self, rhs, decay, step=None, guess=None):
        """Solve (I/dt - Lap + diag(decay)) x = rhs as a diagonal shift of
        the nutrient operator at the reference decay."""
        return self.nutrient.solve(rhs, step=step, guess=guess,
                                   shift=decay - self.decay_ref)

    def solve_terminal(self, rhs):
        """Solve (I - tau*Lap) x = rhs as (I/tau - Lap) x = rhs/tau,
        factorizing on the first call."""
        tau = self.params.tau
        if self._terminal is None:
            self._terminal = self._factorize("terminal", 1.0 / tau)
        return self._terminal.solve(rhs / tau)

    def _factorize(self, label, c0, c1=None):
        return FactorizedOperator(self.lap, c0, c1,
                                  linear_tol=self.cfg.linear_tol,
                                  counter=self.counter, weights=self.weights,
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


def _decay_coefficient(theta_flat, gate, params, nl):
    """Nutrient decay lambda_c H(phi) + lambda_b + lambda_d K(theta), given
    the gate values H(phi)."""
    return (params.lambda_c * gate + params.lambda_b
            + params.lambda_d * np.asarray(nl.K_temp(theta_flat), dtype=float))


def _frozen_coefficients(ops, base):
    """The coefficients the linearized and adjoint steps freeze at base
    levels 0..nt-1, as (nt, N) arrays: ``gate`` H(phi), ``source_prime``,
    ``f_prime``, ``decay``, ``h_prime`` lambda_c H'(phi) and ``k_prime``
    lambda_d K'(theta); each model function runs once, on a flat 1-D view."""
    params, nl = ops.params, ops.nl
    theta, phi, sigma = (base.field_array(name)[:-1].reshape(-1)
                         for name in ("theta", "phi", "sigma"))
    with np.errstate(over="ignore", invalid="ignore"):
        gate = np.asarray(nl.H_gate(phi), dtype=float)
        gate_prime = np.asarray(nl.H_gate_prime(phi), dtype=float)
        table = {
            "gate": gate,
            "source_prime": (params.lambda_p * sigma - params.lambda_a
                             - params.lambda_e * theta) * gate_prime,
            "f_prime": np.asarray(ops.pot.f_prime(phi), dtype=float),
            "decay": _decay_coefficient(theta, gate, params, nl),
            "h_prime": params.lambda_c * gate_prime,
            "k_prime": params.lambda_d * np.asarray(nl.K_temp_prime(theta),
                                                    dtype=float),
        }
    return {name: values.reshape(base.time_grid.nt, -1)
            for name, values in table.items()}


@np.errstate(over="ignore", invalid="ignore")
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
    decay = _decay_coefficient(theta_n, gate, params, nl)

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
    phi_next = phi_next + (w @ (phi_n + dt * source)
                           - w @ phi_next) / ops.wsum
    lap_phi_next = ops.apply_lap(phi_next)
    mu_next = (ops.a * phi_next - lap_phi_next) - rhs_potential

    rhs_heat = (theta_n / dt - (params.ell / dt) * (phi_next - phi_n) + u_n)
    theta_next = ops.heat.solve(rhs_heat, step=step, guess=theta_n)

    rhs_nutrient = (sigma_n / dt - params.chi * lap_phi_next
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


@names_sweep("forward")
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
        SolverError: Propagated from the failing block solve, with its
            block, step index and sweep "forward".
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
