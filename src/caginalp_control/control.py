"""Control problem, tracking cost, admissible box, projected gradient descent.

A :class:`Problem` holds the whole optimal control problem: the model and
its discretization, the initial data, a control, the cost, the box and the
optimizer's stopping rule. It solves its state system S(u) for any control
u, and the optimizer, the reduced gradient and the Taylor test take it in
place of those pieces.

The cost is a left-endpoint time quadrature of weighted tracking and
regularization terms plus two terminal terms; :func:`evaluate_cost` and
:func:`cost_sources` read the same four tracking residuals. The sources
drive the backward sweep of :mod:`caginalp_control.adjoint`, and the reduced
gradient equals z + b5 * u slice by slice, so first-order optimality is the
pointwise variational inequality of a box-constrained problem: at a
stationary point the control clamps -z / b5 onto the box wherever b1..b4
make z nonzero.

The optimizer is projected gradient descent with Armijo backtracking along
the projection arc, using the sufficient-decrease test

    J(P(u - alpha g)) <= J(u) - (c / alpha) * ||P(u - alpha g) - u||^2

in the control-space norm, with c = ARMIJO_C. The first iterate tries
alpha = INITIAL_STEP first. Every later iterate first tries the short
Barzilai-Borwein step alpha = <s, y> / <y, y> (Barzilai & Borwein, IMA J.
Numer. Anal. 8, 1988), where s and y are the differences of the controls
and of the gradients between this iterate and the last, in the
control-space inner product; when <s, y> <= 0 the pair carries no positive
curvature and the first trial is INITIAL_STEP again. Each rejected trial
multiplies alpha by BACKTRACK_FACTOR; a trial is accepted only if it also
lowers the cost strictly, so the search stays monotone. The stationarity
measure is ||u - P(u - g)|| at unit trial step; for a box the fixed points
of the projection arc are the same for every positive step, so a
nonstationary iterate always moves and the line search cannot stall at a
fixed point.

The search takes linear_tol * |J| as the cost's resolution: the 2D nutrient
solves stop at a relative residual of linear_tol, and the direct solves
reach rounding level, finer still. Once a rejected trial's
first-order predicted decrease <g, u - P(u - alpha g)> is at or below that
resolution, its rejection was decided by rounding, and so would be that of
every shorter step along the arc: the search ends there, reported as
"resolution", instead of halving alpha down to MIN_STEP. The first trial of
every iterate is always tried.

Each accepted trial's state and cost become the new iterate's, so an
iterate costs one adjoint sweep plus one forward sweep per trial.

The report carries the gradient at the final control, so the variational
inequality is sampled by :func:`stationarity_check` without another sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/selftest.py checks that control.reduced_gradient is
# adjoint.reduced_gradient; this module itself calls _gradient_from_state.
from .adjoint import (
    AdjointSources,
    reduced_gradient,
    solve_adjoint_with_sources,
)
from .errors import ConfigurationError, OptimizerError, SolverError
from .grid import (
    Field,
    SpaceTimeField,
    Trajectory,
    l2q_inner,
    l2q_norm,
    quadrature_weights,
)
from .model import ModelParams
from .state import InitialData, SolverConfig, solve_state

__all__ = [
    "CostSpec",
    "AdmissibleSet",
    "OptimizerConfig",
    "Problem",
    "IterateRecord",
    "OptimizationReport",
    "evaluate_cost",
    "cost_sources",
    "GradientResult",
    "project_admissible",
    "projected_gradient_descent",
    "StationarityReport",
    "stationarity_check",
]


@dataclass(frozen=True)
class CostSpec:
    """Weights and targets of the tracking cost.

    Attributes:
        b1, b3: Running tracking weights for temperature and phase.
        b2, b4: Terminal tracking weights for temperature and phase.
        b5: Control regularization weight, strictly positive.
        theta_q, phi_q: Running targets, SpaceTimeField or None for zero.
        theta_omega, phi_omega: Terminal targets, Field or None for zero.
    """

    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    b4: float = 0.0
    b5: float = 1.0
    theta_q: object = None
    phi_q: object = None
    theta_omega: object = None
    phi_omega: object = None

    def __post_init__(self):
        weights = (self.b1, self.b2, self.b3, self.b4, self.b5)
        if not all(np.isfinite(b) for b in weights):
            raise ConfigurationError("cost weights must be finite")
        if any(b < 0.0 for b in weights[:4]):
            raise ConfigurationError("cost weights b1..b4 must be nonnegative")
        if self.b5 <= 0.0:
            raise ConfigurationError(
                f"regularization weight b5 must be positive, got {self.b5}"
            )


@dataclass(frozen=True)
class AdmissibleSet:
    """Pointwise box u_min <= u <= u_max of admissible controls.

    Attributes:
        u_min, u_max: Finite scalar box bounds with u_min <= u_max.
    """

    u_min: float
    u_max: float

    def __post_init__(self):
        if not (np.isfinite(self.u_min) and np.isfinite(self.u_max)):
            raise ConfigurationError("box bounds must be finite")
        if self.u_min > self.u_max:
            raise ConfigurationError(
                f"empty box: u_min={self.u_min} > u_max={self.u_max}"
            )


def project_admissible(u, adm):
    """Pointwise projection of a control onto the admissible box."""
    return SpaceTimeField(u.time_grid, u.grid,
                          np.clip(u.values, adm.u_min, adm.u_max))


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


def _tracking_residuals(traj, cost):
    """theta - theta_q and phi - phi_q on every level, shape (nt + 1, N),
    then theta(T) - theta_omega and phi(T) - phi_omega, shape (N,).

    Every target is checked, whatever its weight.
    """
    grid = traj.grid
    time_grid = traj.time_grid
    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    nt = time_grid.nt
    return (theta - _running_target(cost.theta_q, grid, time_grid),
            phi - _running_target(cost.phi_q, grid, time_grid),
            theta[nt] - _terminal_target(cost.theta_omega, grid),
            phi[nt] - _terminal_target(cost.phi_omega, grid))


def evaluate_cost(traj, u, cost):
    """Cost value of a state trajectory and the control that produced it.

    Running terms use the left-endpoint rule over levels 0..nt-1 with weight
    dt; terminal terms are sampled at level nt.
    """
    grid = traj.grid
    time_grid = traj.time_grid
    if u.grid != grid or u.time_grid != time_grid:
        raise ConfigurationError("control grids do not match trajectory")
    nt = time_grid.nt
    w = quadrature_weights(grid)
    d_theta, d_phi, d_theta_t, d_phi_t = _tracking_residuals(traj, cost)
    control = u.values.reshape(nt + 1, grid.num_nodes)

    def wnorm_sq(arr):
        return (arr * arr) @ w

    running = 0.0
    for weight, residual in ((cost.b1, d_theta), (cost.b3, d_phi)):
        for n in range(nt):
            running += 0.5 * weight * wnorm_sq(residual[n])
    running += 0.5 * cost.b5 * float(np.sum(wnorm_sq(control[:nt])))

    terminal = 0.0
    for weight, residual in ((cost.b2, d_theta_t), (cost.b4, d_phi_t)):
        terminal += 0.5 * weight * wnorm_sq(residual)
    return float(time_grid.dt * running + terminal)


def cost_sources(traj, cost):
    """Adjoint sources of the tracking cost at a state trajectory.

    The running tracking terms are sampled at levels 1..nt-1 (the level-0
    terms do not depend on the control and the left-endpoint time rule
    never samples level nt); the terminal terms seed g_z and g_w. A term
    whose weight is zero leaves its source zero.
    """
    nt = traj.time_grid.nt
    d_theta, d_phi, d_theta_t, d_phi_t = _tracking_residuals(traj, cost)
    sources = {}
    for key, weight, residual in (("s_theta", cost.b1, d_theta),
                                  ("s_phi", cost.b3, d_phi)):
        if weight != 0.0:
            sources[key] = np.zeros_like(residual)
            sources[key][1:nt] = weight * residual[1:nt]
    for key, weight, residual in (("g_z", cost.b2, d_theta_t),
                                  ("g_w", cost.b4, d_phi_t)):
        if weight != 0.0:
            sources[key] = weight * residual
    return AdjointSources(traj.time_grid, traj.grid, **sources)


@dataclass(frozen=True)
class GradientResult:
    """Reduced gradient together with the runs that produced it."""

    gradient: SpaceTimeField
    cost_value: float
    state: Trajectory
    adjoint: Trajectory


def _gradient_from_state(state, u, cost, cost_value=None):
    """Reduced gradient at u from the state trajectory u produced.

    Runs only the backward sweep; see
    :func:`~caginalp_control.adjoint.reduced_gradient`. A caller that has
    already costed ``state`` passes that value as ``cost_value``.
    """
    if cost_value is None:
        cost_value = evaluate_cost(state, u, cost)
    adjoint = solve_adjoint_with_sources(state, cost_sources(state, cost))
    return GradientResult(gradient=adjoint.space_time("z") + cost.b5 * u,
                          cost_value=cost_value, state=state, adjoint=adjoint)


# Line-search constants of projected gradient descent: the Armijo constant
# c, the factor a rejected trial's step is multiplied by, the first trial
# step of the first iterate and of any iterate whose Barzilai-Borwein pair
# has <s, y> <= 0, and the step below which the search gives up.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
INITIAL_STEP = 1.0
MIN_STEP = 1e-14
# Random admissible controls at which stationarity_check samples the
# variational inequality.
VI_SAMPLES = 100


@dataclass(frozen=True)
class OptimizerConfig:
    """When projected gradient descent stops: after max_iters iterates, or
    once the stationarity measure is at or below stationarity_tol."""

    max_iters: int = 100
    stationarity_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if self.stationarity_tol < 0.0:
            raise ConfigurationError("stationarity_tol must be nonnegative")


@dataclass(frozen=True)
class Problem:
    """Minimize the tracking cost over the box, subject to the state system.

    ``control`` is the problem's given control: the starting point of
    ``caginalp optimize`` and the base point of the verification battery.
    Its grids are the problem's.
    """

    params: ModelParams
    nonlinearities: object
    potential: object
    solver: SolverConfig
    init: InitialData
    control: SpaceTimeField
    cost: CostSpec
    admissible: AdmissibleSet
    optimizer: OptimizerConfig

    @property
    def grid(self):
        return self.control.grid

    @property
    def time_grid(self):
        return self.control.time_grid

    def solve(self, u):
        """State trajectory S(u) of this problem's model and initial data."""
        return solve_state(self.init, u, self.solver, self.params,
                           self.nonlinearities, self.potential)


@dataclass(frozen=True)
class IterateRecord:
    """One optimizer iterate, as reported in the iteration table.

    linear_solves, forward_sweeps and adjoint_sweeps count the work of the
    run so far, up to the end of this iterate's line search.
    """

    iteration: int
    cost: float
    stationarity: float
    step: float
    backtracks: int
    linear_solves: int
    forward_sweeps: int
    adjoint_sweeps: int


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one projected gradient descent run.

    stop_reason is one of "stationarity", "max_iters", "resolution" or
    "min_step"; none of them is raised. "resolution" means the line search
    ended because a rejected trial's predicted decrease was at or below the
    cost's resolution linear_tol * |J|. "min_step" means the step fell below
    MIN_STEP, or the step no longer moved the control.

    final_gradient and final_adjoint are the reduced gradient and the
    adjoint trajectory at final_control.
    """

    iterates: tuple
    final_control: SpaceTimeField
    final_cost: float
    final_stationarity: float
    stop_reason: str
    final_adjoint: object
    final_gradient: SpaceTimeField

    @property
    def final_z(self):
        """Adjoint z of the final iterate, as a SpaceTimeField."""
        return self.final_adjoint.space_time("z")


def projected_gradient_descent(problem, u0):
    """Minimize the tracking cost of a problem over its admissible box.

    Args:
        problem: Problem; its optimizer settings say when to stop.
        u0: Starting control; projected onto the box before iterating.

    Returns:
        OptimizationReport with one IterateRecord per gradient evaluation.

    Raises:
        OptimizerError: If a forward or backward sweep fails inside the
            iteration.
    """
    adm = problem.admissible
    cost = problem.cost
    opt_cfg = problem.optimizer
    u = project_admissible(u0, adm)
    iterates = []
    stop_reason = None
    solves = forward_sweeps = adjoint_sweeps = 0

    def failed(exc):
        return OptimizerError(
            f"sweep failed at iterate {len(iterates)}: {exc}")

    def state_at(control):
        nonlocal solves, forward_sweeps
        try:
            traj = problem.solve(control)
        except SolverError as exc:
            raise failed(exc) from exc
        solves += traj.linear_solve_count
        forward_sweeps += 1
        return traj

    def gradient_at(control, traj, cost_value):
        nonlocal solves, adjoint_sweeps
        try:
            result = _gradient_from_state(traj, control, cost, cost_value)
        except SolverError as exc:
            raise failed(exc) from exc
        solves += result.adjoint.linear_solve_count
        adjoint_sweeps += 1
        return result

    def record(iteration, cost_value, stationarity, step, backtracks):
        iterates.append(IterateRecord(
            iteration, cost_value, stationarity, step, backtracks, solves,
            forward_sweeps, adjoint_sweeps))

    traj = state_at(u)
    result = gradient_at(u, traj, evaluate_cost(traj, u, cost))
    previous = None
    iteration = 0
    while True:
        grad = result.gradient
        current_cost = result.cost_value
        stationarity = l2q_norm(u - project_admissible(u - grad, adm))

        if stationarity <= opt_cfg.stationarity_tol:
            stop_reason = "stationarity"
        elif iteration >= opt_cfg.max_iters:
            stop_reason = "max_iters"
        if stop_reason is not None:
            record(iteration, current_cost, stationarity, 0.0, 0)
            break

        # Decreases at or below this are rounding of the inner sweeps.
        resolution = problem.solver.linear_tol * abs(current_cost)
        alpha = INITIAL_STEP
        if previous is not None:
            # Short Barzilai-Borwein step <s, y> / <y, y>; a pair without
            # positive curvature along s falls back to INITIAL_STEP.
            s = u - previous[0]
            y = grad - previous[1]
            curvature = l2q_inner(s, y)
            if curvature > 0.0:
                alpha = curvature / l2q_inner(y, y)
        backtracks = 0
        accepted = None
        search_end = "min_step"
        while True:
            trial = project_admissible(u - alpha * grad, adm)
            movement = l2q_norm(trial - u)
            if movement == 0.0:
                # Steps this short no longer move the control.
                break
            trial_state = state_at(trial)
            trial_cost = evaluate_cost(trial_state, trial, cost)
            # The strict test keeps a trial whose Armijo margin is below
            # the rounding of the cost from passing without any decrease.
            if (trial_cost < current_cost
                    and trial_cost <= current_cost
                    - (ARMIJO_C / alpha) * movement * movement):
                accepted = trial
                break
            alpha *= BACKTRACK_FACTOR
            backtracks += 1
            if alpha < MIN_STEP:
                break
            if l2q_inner(grad, u - trial) <= resolution:
                search_end = "resolution"
                break

        record(iteration, current_cost, stationarity, alpha, backtracks)
        if accepted is None:
            stop_reason = search_end
            break
        previous = (u, grad)
        u = accepted
        # The accepted trial's state and cost are those of the new iterate.
        result = gradient_at(u, trial_state, trial_cost)
        iteration += 1

    return OptimizationReport(
        iterates=tuple(iterates),
        final_control=u,
        final_cost=result.cost_value,
        final_stationarity=iterates[-1].stationarity,
        stop_reason=stop_reason,
        final_adjoint=result.adjoint,
        final_gradient=result.gradient,
    )


@dataclass(frozen=True)
class StationarityReport:
    """First-order optimality evidence at a control."""

    measure: float
    vi_samples: tuple


def stationarity_check(u, grad, adm, seed=0):
    """Measure stationarity and sample the variational inequality.

    Computes the projected-gradient residual ||u - P(u - g)|| and, for
    VI_SAMPLES random admissible controls v, the pairing <g, v - u> in the
    control-space inner product, which is nonnegative at a minimizer.

    Args:
        u: Control to check.
        grad: Reduced gradient at u, for example
            ``OptimizationReport.final_gradient`` or the ``gradient`` of
            :func:`reduced_gradient`.
        adm: AdmissibleSet.
        seed: Seed material for the sample generator.

    Returns:
        StationarityReport.
    """
    measure = l2q_norm(u - project_admissible(u - grad, adm))

    rng = np.random.default_rng(seed)
    samples = []
    shape = u.values.shape
    for _ in range(VI_SAMPLES):
        v = SpaceTimeField(
            u.time_grid, u.grid,
            rng.uniform(adm.u_min, adm.u_max, size=shape))
        samples.append(float(l2q_inner(grad, v - u)))
    return StationarityReport(measure=float(measure),
                              vi_samples=tuple(samples))
