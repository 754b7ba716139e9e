"""Property-test battery for the solver, linearization, adjoint and optimizer.

The suite runs named groups of checks on a desk-scale problem, such as the
one ``configs/desk.cfg`` defines:

- ``conservation``: per-step discrete balance identities for the combined
  temperature mass and the phase mass.
- ``equilibrium``: spatially constant data with all reaction rates zero is a
  fixed point of the scheme.
- ``oracle``: the sparse path agrees with the dense brute-force oracle on a
  pinned matrix of tiny configurations (two grids, two parameter sets, both
  viscosity regimes).
- ``taylor``: second-order remainder decay of the exact linearization, plus
  an exactly linear regime where the remainder is pure rounding.
- ``adjoint``: dot-product (transpose) identity with random sources and the
  duality identity with cost-derived sources.
- ``gradient``: central finite differences of the cost against the adjoint
  gradient density.
- ``optimizer``: monotone descent, stationarity at termination, the clamp
  characterization of the projected stationary point, and sampled
  variational-inequality nonnegativity.
- ``energy``: free-energy dissipation of the decoupled phase subsystem at
  the pinned step size.
- ``lipschitz``: continuous dependence, a scale-uniform ratio of state
  distance to control distance.

Every suite but the oracle's solves through the problem's
:meth:`~caginalp_control.control.Problem.solve`; the equilibrium, energy and
linear Taylor checks first replace the model or the data of their own copy.
The taylor, adjoint, gradient and lipschitz suites all work around the
problem's control. ``run_suite`` solves the base state S(control) at most
once per call, in the first of those suites it runs (taylor, in the
full battery). It solves the cost gradient there, with its adjoint sweep, at
most once too, in the first suite that reads it (adjoint, in the full
battery; the gradient suite reuses it). Neither outlives the call, and a
sweep that raises is not kept, so each suite that needs it records its own
failure.

A failing or crashing check never prevents later checks from running; every
result row records the measured value, its tolerance and the suite seed. All
randomness flows from the single seed through named child streams, so
reports are byte-reproducible for a fixed (config, seed, build).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointSources, solve_adjoint_with_sources
from .control import (
    _gradient_from_state,
    cost_sources,
    evaluate_cost,
    project_admissible,
    projected_gradient_descent,
    stationarity_check,
)
from .errors import ConfigurationError
from .grid import (
    Field,
    Grid,
    SpaceTimeField,
    TimeGrid,
    _cosine_profile,
    l2q_inner,
    l2q_norm,
    quadrature_weights,
)
from .linearized import solve_linearized, taylor_test
from .model import ModelParams, zero_potential
from .oracle import dense_oracle_solve, oracle_adjoint, oracle_linearized
from .state import InitialData, ch_energy, solve_state, trajectory_distance_y

__all__ = [
    "SUITE_NAMES",
    "VerifySuiteConfig",
    "TestResult",
    "VerifyReport",
    "run_suite",
]

_TOLERANCES = {
    "conservation_theta_ell_phi": 1e-10,
    "conservation_phi": 1e-10,
    "equilibrium_fixed_point": 1e-12,
    "oracle_state": 1e-10,
    "oracle_linearized": 1e-10,
    "oracle_adjoint": 1e-10,
    "taylor_slope": 0.1,
    "taylor_linear_regime": 1e-12,
    "dot_product": 1e-10,
    "duality": 1e-9,
    "gradient_central_difference": 1e-6,
    "optimizer_monotone": 0.0,
    "optimizer_stationarity": 1e-6,
    "optimizer_clamp_residual": 1e-4,
    "variational_inequality": 1e-8,
    "energy_dissipation": 1e-12,
    "lipschitz_uniform": 0.05,
}

ENERGY_TEST_DT = 0.01
ENERGY_TEST_STEPS = 100
TAYLOR_DIRECTION_NORM = 64.0
GRADIENT_DIRECTION_NORM = 128.0


@dataclass(frozen=True)
class VerifySuiteConfig:
    """Suite selection and seed; each check's tolerance is fixed.

    Attributes:
        seed: Master seed, a nonnegative integer; all random directions,
            sources and sample controls derive from it and it is recorded
            in every report.
        suites: Suite names to run, in SUITE_NAMES order; None runs all.
            ``caginalp verify <suite>`` sets it; a config file does not.
    """

    seed: int = 1729
    suites: tuple = None

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be nonnegative, got {self.seed}")
        if self.suites is not None:
            unknown = [s for s in self.suites if s not in SUITE_NAMES]
            if unknown:
                raise ConfigurationError(
                    f"unknown suite name(s) {unknown};"
                    f" valid names: {', '.join(SUITE_NAMES)}"
                )
            object.__setattr__(self, "suites", tuple(self.suites))

    def selected(self):
        if self.suites is None:
            return SUITE_NAMES
        return tuple(s for s in SUITE_NAMES if s in self.suites)


@dataclass(frozen=True)
class TestResult:
    """One check: measured value against its tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""
    runtime: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # A numpy bool would be written True/False instead of true/false.
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class VerifyReport:
    """Aggregated suite results plus per-suite report tables.

    ``tables`` maps report file stems (for example ``taylor_report``) to a
    (header, rows) pair ready for CSV serialization.
    """

    seed: int
    results: tuple
    tables: dict

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def summary_lines(self):
        lines = []
        for r in self.results:
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{verdict} {r.name}: measured={r.measured:.6e}"
                f" tolerance={r.tolerance:.6e}"
                + (f" ({r.detail})" if r.detail else "")
            )
        return lines


def _constant_in_time(profile, time_grid):
    """Space-time field repeating one spatial field at every level."""
    reps = (time_grid.nt + 1,) + (1,) * profile.values.ndim
    return SpaceTimeField(time_grid, profile.grid,
                          np.tile(profile.values, reps))


def _child_rng(seed, *path):
    return np.random.default_rng([int(seed)] + [int(p) for p in path])


def _random_direction(rng, time_grid, grid):
    shape = (time_grid.nt + 1,) + grid.shape
    return SpaceTimeField(time_grid, grid, rng.standard_normal(shape))


def _random_sources(rng, time_grid, grid):
    """AdjointSources of standard normal draws.

    Running sources are zero at the unused level 0. The four running arrays
    are drawn before the three terminal vectors, each in keyword order.
    """
    nt = time_grid.nt
    total = grid.num_nodes
    arrays = {}
    for key in ("s_theta", "s_phi", "s_eta", "s_sigma"):
        arr = rng.standard_normal((nt + 1, total))
        arr[0] = 0.0
        arrays[key] = arr
    for key in ("g_z", "g_w", "g_r"):
        arrays[key] = rng.standard_normal(total)
    return AdjointSources(time_grid, grid, **arrays)


def _row(cfg, name, measured, detail):
    """Result of check ``name``: it passes when measured <= its tolerance."""
    tol = _TOLERANCES[name]
    return TestResult(name=name, passed=measured <= tol, measured=measured,
                      tolerance=tol, detail=detail, seed=cfg.seed)


class _BaseSweeps:
    """The state and cost gradient at ``problem.control``.

    Each is solved on its first read and kept for one ``run_suite`` call. A
    sweep that raises is not kept, so the next read solves it again.
    """

    def __init__(self, problem):
        self.problem = problem

    @functools.cached_property
    def state(self):
        return self.problem.solve(self.problem.control)

    @functools.cached_property
    def gradient(self):
        return _gradient_from_state(self.state, self.problem.control,
                                    self.problem.cost)


def _source_pairing(sources, lin, dt, w):
    """Pairing of adjoint sources with a linearized trajectory.

    Running sources at levels 1..nt carry weight dt; terminal vectors pair
    with the final linearized slice.
    """
    pairs = (
        (sources.s_theta, lin.field_array("zeta")),
        (sources.s_phi, lin.field_array("xi")),
        (sources.s_eta, lin.field_array("eta")),
        (sources.s_sigma, lin.field_array("rho")),
    )
    value = 0.0
    for src, arr in pairs:
        value += dt * float(np.sum((src[1:] * arr[1:]) @ w))
    value += float((sources.g_z * lin.field_array("zeta")[-1]) @ w)
    value += float((sources.g_w * lin.field_array("xi")[-1]) @ w)
    value += float((sources.g_r * lin.field_array("rho")[-1]) @ w)
    return value


def _relative_gap(lhs, rhs):
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def _suite_conservation(problem, cfg, base):
    nt = 100
    time_grid = TimeGrid(nt * problem.time_grid.dt, nt)
    grid = problem.grid
    u = _constant_in_time(problem.control.slice(0), time_grid)
    traj = problem.solve(u)
    w = quadrature_weights(grid)
    dt = time_grid.dt
    params = problem.params
    nl = problem.nonlinearities

    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    sigma = traj.field_array("sigma")
    u_flat = u.flat_slices

    worst_combined = 0.0
    worst_phase = 0.0
    for n in range(nt):
        mass_rate = ((theta[n + 1] + params.ell * phi[n + 1]
                      - theta[n] - params.ell * phi[n]) @ w) / dt
        control_mass = u_flat[n] @ w
        gap = abs(mass_rate - control_mass) / max(
            1.0, abs(control_mass), abs(mass_rate))
        worst_combined = max(worst_combined, gap)

        gate = np.asarray(nl.H_gate(phi[n]), dtype=float)
        source = (params.lambda_p * sigma[n] - params.lambda_a
                  - params.lambda_e * theta[n]) * gate
        phase_rate = ((phi[n + 1] - phi[n]) @ w) / dt
        source_mass = source @ w
        gap = abs(phase_rate - source_mass) / max(
            1.0, abs(source_mass), abs(phase_rate))
        worst_phase = max(worst_phase, gap)

    return [_row(cfg, "conservation_theta_ell_phi", worst_combined,
                 f"{nt} steps"),
            _row(cfg, "conservation_phi", worst_phase, f"{nt} steps")], {}


def _suite_equilibrium(problem, cfg, base):
    nt = 100
    time_grid = TimeGrid(nt * problem.time_grid.dt, nt)
    grid = problem.grid
    params = dataclasses.replace(
        problem.params, lambda_p=0.0, lambda_a=0.0, lambda_e=0.0,
        lambda_c=0.0, lambda_b=0.0, lambda_d=0.0, sigma_b=0.0)
    init = InitialData(
        theta0=Field.constant(grid, 0.3),
        phi0=Field.constant(grid, -0.4),
        sigma0=Field.constant(grid, 0.6),
    )
    constant = dataclasses.replace(problem, params=params, init=init)
    traj = constant.solve(SpaceTimeField.zeros(time_grid, grid))

    worst = 0.0
    for name in ("theta", "phi", "mu", "sigma"):
        arr = traj.field_array(name)
        worst = max(worst, float(np.max(np.abs(arr - arr[0]))))
    return [_row(cfg, "equilibrium_fixed_point", worst,
                 f"{nt} steps, constant data")], {}


def _oracle_matrix():
    grids = (Grid(5, 1.3), Grid((3, 4), (1.0, 0.7)))
    base_params = (
        dict(ell=0.7, lambda_big=1.1, chi=0.6, lambda_p=0.8, lambda_a=0.3,
             lambda_e=0.4, lambda_c=0.5, lambda_b=0.35, lambda_d=0.25,
             sigma_b=1.0),
        dict(ell=1.3, lambda_big=0.9, chi=0.4, lambda_p=0.5, lambda_a=0.15,
             lambda_e=0.25, lambda_c=0.7, lambda_b=0.2, lambda_d=0.45,
             sigma_b=0.5),
    )
    for grid in grids:
        for kwargs in base_params:
            for tau in (0.0, 1.0):
                yield grid, ModelParams(tau=tau, **kwargs)


def _relative_array_gap(sparse, dense):
    return float(np.max(np.abs(sparse - dense))
                 / (1.0 + np.max(np.abs(dense))))


def _suite_oracle(problem, cfg, base):
    nl = problem.nonlinearities
    pot = problem.potential
    solver = problem.solver
    time_grid = TimeGrid(0.12, 3)
    nt = time_grid.nt

    worst = {"state": 0.0, "linearized": 0.0, "adjoint": 0.0}
    for idx, (grid, params) in enumerate(_oracle_matrix()):
        rng = _child_rng(cfg.seed, 3, idx)
        profile = _cosine_profile(grid)
        init = InitialData(
            theta0=Field(grid, 0.1 * profile),
            phi0=Field(grid, 0.3 + 0.4 * profile),
            sigma0=Field(grid, 0.7 + 0.2 * profile),
        )
        u_vals = np.stack([(0.25 + 0.1 * k) * profile + 0.05
                           for k in range(nt + 1)])
        u = SpaceTimeField(time_grid, grid, u_vals)

        traj = solve_state(init, u, solver, params, nl, pot)
        dense = dense_oracle_solve(init, u, params, nl, pot)
        h = _random_direction(rng, time_grid, grid)
        sources = _random_sources(rng, time_grid, grid)
        runs = (
            ("state", ("theta", "phi", "mu", "sigma"), traj, dense),
            ("linearized", ("zeta", "xi", "eta", "rho"),
             solve_linearized(traj, h),
             oracle_linearized(dense, params, nl, pot, h)),
            ("adjoint", ("z", "p", "q", "r"),
             solve_adjoint_with_sources(traj, sources),
             oracle_adjoint(dense, params, nl, pot, sources)),
        )
        for kind, names, fast, slow in runs:
            for name in names:
                worst[kind] = max(worst[kind], _relative_array_gap(
                    fast.field_array(name), slow.field_array(name)))

    return [_row(cfg, f"oracle_{kind}", worst[kind],
                 "8 pinned tiny configurations")
            for kind in ("state", "linearized", "adjoint")], {}


def _suite_taylor(problem, cfg, base):
    rng = _child_rng(cfg.seed, 4, 0)
    h = _random_direction(rng, problem.time_grid, problem.grid)
    # The control reaches the nonlinearities only through the temperature,
    # so the quadratic remainder constant of the pinned problem is tiny. A
    # pinned direction magnitude lifts the smallest remainder well above
    # the solver-noise floor while the largest perturbation stays inside
    # the quadratic regime, keeping every slope measurable.
    h = (TAYLOR_DIRECTION_NORM / l2q_norm(h)) * h
    epsilons = (1e-2, 1e-3, 1e-4)
    report = taylor_test(problem, base.state, h, epsilons)
    slope_dev = max((abs(s - 2.0) for s in report.slopes),
                    default=float("inf"))
    slope_row = _row(
        cfg, "taylor_slope", slope_dev,
        "slopes " + ", ".join(f"{s:.4f}" for s in report.slopes))

    linear_params = dataclasses.replace(
        problem.params, lambda_p=0.0, lambda_a=0.0, lambda_e=0.0,
        lambda_c=0.0, lambda_b=0.0, lambda_d=0.0, chi=0.0, lambda_big=0.0)
    linear = dataclasses.replace(problem, params=linear_params,
                                 potential=zero_potential())
    linear_report = taylor_test(linear, linear.solve(linear.control), h,
                                epsilons)
    linear_row = _row(cfg, "taylor_linear_regime",
                      max(r.remainder for r in linear_report.rows),
                      "zero potential, zero rates")

    header = ("epsilon", "remainder_norm", "slope")
    rows = [(r.epsilon, r.remainder, r.slope) for r in report.rows]
    return [slope_row, linear_row], {"taylor_report": (header, rows)}


def _suite_adjoint(problem, cfg, base):
    state = base.state
    grid = problem.grid
    time_grid = problem.time_grid
    dt = time_grid.dt
    w = quadrature_weights(grid)

    dot_rows = []
    worst_dot = 0.0
    for trial in range(10):
        rng = _child_rng(cfg.seed, 5, trial)
        h = _random_direction(rng, time_grid, grid)
        sources = _random_sources(rng, time_grid, grid)

        lin = solve_linearized(state, h)
        adj = solve_adjoint_with_sources(state, sources)
        lhs = l2q_inner(h, adj.space_time("z"))
        rhs = _source_pairing(sources, lin, dt, w)
        gap = _relative_gap(lhs, rhs)
        worst_dot = max(worst_dot, gap)
        dot_rows.append((trial, lhs, rhs, gap))

    tracking_sources = cost_sources(state, problem.cost)
    cost_z = base.gradient.adjoint.space_time("z")
    dual_rows = []
    worst_dual = 0.0
    for trial in range(10):
        rng = _child_rng(cfg.seed, 6, trial)
        h = _random_direction(rng, time_grid, grid)
        lin = solve_linearized(state, h)
        lhs = l2q_inner(h, cost_z)
        rhs = _source_pairing(tracking_sources, lin, dt, w)
        gap = _relative_gap(lhs, rhs)
        worst_dual = max(worst_dual, gap)
        dual_rows.append((trial, lhs, rhs, gap))

    results = [
        _row(cfg, "dot_product", worst_dot,
             "10 random source/direction pairs"),
        _row(cfg, "duality", worst_dual,
             "10 random directions, cost sources"),
    ]
    header = ("trial", "lhs", "rhs", "relative_error")
    tables = {"dot_product_report": (header, dot_rows),
              "duality_report": (header, dual_rows)}
    return results, tables


def _suite_gradient(problem, cfg, base):
    u = problem.control
    grad = base.gradient.gradient

    def cost_at(control):
        return evaluate_cost(problem.solve(control), control, problem.cost)

    eps = 1e-5
    worst = 0.0
    details = []
    for trial in range(5):
        rng = _child_rng(cfg.seed, 7, trial)
        h = _random_direction(rng, problem.time_grid, problem.grid)
        # A pinned direction magnitude keeps the directional derivative far
        # above the cost-evaluation noise that the central difference
        # divides by eps, so the relative gap measures the gradient formula
        # rather than the luck of a nearly orthogonal draw.
        h = (GRADIENT_DIRECTION_NORM / l2q_norm(h)) * h
        fd = (cost_at(u + eps * h) - cost_at(u - eps * h)) / (2 * eps)
        pairing = l2q_inner(grad, h)
        gap = _relative_gap(fd, pairing)
        worst = max(worst, gap)
        details.append(f"{gap:.2e}")

    return [_row(cfg, "gradient_central_difference", worst,
                 "5 directions, eps 1e-05: " + ", ".join(details))], {}


def _suite_optimizer(problem, cfg, base):
    u0 = SpaceTimeField.zeros(problem.time_grid, problem.grid)
    report = projected_gradient_descent(problem, u0)

    costs = [rec.cost for rec in report.iterates]
    max_increase = max((b - a for a, b in zip(costs, costs[1:])),
                       default=0.0)
    monotone = _row(cfg, "optimizer_monotone", max_increase,
                    f"{len(costs)} iterates, stop: {report.stop_reason}")
    stationarity = _row(cfg, "optimizer_stationarity",
                        report.final_stationarity,
                        f"stop: {report.stop_reason}")

    u = report.final_control
    clamp = project_admissible(
        (-1.0 / problem.cost.b5) * report.final_z, problem.admissible)
    # Relative to u, or to the clamp when u = 0; a zero minimizer reads 0.
    u_norm = l2q_norm(u)
    scale = u_norm if u_norm > 0.0 else l2q_norm(clamp)
    clamp_residual = l2q_norm(u - clamp) / scale if scale > 0.0 else 0.0
    clamp_row = _row(cfg, "optimizer_clamp_residual", clamp_residual,
                     "u against clamp(-z/b5)")

    check = stationarity_check(
        u, report.final_gradient, problem.admissible,
        seed=[int(cfg.seed), 8, 1])
    violation = max(0.0, -min(check.vi_samples))
    vi_row = _row(cfg, "variational_inequality", violation,
                  f"min sample {min(check.vi_samples):.3e}"
                  f" over {len(check.vi_samples)}")

    return ([monotone, stationarity, clamp_row, vi_row],
            {"optimizer_report": report.table()})


def _suite_energy(problem, cfg, base):
    grid = problem.grid
    params = dataclasses.replace(
        problem.params, lambda_big=0.0, chi=0.0, tau=0.0, lambda_p=0.0,
        lambda_a=0.0, lambda_e=0.0, lambda_c=0.0, lambda_b=0.0,
        lambda_d=0.0, sigma_b=0.0)
    time_grid = TimeGrid(ENERGY_TEST_STEPS * ENERGY_TEST_DT,
                         ENERGY_TEST_STEPS)
    profile = 0.1 + 0.6 * _cosine_profile(grid)
    init = InitialData(
        theta0=Field.zeros(grid),
        phi0=Field(grid, profile),
        sigma0=Field.constant(grid, 1.0),
    )
    decoupled = dataclasses.replace(problem, params=params, init=init)
    traj = decoupled.solve(SpaceTimeField.zeros(time_grid, grid))
    energies = ch_energy(traj.field_array("phi"), grid, problem.potential)
    scale = 1.0 + abs(energies[0])
    worst = max(((b - a) / scale for a, b in zip(energies, energies[1:])),
                default=0.0)
    worst = max(worst, 0.0)
    return [_row(cfg, "energy_dissipation", worst,
                 f"dt {ENERGY_TEST_DT}, {ENERGY_TEST_STEPS} steps,"
                 f" decoupled phase subsystem")], {}


def _suite_lipschitz(problem, cfg, base):
    rng = _child_rng(cfg.seed, 10, 0)
    h = _random_direction(rng, problem.time_grid, problem.grid)
    h = (1.0 / l2q_norm(h)) * h
    u = problem.control
    ratios = []
    for scale in (1e-1, 1e-2, 1e-3):
        other = u + scale * h
        traj = problem.solve(other)
        ratios.append(trajectory_distance_y(traj, base.state)
                      / l2q_norm(other - u))
    spread = (max(ratios) - min(ratios)) / max(ratios)
    return [_row(cfg, "lipschitz_uniform", spread,
                 "ratios " + ", ".join(f"{r:.6f}" for r in ratios))], {}


_SUITE_RUNNERS = {
    "conservation": _suite_conservation,
    "equilibrium": _suite_equilibrium,
    "oracle": _suite_oracle,
    "taylor": _suite_taylor,
    "adjoint": _suite_adjoint,
    "gradient": _suite_gradient,
    "optimizer": _suite_optimizer,
    "energy": _suite_energy,
    "lipschitz": _suite_lipschitz,
}

# The battery's suites in run order.
SUITE_NAMES = tuple(_SUITE_RUNNERS)


def run_suite(cfg, problem):
    """Run the selected verification suites and aggregate the results.

    A suite that raises contributes a single failed result carrying the
    error message; subsequent suites still run. The state and the cost
    gradient at ``problem.control`` are solved at most once per call, by
    the first suite that reads them.

    Args:
        cfg: VerifySuiteConfig.
        problem: :class:`~caginalp_control.control.Problem`, for example the
            one of ``configs/desk.cfg``
            (``load_config(path).verify_problem()``).

    Returns:
        VerifyReport with per-check results and per-suite report tables.
    """
    results = []
    tables = {}
    base = _BaseSweeps(problem)
    for name in cfg.selected():
        runner = _SUITE_RUNNERS[name]
        start = time.perf_counter()
        try:
            suite_results, suite_tables = runner(problem, cfg, base)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            results.append(TestResult(
                name=name, passed=False, measured=float("nan"),
                tolerance=float("nan"),
                detail=f"{type(exc).__name__}: {exc}",
                runtime=elapsed, seed=cfg.seed))
            continue
        elapsed = time.perf_counter() - start
        for res in suite_results:
            results.append(dataclasses.replace(res, runtime=elapsed))
        tables.update(suite_tables)
    return VerifyReport(seed=cfg.seed, results=tuple(results), tables=tables)
