"""Exact linearization of the forward time-stepping map, written once as a
program of linear instructions.

Each forward step freezes its nonlinear coefficients at the old level, so the
step is a smooth map of (old state, control slice) and its derivative is
computed exactly: the linearized step solves the same three linear systems
with the same matrices as the forward step, only the right-hand sides change.

:func:`_step_program` writes the step as a straight-line list of
instructions (target, c, op, source), each adding c * op(source) to a
register. :func:`solve_linearized` runs it forward; the adjoint sweep runs
:func:`_transposed` of it, which is reverse mode on a straight-line program
(Griewank and Walther, Evaluating Derivatives, SIAM 2008). A sweep takes
the factorizations and the model from its base trajectory and builds each
coefficient table once, so its steps call no model function.

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
from .state import _base_operators, _explicit_decay, y_norm

__all__ = [
    "solve_linearized",
    "TaylorRow",
    "TaylorReport",
    "taylor_test",
]


def _step_program(ops, base):
    """The linearized step around ``base`` as a list of instructions
    (target, c, op, source), each adding c * op(source) to register target.

    The registers are the inputs zeta, xi, rho and h; the heat, phase,
    potential and nutrient right-hand sides; the phase solve's input
    B = phase - L potential; L xi'; and the outputs zeta', xi', eta', rho'.
    c is None for 1, else a sequence indexed by the step: a scalar
    repeated, or the rows of a table of the base's coefficients at the
    step's old level. op is None for the identity, else op(v, step): L or a
    block solve, which names the step in its failures. A row only comes
    with the identity, so c commutes with op. No register is written after
    it is read. Each model function runs once, on the flat levels 0..nt-1.
    """
    dt, params, nl = ops.dt, ops.params, ops.nl
    nt = base.time_grid.nt
    theta, phi, sigma = (base.field_array(name)[:-1].reshape(-1)
                         for name in ("theta", "phi", "sigma"))

    def rows(values):
        return list(values.reshape(nt, -1))

    def scalar(value):
        return [value] * nt

    def lap(v, step):
        return ops.apply_lap(v)

    with np.errstate(over="ignore", invalid="ignore"):
        gate = np.asarray(nl.H_gate(phi), dtype=float)
        gate_prime = np.asarray(nl.H_gate_prime(phi), dtype=float)
        source_prime = (params.lambda_p * sigma - params.lambda_a
                        - params.lambda_e * theta) * gate_prime
        f_prime = np.asarray(ops.pot.f_prime(phi), dtype=float)
        explicit_decay = _explicit_decay(ops, theta, gate)
        h_prime = params.lambda_c * gate_prime
        k_prime = params.lambda_d * np.asarray(nl.K_temp_prime(theta),
                                               dtype=float)
        return [
            ("phase", rows(1.0 / dt + source_prime), None, "xi"),
            ("phase", rows(params.lambda_p * gate), None, "rho"),
            ("phase", rows(-params.lambda_e * gate), None, "zeta"),
            ("potential", rows(ops.a - f_prime), None, "xi"),
            ("potential", scalar(params.chi), None, "rho"),
            ("potential", scalar(params.lambda_big), None, "zeta"),
            ("B", None, None, "phase"),
            ("B", scalar(-1.0), lap, "potential"),
            ("xi'", None, ops.ch_schur.solve, "B"),
            ("L xi'", None, lap, "xi'"),
            # eta' = (a xi' - L xi') - potential, in the order the forward
            # step forms mu.
            ("eta'", scalar(ops.a), None, "xi'"),
            ("eta'", scalar(-1.0), None, "L xi'"),
            ("eta'", scalar(-1.0), None, "potential"),
            ("heat", scalar(1.0 / dt), None, "zeta"),
            ("heat", scalar(params.ell / dt), None, "xi"),
            ("heat", scalar(-params.ell / dt), None, "xi'"),
            ("heat", None, None, "h"),
            ("zeta'", None, ops.heat.solve, "heat"),
            ("nutrient", rows(1.0 / dt - explicit_decay), None, "rho"),
            ("nutrient", scalar(-params.chi), None, "L xi'"),
            ("nutrient", rows(-sigma * h_prime), None, "xi"),
            ("nutrient", rows(-sigma * k_prime), None, "zeta"),
            ("rho'", None, ops.nutrient.solve, "nutrient"),
        ]


def _transposed(program):
    """The transpose of ``program`` under the trapezoid pairing <x, y>_W:
    the instructions in reverse, each target += c * op(source) turned into
    source += c * op(target) on the cotangents. It is exact because
    W L = L^T W, so L, every block solve and every diagonal c are
    self-adjoint in that pairing."""
    return [(source, c, op, target)
            for target, c, op, source in reversed(program)]


def _run(program, registers, step):
    """Run ``program`` at ``step``. ``registers`` holds its inputs and gains
    every register it writes; the first write assigns. The block solves
    judge the right-hand sides, so a non-finite one fails with the name of
    its block and step, and a sweep runs with numpy's overflow and invalid
    warnings off."""
    for target, c, op, source in program:
        value = registers[source]
        if op is not None:
            value = op(value, step)
        if c is not None:
            value = c[step] * value
        previous = registers.get(target)
        registers[target] = value if previous is None else previous + value
    return registers


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

    program = _step_program(ops, base)
    directions = h.flat_slices
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(nt):
            out = _run(program, {"zeta": zeta[step], "xi": xi[step],
                                 "rho": rho[step], "h": directions[step]},
                       step)
            zeta[step + 1], xi[step + 1], eta[step + 1], rho[step + 1] = (
                out["zeta'"], out["xi'"], out["eta'"], out["rho'"])

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
