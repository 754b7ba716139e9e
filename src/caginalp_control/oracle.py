"""Dense brute-force oracle for tiny problems.

Everything in this module is assembled densely and explicitly: the Laplacian
is built node by node with ghost reflection, quadrature weights come from an
explicit per-node product, each time step is one dense linear system, the
space-time Jacobian of the stepping map is written out block by block, and
the adjoint is its literal matrix transpose. Solves go through
``numpy.linalg.solve``.

None of the sparse stencil/factorization machinery of the solver modules is
used here; the only shared ingredients are the data carriers (grids, fields,
``InitialData``, the ``Trajectory`` every function reads or returns, the
``AdjointSources`` the transpose solve takes, parameter records), the
nonlinearity/potential callables themselves and the scheme's stabilization
constant ``state.STABILIZATION_S``; the reference decay of the nutrient
step is computed here from the model, as the scheme's ``a`` is. That
independence is the point:
agreement between this path and the fast path is what the verification
suite certifies on the pinned tiny configurations.

Hard size caps (at most 5 nodes per axis, at most 3 time steps) keep the
dense space-time matrices small and guard against accidental misuse.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError
from .grid import Trajectory
from .state import STABILIZATION_S

__all__ = [
    "MAX_NODES_PER_AXIS",
    "MAX_TIME_STEPS",
    "dense_laplacian",
    "dense_weights",
    "dense_oracle_solve",
    "oracle_linearized",
    "oracle_adjoint",
    "oracle_terminal_conditions",
    "oracle_cost",
]

MAX_NODES_PER_AXIS = 5
MAX_TIME_STEPS = 3


def _check_sizes(n, nt=None):
    for count in n:
        if count > MAX_NODES_PER_AXIS:
            raise ConfigurationError(
                f"dense oracle refuses axes above {MAX_NODES_PER_AXIS} nodes,"
                f" got {count}"
            )
    if nt is not None and nt > MAX_TIME_STEPS:
        raise ConfigurationError(
            f"dense oracle refuses more than {MAX_TIME_STEPS} steps, got {nt}"
        )


def _flat(multi, n):
    idx = 0
    for j, count in zip(multi, n):
        idx = idx * count + j
    return idx


def dense_laplacian(n, spacing):
    """Dense Neumann Laplacian assembled node by node with ghost reflection.

    Args:
        n: Node counts per axis (tuple).
        spacing: Mesh width per axis (tuple).

    Returns:
        Dense (N, N) array in flat C ordering.
    """
    _check_sizes(n)
    total = 1
    for count in n:
        total *= count
    lap = np.zeros((total, total))
    for multi in np.ndindex(*n):
        row = _flat(multi, n)
        for axis, (count, h) in enumerate(zip(n, spacing)):
            j = multi[axis]
            for delta in (-1, 1):
                jj = j + delta
                if jj < 0:
                    jj = 1  # ghost node mirrors the first interior node
                if jj > count - 1:
                    jj = count - 2
                neighbor = list(multi)
                neighbor[axis] = jj
                lap[row, _flat(neighbor, n)] += 1.0 / (h * h)
            lap[row, row] -= 2.0 / (h * h)
    return lap


def dense_weights(n, spacing):
    """Trapezoid weights as an explicit per-node product over axes."""
    _check_sizes(n)
    total = 1
    for count in n:
        total *= count
    w = np.empty(total)
    for multi in np.ndindex(*n):
        value = 1.0
        for axis, (count, h) in enumerate(zip(n, spacing)):
            j = multi[axis]
            value *= 0.5 * h if j in (0, count - 1) else h
        w[_flat(multi, n)] = value
    return w


def _decay_split(theta_p, gate, params, nl):
    """The reference decay, the midpoint of the declared range
    [lambda_b, lambda_b + lambda_c h_star + lambda_d k_star], which the
    nutrient step keeps implicit, and the rest of the decay at the old
    level, which it takes explicitly, given the gate values H(phi_p)."""
    reference = params.lambda_b + 0.5 * (params.lambda_c * nl.h_star
                                         + params.lambda_d * nl.k_star)
    decay = (params.lambda_c * gate + params.lambda_b
             + params.lambda_d * np.asarray(nl.K_temp(theta_p), dtype=float))
    return reference, decay - reference


def _step_blocks(lap, prev, sigma_b_slice, dt, params, nl, pot):
    """Dense one-step system: equations [heat, phase, potential, nutrient]
    in the unknowns [theta, phi, mu, sigma] at the new level."""
    total = lap.shape[0]
    eye = np.eye(total)
    theta_p, phi_p, sigma_p = prev
    a = params.tau / dt + STABILIZATION_S
    gate = np.asarray(nl.H_gate(phi_p), dtype=float)
    reference, explicit = _decay_split(theta_p, gate, params, nl)
    source = (params.lambda_p * sigma_p - params.lambda_a
              - params.lambda_e * theta_p) * gate

    matrix = np.zeros((4 * total, 4 * total))
    rhs = np.zeros(4 * total)
    sl = [slice(i * total, (i + 1) * total) for i in range(4)]
    th, ph, mu, sg = sl

    matrix[th, th] = eye / dt - lap
    matrix[th, ph] = (params.ell / dt) * eye
    rhs[th] = theta_p / dt + (params.ell / dt) * phi_p  # control added later

    matrix[ph, ph] = eye / dt
    matrix[ph, mu] = -lap
    rhs[ph] = phi_p / dt + source

    matrix[mu, ph] = a * eye - lap
    matrix[mu, mu] = -eye
    rhs[mu] = (a * phi_p - np.asarray(pot.f(phi_p), dtype=float)
               + params.chi * sigma_p + params.lambda_big * theta_p)

    matrix[sg, sg] = (1.0 / dt + reference) * eye - lap
    matrix[sg, ph] = params.chi * lap
    rhs[sg] = (sigma_p / dt - explicit * sigma_p
               + params.lambda_b * sigma_b_slice)

    return matrix, rhs, th


def _grids(base, other, what):
    """Grid and time grid of ``base``, which ``other`` must share."""
    if other.grid != base.grid or other.time_grid != base.time_grid:
        raise ConfigurationError(f"{what} grids do not match base")
    _check_sizes(base.grid.n, base.time_grid.nt)
    return base.grid, base.time_grid


def dense_oracle_solve(init, u, params, nl, pot):
    """March the forward system densely, one direct solve per step.

    Args:
        init: InitialData.
        u: Control as a SpaceTimeField (slice nt unused).
        params, nl, pot: Model data, shared with the fast path as data only.

    Returns:
        Trajectory of (theta, phi, mu, sigma) at levels 0..nt.

    Raises:
        ConfigurationError: If the control lives on another grid than the
            initial data, an axis exceeds 5 nodes or nt exceeds 3.
    """
    grid = init.grid
    if u.grid != grid:
        raise ConfigurationError("control grid does not match initial data")
    time_grid = u.time_grid
    _check_sizes(grid.n, time_grid.nt)
    lap = dense_laplacian(grid.n, grid.spacing)
    nt = time_grid.nt
    dt = time_grid.dt
    total = grid.num_nodes

    theta, phi, mu, sigma = np.zeros((4, nt + 1, total))
    theta[0] = init.theta0.flat
    phi[0] = init.phi0.flat
    sigma[0] = init.sigma0.flat
    mu[0] = (-lap @ phi[0] + np.asarray(pot.f(phi[0]), dtype=float)
             - params.chi * sigma[0] - params.lambda_big * theta[0])

    controls = u.flat_slices
    times = time_grid.times
    for step in range(nt):
        prev = (theta[step], phi[step], sigma[step])
        sb = params.sigma_b_at(times[step], dt, grid)
        matrix, rhs, th = _step_blocks(lap, prev, sb, dt, params, nl, pot)
        rhs[th] += controls[step]
        sol = np.linalg.solve(matrix, rhs).reshape(4, total)
        theta[step + 1], phi[step + 1], mu[step + 1], sigma[step + 1] = sol
    return Trajectory(time_grid, grid, {"theta": theta, "phi": phi, "mu": mu,
                                        "sigma": sigma})


# The linearized and adjoint oracles on one base share one assembly.
@functools.lru_cache(maxsize=1)
def _space_time_system(base, params, nl, pot):
    """Assemble the space-time Jacobian of the discrete stepping map.

    The unknown vector stacks [theta, phi, mu, sigma] at levels 1..nt; the
    equation rows stack [heat, phase, potential, nutrient] per step. The
    returned pair (A, B) satisfies A @ Y_lin = B @ H for the linearized
    trajectory Y_lin and stacked control perturbation H (slices 0..nt-1).

    Args:
        base: State Trajectory the Jacobian is taken around.

    Returns:
        (A, B) dense arrays.
    """
    grid, time_grid = base.grid, base.time_grid
    lap = dense_laplacian(grid.n, grid.spacing)
    total = grid.num_nodes
    eye = np.eye(total)
    nt = time_grid.nt
    dt = time_grid.dt
    a = params.tau / dt + STABILIZATION_S
    block = 4 * total
    theta, phi, sigma = (base.field_array(name)
                         for name in ("theta", "phi", "sigma"))
    th, ph, mu, sg = (slice(i * total, (i + 1) * total) for i in range(4))

    big = np.zeros((block * nt, block * nt))
    ctrl = np.zeros((block * nt, total * nt))

    for k in range(1, nt + 1):
        prev = (theta[k - 1], phi[k - 1], sigma[k - 1])
        theta_p, phi_p, sigma_p = prev
        gate = np.asarray(nl.H_gate(phi_p), dtype=float)
        gate_d = np.asarray(nl.H_gate_prime(phi_p), dtype=float)
        temp_d = np.asarray(nl.K_temp_prime(theta_p), dtype=float)
        source_d = (params.lambda_p * sigma_p - params.lambda_a
                    - params.lambda_e * theta_p) * gate_d

        row = col = (k - 1) * block
        # The diagonal block is the forward step's matrix from level k - 1;
        # its right-hand side is not needed.
        big[row:row + block, col:col + block] = _step_blocks(
            lap, prev, 0.0, dt, params, nl, pot)[0]

        ctrl[row:row + total, (k - 1) * total:k * total] = eye

        if k >= 2:
            sub = np.zeros((block, block))
            sub[th, th] = -eye / dt
            sub[th, ph] = -(params.ell / dt) * eye
            sub[ph, th] = params.lambda_e * np.diag(gate)
            sub[ph, ph] = -eye / dt - np.diag(source_d)
            sub[ph, sg] = -params.lambda_p * np.diag(gate)
            sub[mu, th] = -params.lambda_big * eye
            sub[mu, ph] = -a * eye + np.diag(
                np.asarray(pot.f_prime(phi_p), dtype=float))
            sub[mu, sg] = -params.chi * eye
            sub[sg, th] = np.diag(params.lambda_d * temp_d * sigma_p)
            sub[sg, ph] = np.diag(params.lambda_c * gate_d * sigma_p)
            sub[sg, sg] = -eye / dt + np.diag(
                _decay_split(theta_p, gate, params, nl)[1])
            big[row:row + block, col - block:col] = sub

    return big, ctrl


def oracle_linearized(base, params, nl, pot, h):
    """Linearized trajectory as the dense Jacobian applied to a direction.

    Args:
        base: State Trajectory the linearization is taken around.
        h: Control perturbation, SpaceTimeField on the grids of ``base``
            (slice nt unused).

    Returns:
        Trajectory of (zeta, xi, eta, rho); level 0 is zero.

    Raises:
        ConfigurationError: If ``h`` lives on other grids than ``base``.
    """
    grid, time_grid = _grids(base, h, "direction")
    big, ctrl = _space_time_system(base, params, nl, pot)
    total = grid.num_nodes
    nt = time_grid.nt
    stacked = np.linalg.solve(big, ctrl @ h.flat_slices[:-1].reshape(-1))
    levels = np.zeros((nt + 1, 4, total))
    levels[1:] = stacked.reshape(nt, 4, total)
    return Trajectory(time_grid, grid, dict(zip(
        ("zeta", "xi", "eta", "rho"), levels.transpose(1, 0, 2))))


def _terminal_split(grid, params, g_z, g_w, g_r):
    """Terminal adjoint data (z, p, q, r) by dense elimination: z = g_z,
    p solves (I - tau*Lap) p = g_w - ell*z densely, q = -Lap p and r = g_r."""
    lap = dense_laplacian(grid.n, grid.spacing)
    p = np.linalg.solve(np.eye(grid.num_nodes) - params.tau * lap,
                        g_w - params.ell * g_z)
    return g_z, p, -lap @ p, g_r


def oracle_adjoint(base, params, nl, pot, sources):
    """Adjoint multipliers as the explicit transpose solve.

    The functional being differentiated is

        G = sum_k dt * (<s_theta_k, zeta_k> + <s_phi_k, xi_k>
                        + <s_eta_k, eta_k> + <s_sigma_k, rho_k>)
            + <g_z, zeta_nt> + <g_w, xi_nt> + <g_r, rho_nt>

    with weighted inner products; running sources live at levels 1..nt.

    Args:
        base: State Trajectory the Jacobian is taken around.
        sources: AdjointSources on the grids of ``base``.

    Returns:
        Trajectory of (z, p, q, r), indexed as
        :func:`~caginalp_control.adjoint.solve_adjoint_with_sources` indexes
        it: index m < nt holds the multiplier of the step m -> m + 1, and
        index nt the terminal data split from (g_z, g_w, g_r).

    Raises:
        ConfigurationError: If ``sources`` lives on other grids than
            ``base``.
    """
    grid, time_grid = _grids(base, sources, "source")
    big, _ = _space_time_system(base, params, nl, pot)
    total = grid.num_nodes
    nt = time_grid.nt
    dt = time_grid.dt
    w = dense_weights(grid.n, grid.spacing)

    running = np.stack([sources.s_theta, sources.s_phi, sources.s_eta,
                        sources.s_sigma], axis=1)
    cost_grad = dt * w * running[1:]
    cost_grad[-1, [0, 1, 3]] += w * np.stack(
        [sources.g_z, sources.g_w, sources.g_r])
    lam = np.linalg.solve(big.T, cost_grad.reshape(-1))

    levels = np.empty((nt + 1, 4, total))
    levels[:nt] = lam.reshape(nt, 4, total) / (dt * w)
    levels[nt] = _terminal_split(grid, params, sources.g_z, sources.g_w,
                                 sources.g_r)
    return Trajectory(time_grid, grid, dict(zip(
        ("z", "p", "q", "r"), levels.transpose(1, 0, 2))))


def _running_target(target, nt):
    """Flat slices of a running target; a zero column if it is None."""
    return np.zeros((nt + 1, 1)) if target is None else target.flat_slices


def _terminal_target(target):
    """Flat values of a terminal target; zero if it is None."""
    return 0.0 if target is None else target.flat


def oracle_terminal_conditions(theta_T, phi_T, cost, params, grid):
    """Terminal adjoint data of a cost by dense elimination.

    Returns the stored split (z, p, q, r) at the final level for the cost
    gradients g_z = b2*(theta_T - theta_Omega), g_w = b4*(phi_T - phi_Omega)
    and g_r = 0; a target that is None counts as zero.
    """
    g_z = cost.b2 * (theta_T - _terminal_target(cost.theta_omega))
    g_w = cost.b4 * (phi_T - _terminal_target(cost.phi_omega))
    return _terminal_split(grid, params, g_z, g_w, np.zeros_like(g_z))


def oracle_cost(traj, u, cost):
    """Cost functional by explicit left-endpoint summation.

    Args:
        traj: State Trajectory.
        u: Control SpaceTimeField on the grids of ``traj``.
        cost: CostSpec-like record with b1..b5 and target fields; a target
            that is None counts as zero.

    Returns:
        The value of the tracking functional.
    """
    grid, time_grid = _grids(traj, u, "control")
    w = dense_weights(grid.n, grid.spacing)
    dt = time_grid.dt
    nt = time_grid.nt
    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    theta_q = _running_target(cost.theta_q, nt)
    phi_q = _running_target(cost.phi_q, nt)
    controls = u.flat_slices
    value = 0.0
    for step in range(nt):
        d_theta = theta[step] - theta_q[step]
        d_phi = phi[step] - phi_q[step]
        value += dt * 0.5 * (cost.b1 * np.dot(w, d_theta * d_theta)
                             + cost.b3 * np.dot(w, d_phi * d_phi)
                             + cost.b5 * np.dot(w, controls[step] ** 2))
    d_theta = theta[nt] - _terminal_target(cost.theta_omega)
    d_phi = phi[nt] - _terminal_target(cost.phi_omega)
    value += 0.5 * (cost.b2 * np.dot(w, d_theta * d_theta)
                    + cost.b4 * np.dot(w, d_phi * d_phi))
    return float(value)
