"""Dense brute-force oracle for tiny problems.

Everything in this module is assembled densely and explicitly: the Laplacian
is built node by node with ghost reflection, quadrature weights come from an
explicit per-node product, each time step is one dense linear system, the
space-time Jacobian of the stepping map is written out block by block, and
the adjoint is its literal matrix transpose. Solves go through
``numpy.linalg.solve``.

None of the sparse stencil/factorization machinery of the solver modules is
used here; the only shared ingredients are the data carriers (grids, fields,
parameter records), the nonlinearity/potential callables themselves and the
scheme's stabilization constant ``state.STABILIZATION_S``. That
independence is the point: agreement between this path and the fast path is
what the verification suite certifies on the pinned tiny configurations.

Hard size caps (at most 5 nodes per axis, at most 3 time steps) keep the
dense space-time matrices small and guard against accidental misuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .state import STABILIZATION_S

__all__ = [
    "MAX_NODES_PER_AXIS",
    "MAX_TIME_STEPS",
    "dense_laplacian",
    "dense_weights",
    "OracleTrajectory",
    "dense_oracle_solve",
    "oracle_space_time_system",
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


@dataclass
class OracleTrajectory:
    """Reference trajectory as plain arrays of shape (nt + 1, N)."""

    theta: np.ndarray
    phi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


def _step_blocks(lap, prev, sigma_b_slice, dt, params, nl, pot):
    """Dense one-step system: equations [heat, phase, potential, nutrient]
    in the unknowns [theta, phi, mu, sigma] at the new level."""
    total = lap.shape[0]
    eye = np.eye(total)
    theta_p, phi_p, sigma_p = prev
    a = params.tau / dt + STABILIZATION_S
    gate = np.asarray(nl.H_gate(phi_p), dtype=float)
    decay = (params.lambda_c * gate + params.lambda_b
             + params.lambda_d * np.asarray(nl.K_temp(theta_p), dtype=float))
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

    matrix[sg, sg] = eye / dt - lap + np.diag(decay)
    matrix[sg, ph] = params.chi * lap
    rhs[sg] = sigma_p / dt + params.lambda_b * sigma_b_slice

    return matrix, rhs, th


def dense_oracle_solve(theta0, phi0, sigma0, u, params, nl, pot):
    """March the forward system densely, one direct solve per step.

    Args:
        theta0, phi0, sigma0: Initial fields.
        u: Control as a SpaceTimeField (slice nt unused).
        params, nl, pot: Model data, shared with the fast path as data only.

    Returns:
        OracleTrajectory of dense arrays.

    Raises:
        ConfigurationError: If any axis exceeds 5 nodes or nt exceeds 3.
    """
    grid = theta0.grid
    time_grid = u.time_grid
    _check_sizes(grid.n, time_grid.nt)
    lap = dense_laplacian(grid.n, grid.spacing)
    nt = time_grid.nt
    dt = time_grid.dt
    total = grid.num_nodes

    theta = np.zeros((nt + 1, total))
    phi = np.zeros((nt + 1, total))
    mu = np.zeros((nt + 1, total))
    sigma = np.zeros((nt + 1, total))
    theta[0] = theta0.flat
    phi[0] = phi0.flat
    sigma[0] = sigma0.flat
    mu[0] = (-lap @ phi[0] + np.asarray(pot.f(phi[0]), dtype=float)
             - params.chi * sigma[0] - params.lambda_big * theta[0])

    controls = u.flat_slices
    times = time_grid.times
    for step in range(nt):
        prev = (theta[step], phi[step], sigma[step])
        sb = params.sigma_b_at(times[step], dt, grid)
        matrix, rhs, th = _step_blocks(lap, prev, sb, dt, params, nl, pot)
        rhs[th] += controls[step]
        sol = np.linalg.solve(matrix, rhs)
        theta[step + 1] = sol[0 * total:1 * total]
        phi[step + 1] = sol[1 * total:2 * total]
        mu[step + 1] = sol[2 * total:3 * total]
        sigma[step + 1] = sol[3 * total:4 * total]
    return OracleTrajectory(theta=theta, phi=phi, mu=mu, sigma=sigma)


def oracle_space_time_system(base, grid, time_grid, params, nl, pot):
    """Assemble the space-time Jacobian of the discrete stepping map.

    The unknown vector stacks [theta, phi, mu, sigma] at levels 1..nt; the
    equation rows stack [heat, phase, potential, nutrient] per step. The
    returned pair (A, B) satisfies A @ Y_lin = B @ H for the linearized
    trajectory Y_lin and stacked control perturbation H (slices 0..nt-1).

    Args:
        base: OracleTrajectory (or anything with .theta/.phi/.sigma arrays).

    Returns:
        (A, B) dense arrays.
    """
    _check_sizes(grid.n, time_grid.nt)
    lap = dense_laplacian(grid.n, grid.spacing)
    total = grid.num_nodes
    eye = np.eye(total)
    nt = time_grid.nt
    dt = time_grid.dt
    a = params.tau / dt + STABILIZATION_S
    block = 4 * total

    big = np.zeros((block * nt, block * nt))
    ctrl = np.zeros((block * nt, total * nt))

    for k in range(1, nt + 1):
        theta_p = base.theta[k - 1]
        phi_p = base.phi[k - 1]
        sigma_p = base.sigma[k - 1]
        sigma_k = base.sigma[k]
        gate = np.asarray(nl.H_gate(phi_p), dtype=float)
        gate_d = np.asarray(nl.H_gate_prime(phi_p), dtype=float)
        temp_d = np.asarray(nl.K_temp_prime(theta_p), dtype=float)
        decay = (params.lambda_c * gate + params.lambda_b
                 + params.lambda_d * np.asarray(nl.K_temp(theta_p),
                                                dtype=float))
        source_d = (params.lambda_p * sigma_p - params.lambda_a
                    - params.lambda_e * theta_p) * gate_d

        row = (k - 1) * block
        col = (k - 1) * block
        th = slice(0 * total, 1 * total)
        ph = slice(1 * total, 2 * total)
        mu = slice(2 * total, 3 * total)
        sg = slice(3 * total, 4 * total)

        diag = np.zeros((block, block))
        diag[th, th] = eye / dt - lap
        diag[th, ph] = (params.ell / dt) * eye
        diag[ph, ph] = eye / dt
        diag[ph, mu] = -lap
        diag[mu, ph] = a * eye - lap
        diag[mu, mu] = -eye
        diag[sg, sg] = eye / dt - lap + np.diag(decay)
        diag[sg, ph] = params.chi * lap
        big[row:row + block, col:col + block] = diag

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
            sub[sg, th] = np.diag(params.lambda_d * temp_d * sigma_k)
            sub[sg, ph] = np.diag(params.lambda_c * gate_d * sigma_k)
            sub[sg, sg] = -eye / dt
            big[row:row + block, col - block:col] = sub

    return big, ctrl


def oracle_linearized(base, grid, time_grid, params, nl, pot, h):
    """Linearized trajectory as the dense Jacobian applied to a direction.

    Args:
        h: Control perturbation, SpaceTimeField (slice nt unused).

    Returns:
        Dict of arrays zeta/xi/eta/rho with shape (nt + 1, N); level 0 zero.
    """
    big, ctrl = oracle_space_time_system(base, grid, time_grid, params, nl,
                                         pot)
    total = grid.num_nodes
    nt = time_grid.nt
    stacked = np.linalg.solve(big, ctrl @ h.flat_slices[:-1].reshape(-1))
    out = {name: np.zeros((nt + 1, total))
           for name in ("zeta", "xi", "eta", "rho")}
    for k in range(1, nt + 1):
        chunk = stacked[(k - 1) * 4 * total:k * 4 * total]
        out["zeta"][k] = chunk[0 * total:1 * total]
        out["xi"][k] = chunk[1 * total:2 * total]
        out["eta"][k] = chunk[2 * total:3 * total]
        out["rho"][k] = chunk[3 * total:4 * total]
    return out


def oracle_adjoint(base, grid, time_grid, params, nl, pot, sources):
    """Adjoint multipliers as the explicit transpose solve.

    The functional being differentiated is

        G = sum_k dt * (<s_theta_k, zeta_k> + <s_phi_k, xi_k>
                        + <s_eta_k, eta_k> + <s_sigma_k, rho_k>)
            + <g_z, zeta_nt> + <g_w, xi_nt> + <g_r, rho_nt>

    with weighted inner products; running sources live at levels 1..nt.

    Args:
        sources: Dict with optional keys s_theta/s_phi/s_eta/s_sigma (arrays
            of shape (nt + 1, N), level 0 ignored) and g_z/g_w/g_r ((N,)).

    Returns:
        Dict with arrays z/p/q/r of shape (nt + 1, N) holding the multiplier
        of step k at index k (index 0 unused, left zero), plus ``gradient``
        of shape (nt, N): the density whose L2(Q) pairing with a control
        perturbation equals G.
    """
    big, _ = oracle_space_time_system(base, grid, time_grid, params, nl, pot)
    total = grid.num_nodes
    nt = time_grid.nt
    dt = time_grid.dt
    w = dense_weights(grid.n, grid.spacing)

    cost_grad = np.zeros(4 * total * nt)
    for k in range(1, nt + 1):
        row = (k - 1) * 4 * total
        for offset, key in enumerate(("s_theta", "s_phi", "s_eta", "s_sigma")):
            arr = sources.get(key)
            if arr is not None:
                cost_grad[row + offset * total:
                          row + (offset + 1) * total] += dt * w * arr[k]
    row = (nt - 1) * 4 * total
    for offset, key in enumerate(("g_z", "g_w", None, "g_r")):
        if key is None:
            continue
        vec = sources.get(key)
        if vec is not None:
            cost_grad[row + offset * total:
                      row + (offset + 1) * total] += w * vec

    lam = np.linalg.solve(big.T, cost_grad)

    out = {name: np.zeros((nt + 1, total)) for name in ("z", "p", "q", "r")}
    for k in range(1, nt + 1):
        chunk = lam[(k - 1) * 4 * total:k * 4 * total]
        out["z"][k] = chunk[0 * total:1 * total] / (dt * w)
        out["p"][k] = chunk[1 * total:2 * total] / (dt * w)
        out["q"][k] = chunk[2 * total:3 * total] / (dt * w)
        out["r"][k] = chunk[3 * total:4 * total] / (dt * w)
    out["gradient"] = out["z"][1:].copy()
    return out


def oracle_terminal_conditions(theta_T, phi_T, cost, params, grid):
    """Terminal adjoint data by dense elimination.

    Returns the stored split (z, p, q, r) at the final level: z and the
    combination v = b4*(phi_T - phi_Omega) - ell*z are cost data, p solves
    (I - tau*Lap) p = v densely, q = -Lap p, and r vanishes.
    """
    _check_sizes(grid.n)
    lap = dense_laplacian(grid.n, grid.spacing)
    z = cost.b2 * (theta_T - cost.theta_omega.flat)
    v = cost.b4 * (phi_T - cost.phi_omega.flat) - params.ell * z
    p = np.linalg.solve(np.eye(grid.num_nodes) - params.tau * lap, v)
    q = -lap @ p
    return z, p, q, np.zeros_like(z)


def oracle_cost(traj, u, cost, grid, time_grid):
    """Cost functional by explicit left-endpoint summation.

    Args:
        traj: OracleTrajectory (or arrays with .theta/.phi).
        u: Control SpaceTimeField.
        cost: CostSpec-like record with b1..b5 and target fields.

    Returns:
        The value of the tracking functional.
    """
    _check_sizes(grid.n, time_grid.nt)
    w = dense_weights(grid.n, grid.spacing)
    dt = time_grid.dt
    nt = time_grid.nt
    theta_q = cost.theta_q.flat_slices
    phi_q = cost.phi_q.flat_slices
    controls = u.flat_slices
    value = 0.0
    for step in range(nt):
        d_theta = traj.theta[step] - theta_q[step]
        d_phi = traj.phi[step] - phi_q[step]
        value += dt * 0.5 * (cost.b1 * np.dot(w, d_theta * d_theta)
                             + cost.b3 * np.dot(w, d_phi * d_phi)
                             + cost.b5 * np.dot(w, controls[step] ** 2))
    d_theta = traj.theta[nt] - cost.theta_omega.flat
    d_phi = traj.phi[nt] - cost.phi_omega.flat
    value += 0.5 * (cost.b2 * np.dot(w, d_theta * d_theta)
                    + cost.b4 * np.dot(w, d_phi * d_phi))
    return float(value)
