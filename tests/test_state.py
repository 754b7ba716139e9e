"""Forward time stepping: fixed points, mass laws, energy, stability."""

import configparser
import dataclasses

import numpy as np
import pytest
from conftest import DESK_CFG, desk_params

from caginalp_control import (
    DIAGNOSTICS_HEADER,
    ConfigurationError,
    Field,
    Grid,
    InitialData,
    ModelParams,
    SolverConfig,
    SolverError,
    SpaceTimeField,
    TimeGrid,
    ch_energy,
    default_nonlinearities,
    default_potential,
    diagnostics,
    initial_mu,
    l2q_norm,
    load_config,
    quadrature_weights,
    solve_state,
    trajectory_distance_y,
    zero_potential,
)
from caginalp_control import state
from caginalp_control.oracle import (
    dense_laplacian,
    dense_oracle_solve,
    dense_weights,
)


def _constant_init(grid, theta, phi, sigma):
    return InitialData(
        theta0=Field(grid, np.full(grid.shape, theta)),
        phi0=Field(grid, np.full(grid.shape, phi)),
        sigma0=Field(grid, np.full(grid.shape, sigma)),
    )


def _smooth_field(grid, rng, amplitude=1.0, offset=0.0):
    values = np.zeros(grid.shape)
    for mode in range(1, 4):
        coeff = rng.normal() * amplitude / mode**2
        wave = np.ones(grid.shape)
        for axis in range(grid.dim):
            x = grid.coords(axis)
            profile = np.cos(mode * np.pi * x / grid.length[axis])
            shape = [1] * grid.dim
            shape[axis] = -1
            wave = wave * profile.reshape(shape)
        values += coeff * wave
    return Field(grid, values + offset)


def test_constant_equilibrium_single_step():
    # theta=0, phi=1, sigma=s with every reaction rate zero is a fixed
    # point: f(1)=0, the Laplacians vanish, and mu = -chi*s - 0.
    grid = Grid(9, 1.0)
    params = ModelParams(chi=0.4, tau=0.7)
    nl = default_nonlinearities()
    pot = default_potential()
    cfg = SolverConfig()
    init = _constant_init(grid, 0.0, 1.0, 0.3)
    mu0 = initial_mu(init, params, pot)
    assert np.allclose(mu0.values, -0.4 * 0.3, atol=1e-14)

    u = SpaceTimeField.zeros(TimeGrid(0.05, 1), grid)
    traj = solve_state(init, u, cfg, params, nl, pot)
    assert np.array_equal(traj.field_array("mu")[0], mu0.flat)
    for name, value in (("theta", 0.0), ("phi", 1.0), ("sigma", 0.3),
                        ("mu", -0.4 * 0.3)):
        assert np.allclose(traj.field(name, 1).values, value,
                           atol=1e-13), name


def test_constant_equilibrium_hundred_steps():
    grid = Grid(17, 2.0)
    params = ModelParams(chi=0.25, tau=0.5)
    init = _constant_init(grid, 0.0, 1.0, 0.6)
    time_grid = TimeGrid(1.0, 100)
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), default_potential())
    for name, value in (("theta", 0.0), ("phi", 1.0), ("sigma", 0.6),
                        ("mu", -0.25 * 0.6)):
        drift = np.max(np.abs(traj.field_array(name) - value))
        assert drift <= 1e-12, f"{name} drifted by {drift:.3e}"


def test_matches_dense_oracle_on_tiny_grid():
    rng = np.random.default_rng(11)
    grid = Grid(4, 1.0)
    time_grid = TimeGrid(0.3, 3)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    u = SpaceTimeField(time_grid, grid,
                       rng.normal(size=(4, grid.num_nodes)) * 0.3)
    traj = solve_state(init, u, SolverConfig(), params, nl, pot)
    oracle = dense_oracle_solve(init, u, params, nl, pot)
    for name in ("theta", "phi", "mu", "sigma"):
        ours = traj.field_array(name)
        theirs = oracle.field_array(name)
        scale = 1.0 + np.max(np.abs(theirs))
        assert np.max(np.abs(ours - theirs)) / scale <= 1e-10, name


def test_per_step_combined_mass_law():
    # Integrating the heat equation row gives the exact discrete law
    # int(theta' + ell*phi') - int(theta + ell*phi) = dt * int(u).
    rng = np.random.default_rng(23)
    grid = Grid(33, 2.0)
    time_grid = TimeGrid(0.5, 50)
    params = desk_params()
    init = InitialData(
        theta0=_smooth_field(grid, rng, 0.1),
        phi0=_smooth_field(grid, rng, 0.5),
        sigma0=_smooth_field(grid, rng, 0.2, offset=0.5),
    )
    x = grid.coords(0)
    u = SpaceTimeField(time_grid, grid, np.stack(
        [0.3 * np.cos(np.pi * x / 2.0) * np.cos(t) for t in time_grid.times]))
    traj = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), default_potential())
    dt = time_grid.dt
    w = quadrature_weights(grid)
    combined = (traj.field_array("theta")
                + params.ell * traj.field_array("phi")) @ w
    worst = 0.0
    for k in range(time_grid.nt):
        before = combined[k]
        after = combined[k + 1]
        source = dt * np.dot(w, u.flat_slices[k])
        scale = 1.0 + abs(before) + abs(source)
        worst = max(worst, abs(after - before - source) / scale)
    assert worst <= 1e-10


def test_phase_mass_matches_reaction_integral():
    # The phase row transports through -Lap(mu), so phase mass moves only
    # through the reaction term: int(phi') - int(phi) = dt * int(reaction).
    rng = np.random.default_rng(29)
    grid = Grid(17, 1.5)
    time_grid = TimeGrid(0.2, 20)
    params = desk_params(lambda_c=0.0, lambda_b=0.0, lambda_d=0.0)
    nl = default_nonlinearities()
    init = InitialData(
        theta0=_smooth_field(grid, rng, 0.1),
        phi0=_smooth_field(grid, rng, 0.4),
        sigma0=_smooth_field(grid, rng, 0.2, offset=0.6),
    )
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = solve_state(init, u, SolverConfig(), params, nl,
                       default_potential())
    dt = time_grid.dt
    w = quadrature_weights(grid)
    phi = traj.field_array("phi")
    worst = 0.0
    for k in range(time_grid.nt):
        gate = nl.H_gate(phi[k])
        reaction = (params.lambda_p * traj.field_array("sigma")[k]
                    - params.lambda_a
                    - params.lambda_e * traj.field_array("theta")[k]) * gate
        before = np.dot(w, phi[k])
        after = np.dot(w, phi[k + 1])
        source = dt * np.dot(w, reaction)
        scale = 1.0 + abs(before) + abs(source)
        worst = max(worst, abs(after - before - source) / scale)
    assert worst <= 1e-10


def test_energy_non_increasing_in_decoupled_phase_regime():
    # With reactions, chi and the heat coupling all switched off the phase
    # pair is a gradient flow for the Ginzburg-Landau energy.
    rng = np.random.default_rng(31)
    grid = Grid(33, 2.0)
    time_grid = TimeGrid(1.0, 100)
    params = ModelParams(ell=0.5, lambda_big=0.0, chi=0.0, tau=0.5)
    pot = default_potential()
    init = InitialData(
        theta0=Field(grid, np.zeros(grid.shape)),
        phi0=_smooth_field(grid, rng, 0.8),
        sigma0=Field(grid, np.zeros(grid.shape)),
    )
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), pot)
    energies = ch_energy(traj.field_array("phi"), grid, pot)
    increments = np.diff(energies)
    scale = 1.0 + abs(energies[0])
    assert np.max(increments) <= 1e-12 * scale


def test_ch_energy_matches_dense_formula_on_2d_grid():
    # Spacings that are not powers of two, so the CSR products round
    # differently from the dense ones; energies agree to a few ulps.
    rng = np.random.default_rng(43)
    grid = Grid((5, 4), (1.3, 0.7))
    pot = default_potential()
    phi = rng.standard_normal((3, grid.num_nodes))
    lap = dense_laplacian(grid.n, grid.spacing)
    w = dense_weights(grid.n, grid.spacing)
    expected = [0.5 * (w @ (-(lap @ level) * level)) + w @ pot.F_hat(level)
                for level in phi]
    energies = ch_energy(phi, grid, pot)
    assert energies.shape == (3,)
    assert np.allclose(energies, expected, rtol=1e-14, atol=0.0)


def test_diagnostics_track_mass_and_energy():
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.1, 5)
    init = _constant_init(grid, 0.0, 1.0, 0.5)
    u = SpaceTimeField.zeros(time_grid, grid)
    params = ModelParams()
    traj = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), default_potential())
    rows = [dict(zip(DIAGNOSTICS_HEADER, row))
            for row in diagnostics(traj, params, default_potential())]
    assert len(rows) == time_grid.nt + 1
    first = rows[0]
    assert first["step"] == 0
    w = quadrature_weights(grid)
    phi0 = init.phi0.flat
    assert first["mass_phi"] == pytest.approx(np.dot(w, phi0))
    assert first["energy"] == pytest.approx(
        ch_energy(phi0[None], grid, default_potential())[0])
    assert rows[-1]["step"] == time_grid.nt
    assert rows[-1]["time"] == pytest.approx(0.1)


def test_diagnostics_are_computed_on_first_read(desk_problem, monkeypatch):
    # A sweep computes no diagnostics; one call computes every level's
    # energy in one ch_energy call.
    problem = desk_problem
    calls = []
    real_energy = state.ch_energy

    def counting_energy(phi, grid, pot):
        calls.append(None)
        return real_energy(phi, grid, pot)

    monkeypatch.setattr(state, "ch_energy", counting_energy)
    traj = solve_state(problem.init, problem.control, problem.solver,
                       problem.params, problem.nonlinearities,
                       problem.potential)
    assert len(calls) == 0
    rows = diagnostics(traj, problem.params, problem.potential)
    nt = problem.time_grid.nt
    assert len(calls) == 1

    weights = quadrature_weights(problem.grid)
    ell = problem.params.ell
    times = problem.time_grid.times
    energies = real_energy(traj.field_array("phi"), problem.grid,
                           problem.potential)
    assert len(rows) == nt + 1
    for k, row in enumerate(rows):
        theta = traj.field_array("theta")[k]
        phi = traj.field_array("phi")[k]
        assert len(row) == len(DIAGNOSTICS_HEADER)
        row = dict(zip(DIAGNOSTICS_HEADER, row))
        assert row["step"] == k
        assert row["time"] == float(times[k])
        assert row["mass_theta_ell_phi"] == float(
            np.dot(weights, theta + ell * phi))
        assert row["mass_phi"] == float(np.dot(weights, phi))
        assert row["energy"] == energies[k]
        assert row["linf_theta"] == float(np.max(np.abs(theta)))
        assert row["linf_phi"] == float(np.max(np.abs(phi)))


def test_linear_solve_count_three_per_step():
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.1, 7)
    init = _constant_init(grid, 0.1, 0.2, 0.5)
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = solve_state(init, u, SolverConfig(), ModelParams(),
                       default_nonlinearities(), default_potential())
    assert traj.linear_solve_count == 3 * time_grid.nt
    assert traj.operators.counter.count == 3 * time_grid.nt


def test_initial_mu_formula():
    rng = np.random.default_rng(37)
    grid = Grid(5, 1.0)  # the dense oracle's largest axis
    params = ModelParams(chi=0.3, lambda_big=0.7)
    pot = default_potential()
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape)),
        phi0=Field(grid, rng.normal(size=grid.shape)),
        sigma0=Field(grid, rng.normal(size=grid.shape)),
    )
    # Each row summed in column order, as a CSR product sums it; a BLAS
    # product may group the terms otherwise and round one ulp apart.
    lap = dense_laplacian(grid.n, grid.spacing)
    expected = (-(lap * init.phi0.flat).sum(axis=1)
                + pot.f(init.phi0.flat)
                - 0.3 * init.sigma0.flat
                - 0.7 * init.theta0.flat)
    mu0 = initial_mu(init, params, pot)
    assert np.allclose(mu0.flat, expected, rtol=0.0, atol=1e-14)


def test_solver_error_carries_step_index():
    # A NaN gate H fails the phase solve of step 0. A NaN K makes only the
    # explicit nutrient decay NaN, which the phase and heat solves do not
    # read, so the nutrient solve receives a NaN right-hand side.
    def nan(s):
        return np.full_like(np.asarray(s, dtype=float), np.nan)

    grid = Grid(5, 1.0)
    init = _constant_init(grid, 0.0, 0.5, 0.5)
    u = SpaceTimeField.zeros(TimeGrid(0.1, 2), grid)
    for field, block, what in (
            ("H_gate", "phase", "received non-finite right-hand side"),
            ("K_temp", "nutrient", "received non-finite right-hand side")):
        broken = dataclasses.replace(default_nonlinearities(), **{field: nan})
        with pytest.raises(SolverError) as excinfo:
            solve_state(init, u, SolverConfig(), ModelParams(lambda_p=1.0),
                        broken, default_potential())
        assert excinfo.value.step == 0
        assert excinfo.value.block == block
        assert excinfo.value.sweep == "forward"
        assert str(excinfo.value) == (
            f"{block} solve at step 0 {what} in the forward sweep")


def test_solve_state_validates_dt_and_grid():
    grid = Grid(5, 1.0)
    other = Grid(7, 1.0)
    init = _constant_init(grid, 0.0, 0.5, 0.5)
    args = (SolverConfig(), ModelParams(), default_nonlinearities(),
            default_potential())
    with pytest.raises(ConfigurationError, match="positive"):
        solve_state(init, SpaceTimeField.zeros(TimeGrid(0.0, 1), grid),
                    *args)
    with pytest.raises(ConfigurationError, match="grid"):
        solve_state(init, SpaceTimeField.zeros(TimeGrid(0.1, 1), other),
                    *args)


def _sigma_b_case(sigma_b_steps):
    """5-node run over 3 steps with a space-time far-field supply."""
    rng = np.random.default_rng(47)
    grid = Grid(5, 1.0)
    time_grid = TimeGrid(0.3, 3)
    supply_grid = TimeGrid(0.3, sigma_b_steps)
    sigma_b = SpaceTimeField(
        supply_grid, grid,
        rng.uniform(0.5, 1.5, size=(sigma_b_steps + 1,) + grid.shape))
    params = desk_params(lambda_b=0.8, sigma_b=sigma_b)
    init = InitialData(
        theta0=Field(grid, rng.normal(size=grid.shape) * 0.1),
        phi0=Field(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        sigma0=Field(grid, rng.uniform(0.2, 0.8, size=grid.shape)),
    )
    u = SpaceTimeField(time_grid, grid,
                       rng.normal(size=(4,) + grid.shape) * 0.3)
    return init, u, params


@pytest.mark.parametrize("sigma_b_steps", [3, 6])
def test_space_time_sigma_b_matches_dense_oracle(sigma_b_steps):
    # The supply may live on a finer time grid than the run; both paths
    # must sample it at the start time of each step.
    init, u, params = _sigma_b_case(sigma_b_steps)
    nl = default_nonlinearities()
    pot = default_potential()
    traj = solve_state(init, u, SolverConfig(), params, nl, pot)
    oracle = dense_oracle_solve(init, u, params, nl, pot)
    for name in ("theta", "phi", "mu", "sigma"):
        ours = traj.field_array(name)
        theirs = oracle.field_array(name)
        scale = 1.0 + np.max(np.abs(theirs))
        assert np.max(np.abs(ours - theirs)) / scale <= 1e-10, name


def test_lipschitz_ratio_stable_across_scales():
    rng = np.random.default_rng(41)
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.3, 15)
    params = desk_params()
    init = InitialData(
        theta0=_smooth_field(grid, rng, 0.1),
        phi0=_smooth_field(grid, rng, 0.4),
        sigma0=_smooth_field(grid, rng, 0.2, offset=0.6),
    )
    base = SpaceTimeField.zeros(time_grid, grid)
    bump = rng.normal(size=(time_grid.nt + 1, grid.num_nodes))
    bump[-1] = 0.0
    nl = default_nonlinearities()
    pot = default_potential()
    base_traj = solve_state(init, base, SolverConfig(), params, nl, pot)
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        other = SpaceTimeField(time_grid, grid, eps * bump)
        traj = solve_state(init, other, SolverConfig(), params, nl, pot)
        control_distance = l2q_norm(base - other)
        assert control_distance > 0.0
        ratios.append(trajectory_distance_y(base_traj, traj)
                      / control_distance)
    ratios = np.asarray(ratios)
    assert np.max(ratios) / np.min(ratios) <= 1.05


def test_lipschitz_ratio_constant_in_fully_linear_regime():
    # Turning off every nonlinearity makes the control-to-state map
    # linear, so the ratio must not depend on the perturbation size.
    rng = np.random.default_rng(43)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 10)
    params = ModelParams(ell=0.5, lambda_big=0.0, chi=0.0, tau=0.5)
    init = _constant_init(grid, 0.0, 0.0, 0.0)
    base = SpaceTimeField.zeros(time_grid, grid)
    bump = rng.normal(size=(time_grid.nt + 1, grid.num_nodes))
    bump[-1] = 0.0
    pot = zero_potential()
    nl = default_nonlinearities()
    base_traj = solve_state(init, base, SolverConfig(), params, nl, pot)
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        other = SpaceTimeField(time_grid, grid, eps * bump)
        traj = solve_state(init, other, SolverConfig(), params, nl, pot)
        ratios.append(trajectory_distance_y(base_traj, traj)
                      / l2q_norm(base - other))
    assert np.max(ratios) - np.min(ratios) <= 1e-8 * ratios[0]


def test_trajectory_distance_is_a_metric_sample():
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.1, 5)
    init = _constant_init(grid, 0.0, 0.5, 0.5)
    u = SpaceTimeField.zeros(time_grid, grid)
    traj = solve_state(init, u, SolverConfig(), ModelParams(),
                       default_nonlinearities(), default_potential())
    assert trajectory_distance_y(traj, traj) == 0.0


def _scaled_desk_run(tmp_path, n, nt):
    """desk.cfg with only [grid] n (and length, in 2D) and [solver] nt
    changed, solved forward at the default solver settings."""
    parser = configparser.ConfigParser(interpolation=None,
                                       delimiters=("=",))
    parser.optionxform = str
    parser.read(DESK_CFG, encoding="utf-8")
    for section in ("cost", "admissible", "optimizer", "verify"):
        parser.remove_section(section)
    parser["grid"]["n"] = n
    if "," in n:
        parser["grid"]["length"] = "2.0,2.0"
    parser["solver"]["nt"] = str(nt)
    path = tmp_path / "scaled.cfg"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    cfg = load_config(str(path))
    assert cfg.solver == SolverConfig()
    traj = solve_state(cfg.init, cfg.control, cfg.solver, cfg.params,
                       cfg.nonlinearities, cfg.potential)
    return cfg, traj, quadrature_weights(cfg.grid)


def _rate_gap(rate, expected):
    # The conservation suite's per-step measure, held to its 1e-10.
    return abs(rate - expected) / max(1.0, abs(expected), abs(rate))


_LADDER = [("65", 5), ("257", 5), ("1025", 5), ("33,33", 3), ("65,65", 3)]


@pytest.mark.parametrize("n, nt", _LADDER)
def test_default_settings_run_at_every_grid_size(tmp_path, n, nt):
    # The default settings run at every grid size: the direct solves need
    # no tolerance, and on these 2D grids the nutrient's conjugate
    # gradients meet the default linear_tol of 1e-12.
    cfg, traj, w = _scaled_desk_run(tmp_path, n, nt)
    ell = cfg.params.ell
    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    u = cfg.control.flat_slices
    for k in range(nt):
        mass_rate = ((theta[k + 1] + ell * phi[k + 1]
                      - theta[k] - ell * phi[k]) @ w) / cfg.time_grid.dt
        assert _rate_gap(mass_rate, u[k] @ w) <= 1e-10


# Each step restores the exact phase mass as a constant. Without that, the
# rounding of the phase block's factor solves, which grows like h^-2, moves
# the mass rate by 1.3e-14 to 8.9e-14 on this ladder, inside the suite's
# 1e-10 but not the 1e-14 held here; with it the gap reads about 1e-15.
@pytest.mark.parametrize("n, nt", _LADDER)
def test_phase_mass_law_at_every_grid_size(tmp_path, n, nt):
    cfg, traj, w = _scaled_desk_run(tmp_path, n, nt)
    params = cfg.params
    theta = traj.field_array("theta")
    phi = traj.field_array("phi")
    sigma = traj.field_array("sigma")
    for k in range(nt):
        source = (params.lambda_p * sigma[k] - params.lambda_a
                  - params.lambda_e * theta[k]) * cfg.nonlinearities.H_gate(
                      phi[k])
        phase_rate = ((phi[k + 1] - phi[k]) @ w) / cfg.time_grid.dt
        assert _rate_gap(phase_rate, source @ w) <= 1e-14
