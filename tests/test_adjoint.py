"""Backward sweep: terminal data, transpose identity, reduced gradient."""

from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import desk_params, problem_of, smooth_init

from caginalp_control import (
    AdjointSources,
    ConfigurationError,
    CostSpec,
    Field,
    Grid,
    ModelParams,
    SolverConfig,
    SolverError,
    SpaceTimeField,
    TimeGrid,
    cost_sources,
    default_nonlinearities,
    default_potential,
    evaluate_cost,
    laplacian_matrix,
    quadrature_weights,
    reduced_gradient,
    solve_adjoint_with_sources,
    solve_linearized,
    solve_state,
)
from caginalp_control.oracle import oracle_adjoint


def _random_control(time_grid, grid, rng, scale=1.0):
    values = rng.normal(size=(time_grid.nt + 1,) + grid.shape) * scale
    values[-1] = 0.0
    return SpaceTimeField(time_grid, grid, values)


def _base_setup(n, nt, rng, t_final=0.2, params=None):
    """Grids and the state trajectory of a random smooth problem."""
    grid = Grid(n, 1.0)
    time_grid = TimeGrid(t_final, nt)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.2)
    base = solve_state(init, u, SolverConfig(), params or desk_params(),
                       default_nonlinearities(), default_potential())
    return grid, time_grid, base


def _control_pair(h, z_levels, dt, w):
    nt = h.time_grid.nt
    return dt * float(np.sum((h.flat_slices[:nt] * z_levels[:nt]) @ w))


def _source_pair(sources, lin, dt, w):
    value = 0.0
    for src, name in ((sources.s_theta, "zeta"), (sources.s_phi, "xi"),
                      (sources.s_eta, "eta"), (sources.s_sigma, "rho")):
        arr = lin.field_array(name)
        value += dt * float(np.sum((src[1:] * arr[1:]) @ w))
    value += float((sources.g_z * lin.field_array("zeta")[-1]) @ w)
    value += float((sources.g_w * lin.field_array("xi")[-1]) @ w)
    value += float((sources.g_r * lin.field_array("rho")[-1]) @ w)
    return value


def _cost_adjoint(base, cost):
    return solve_adjoint_with_sources(base, cost_sources(base, cost))


def _terminal_data(cost, params, grid=None, rng=None):
    """Index nt of the cost adjoint on a two-step base run, with the
    terminal base state."""
    rng = rng if rng is not None else np.random.default_rng(3)
    grid = grid if grid is not None else Grid(9, 1.0)
    time_grid = TimeGrid(0.05, 2)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.2)
    base = solve_state(init, u, SolverConfig(), params,
                       default_nonlinearities(), default_potential())
    adj = _cost_adjoint(base, cost)
    nt = time_grid.nt
    terminal = {name: adj.field_array(name)[nt]
                for name in ("z", "p", "q", "r")}
    return terminal, base.field("theta", nt), base.field("phi", nt)


def test_final_conditions_zero_weights_vanish():
    cost = CostSpec(b1=1.0, b2=0.0, b3=1.0, b4=0.0, b5=1.0)
    adj_t, _, _ = _terminal_data(cost, desk_params())
    for name in ("z", "p", "q", "r"):
        assert np.all(adj_t[name] == 0.0), name


def test_final_conditions_perfect_tracking_vanish():
    params = desk_params()
    _, theta_t, phi_t = _terminal_data(CostSpec(), params)
    cost = CostSpec(b1=0.0, b2=1.0, b3=0.0, b4=1.0, b5=1.0,
                    theta_omega=theta_t, phi_omega=phi_t)
    adj_t, _, _ = _terminal_data(cost, params)
    for name in ("z", "p", "q", "r"):
        assert np.all(adj_t[name] == 0.0), name


def test_final_conditions_constant_residual():
    # With theta_T - theta_omega = c and b4 = 0, the terminal split gives
    # z = b2*c, v = -ell*b2*c; constants lie in the Laplacian kernel, so p
    # equals v and q vanishes regardless of tau.
    grid = Grid(9, 2.0)
    c = 0.7
    for tau in (0.0, 1.0):
        params = ModelParams(ell=0.5, tau=tau)
        _, theta_t, _ = _terminal_data(CostSpec(), params, grid)
        cost = CostSpec(b1=0.0, b2=2.0, b3=0.0, b4=0.0, b5=1.0,
                        theta_omega=Field(grid, theta_t.values - c))
        adj_t, _, _ = _terminal_data(cost, params, grid)
        assert np.allclose(adj_t["z"], 2.0 * c, atol=1e-14)
        assert np.allclose(adj_t["p"], -0.5 * 2.0 * c, atol=1e-12)
        assert np.allclose(adj_t["q"], 0.0, atol=1e-11)
        assert np.all(adj_t["r"] == 0.0)


def test_final_conditions_tau_zero_is_direct_copy():
    params = ModelParams(ell=0.5, tau=0.0)
    cost = CostSpec(b1=0.0, b2=0.3, b3=0.0, b4=0.9, b5=1.0)
    adj_t, theta_t, phi_t = _terminal_data(cost, params,
                                           rng=np.random.default_rng(7))
    g_z = 0.3 * theta_t.flat
    g_w = 0.9 * phi_t.flat
    assert np.allclose(adj_t["z"], g_z, atol=1e-15)
    assert np.allclose(adj_t["p"], g_w - 0.5 * g_z, atol=1e-15)


def test_zero_cost_gives_zero_adjoint():
    rng = np.random.default_rng(11)
    _, _, base = _base_setup(9, 8, rng)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    adj = _cost_adjoint(base, cost)
    for name in ("z", "p", "q", "r"):
        assert np.all(adj.field_array(name) == 0.0), name


def test_failure_names_the_adjoint_sweep():
    rng = np.random.default_rng(11)
    grid, time_grid, base = _base_setup(9, 8, rng)
    s_theta = np.zeros((time_grid.nt + 1, grid.num_nodes))
    s_theta[5] = np.nan
    sources = AdjointSources(time_grid, grid, s_theta=s_theta)
    with pytest.raises(SolverError) as excinfo:
        solve_adjoint_with_sources(base, sources)
    assert excinfo.value.step == 4
    assert excinfo.value.sweep == "adjoint"
    assert str(excinfo.value).endswith("in the adjoint sweep")


def test_q_equals_minus_laplacian_p_for_cost_sweeps():
    rng = np.random.default_rng(13)
    grid, time_grid, base = _base_setup(9, 8, rng)
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    adj = _cost_adjoint(base, cost)
    lap = laplacian_matrix(grid)
    p = adj.field_array("p")
    q = adj.field_array("q")
    for level in range(time_grid.nt + 1):
        expected = -(lap @ p[level])
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(q[level] - expected)) / scale <= 1e-12


def test_adjoint_is_linear_in_cost_weights():
    rng = np.random.default_rng(17)
    _, _, base = _base_setup(9, 6, rng)
    cost = CostSpec(b1=0.8, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    doubled = CostSpec(b1=1.6, b2=1.2, b3=1.8, b4=1.0, b5=0.5)
    adj = _cost_adjoint(base, cost)
    adj2 = _cost_adjoint(base, doubled)
    for name in ("z", "p", "q", "r"):
        lhs = adj2.field_array(name)
        rhs = 2.0 * adj.field_array(name)
        scale = 1.0 + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-12, name


def test_matches_dense_transpose_on_tiny_grid():
    rng = np.random.default_rng(19)
    grid, time_grid, base = _base_setup(4, 3, rng, t_final=0.3)
    nt = time_grid.nt
    total = grid.num_nodes
    sources = AdjointSources(
        time_grid, grid,
        s_theta=np.vstack([np.zeros(total),
                           rng.normal(size=(nt, total))]),
        s_phi=np.vstack([np.zeros(total),
                         rng.normal(size=(nt, total))]),
        s_eta=np.vstack([np.zeros(total),
                         rng.normal(size=(nt, total))]),
        s_sigma=np.vstack([np.zeros(total),
                           rng.normal(size=(nt, total))]),
        g_z=rng.normal(size=total),
        g_w=rng.normal(size=total),
        g_r=rng.normal(size=total),
    )
    adj = solve_adjoint_with_sources(base, sources)
    ops = base.operators
    dense = oracle_adjoint(base, ops.params, ops.nl, ops.pot, sources)
    # Every level, the terminal data at index nt included.
    for name in ("z", "p", "q", "r"):
        ours = adj.field_array(name)
        theirs = dense.field_array(name)
        scale = 1.0 + np.max(np.abs(theirs))
        assert np.max(np.abs(ours - theirs)) / scale <= 1e-10, name


def test_dot_product_identity_random_sources():
    rng = np.random.default_rng(23)
    grid, time_grid, base = _base_setup(9, 8, rng)
    nt = time_grid.nt
    total = grid.num_nodes
    dt = time_grid.dt
    w = quadrature_weights(grid).ravel()
    worst = 0.0
    for trial in range(10):
        sub = np.random.default_rng([23, trial])
        sources = AdjointSources(
            time_grid, grid,
            s_theta=np.vstack([np.zeros(total),
                               sub.normal(size=(nt, total))]),
            s_phi=np.vstack([np.zeros(total),
                             sub.normal(size=(nt, total))]),
            s_eta=np.vstack([np.zeros(total),
                             sub.normal(size=(nt, total))]),
            s_sigma=np.vstack([np.zeros(total),
                               sub.normal(size=(nt, total))]),
            g_z=sub.normal(size=total),
            g_w=sub.normal(size=total),
            g_r=sub.normal(size=total),
        )
        h = _random_control(time_grid, grid, sub)
        adj = solve_adjoint_with_sources(base, sources)
        lin = solve_linearized(base, h)
        lhs = _control_pair(h, adj.field_array("z"), dt, w)
        rhs = _source_pair(sources, lin, dt, w)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst <= 1e-10


def test_duality_identity_for_tracking_cost():
    # The adjoint built from the cost must reproduce the Gateaux derivative
    # of the tracking part of J, written directly from the residuals.
    rng = np.random.default_rng(29)
    grid, time_grid, base = _base_setup(9, 8, rng)
    nt = time_grid.nt
    dt = time_grid.dt
    w = quadrature_weights(grid).ravel()
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    adj = _cost_adjoint(base, cost)
    theta = base.field_array("theta")
    phi = base.field_array("phi")
    worst = 0.0
    for trial in range(10):
        sub = np.random.default_rng([29, trial])
        h = _random_control(time_grid, grid, sub)
        lin = solve_linearized(base, h)
        zeta = lin.field_array("zeta")
        xi = lin.field_array("xi")
        rhs = 0.0
        for k in range(1, nt):
            rhs += dt * cost.b1 * float((theta[k] * zeta[k]) @ w)
            rhs += dt * cost.b3 * float((phi[k] * xi[k]) @ w)
        rhs += cost.b2 * float((theta[nt] * zeta[nt]) @ w)
        rhs += cost.b4 * float((phi[nt] * xi[nt]) @ w)
        lhs = _control_pair(h, adj.field_array("z"), dt, w)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst <= 1e-9


def test_gradient_is_control_for_pure_regularization():
    rng = np.random.default_rng(31)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 8)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.4)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=1.0)
    result = reduced_gradient(
        problem_of(init, u, desk_params(), cost=cost), u)
    assert np.array_equal(result.gradient.values, u.values)


def test_gradient_scales_with_regularization_weight():
    rng = np.random.default_rng(37)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 8)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.4)
    cost = CostSpec(b1=0.0, b2=0.0, b3=0.0, b4=0.0, b5=2.5)
    result = reduced_gradient(
        problem_of(init, u, desk_params(), cost=cost), u)
    assert np.allclose(result.gradient.values, 2.5 * u.values,
                       rtol=0.0, atol=1e-15)


def test_gradient_matches_central_difference():
    rng = np.random.default_rng(41)
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.3, 15)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.2)
    params = desk_params()
    nl = default_nonlinearities()
    pot = default_potential()
    cfg = SolverConfig()
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    result = reduced_gradient(
        problem_of(init, u, params, nl, pot, cost=cost, solver=cfg), u)
    dt = time_grid.dt
    w = quadrature_weights(grid).ravel()
    eps = 1e-5
    worst = 0.0
    from caginalp_control import l2q_norm

    for trial in range(5):
        sub = np.random.default_rng([41, trial])
        h = _random_control(time_grid, grid, sub)
        h = (128.0 / l2q_norm(h)) * h
        plus = solve_state(init, u + eps * h, cfg, params, nl, pot)
        minus = solve_state(init, u - eps * h, cfg, params, nl, pot)
        fd = (evaluate_cost(plus, u + eps * h, cost)
              - evaluate_cost(minus, u - eps * h, cost)) / (2.0 * eps)
        paired = _control_pair(h, result.gradient.flat_slices, dt, w)
        worst = max(worst, abs(fd - paired) / max(abs(fd), abs(paired)))
    assert worst <= 1e-6


def test_gradient_result_reports_cost_of_the_sweep():
    rng = np.random.default_rng(43)
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 6)
    init = smooth_init(grid, rng)
    u = _random_control(time_grid, grid, rng, 0.3)
    params = desk_params()
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    result = reduced_gradient(problem_of(init, u, params, cost=cost), u)
    direct = evaluate_cost(result.state, u, cost)
    assert result.cost_value == direct


@pytest.mark.parametrize("tau, extra", [(0.5, 1), (0.0, 0)])
def test_adjoint_sweep_counts_terminal_solve(factorizations, tau, extra):
    # With tau > 0 the terminal data needs one (I - tau*Lap) solve on top of
    # the three block solves of every step, and it goes into the tally. The
    # terminal operator is factorized by the first adjoint sweep around a
    # base and kept, so a second sweep tallies the same solves and
    # factorizes nothing.
    rng = np.random.default_rng(53)
    _, time_grid, base = _base_setup(
        9, 5, rng, params=replace(desk_params(), tau=tau))
    assert base.operators.params.tau == tau
    assert len(factorizations) == 3
    cost = CostSpec(b1=1.0, b2=0.6, b3=0.9, b4=0.5, b5=0.5)
    first = _cost_adjoint(base, cost)
    assert first.linear_solve_count == 3 * time_grid.nt + extra
    assert len(factorizations) == 3 + extra
    second = _cost_adjoint(base, cost)
    assert second.linear_solve_count == 3 * time_grid.nt + extra
    assert len(factorizations) == 3 + extra
    for name in ("z", "p", "q", "r"):
        assert np.array_equal(second.field_array(name),
                              first.field_array(name)), name


def test_running_target_on_another_horizon_is_rejected(desk_problem):
    # Same grid and step count as the desk run, but five times its horizon.
    p = desk_problem
    base = solve_state(p.init, p.control, p.solver, p.params,
                       p.nonlinearities, p.potential)
    assert base.time_grid == TimeGrid(0.5, 50)
    target = SpaceTimeField.zeros(TimeGrid(2.5, 50), p.grid)
    cost = CostSpec(b1=1.0, theta_q=target)
    with pytest.raises(ConfigurationError, match="tracking target"):
        evaluate_cost(base, p.control, cost)
    with pytest.raises(ConfigurationError, match="tracking target"):
        cost_sources(base, cost)


def _desk_base(problem, nt, wrap):
    """Forward sweep of the desk problem over nt steps at the desk time
    step, with every callable of its gates and potential replaced by
    ``wrap(name, fn)``."""
    def wrapped(instance):
        return replace(instance, **{
            f.name: wrap(f.name, getattr(instance, f.name))
            for f in fields(instance) if callable(getattr(instance, f.name))})
    time_grid = TimeGrid(problem.time_grid.dt * nt, nt)
    return solve_state(problem.init,
                       SpaceTimeField.constant(time_grid, problem.grid, 0.3),
                       problem.solver, problem.params,
                       wrapped(problem.nonlinearities),
                       wrapped(problem.potential))


def _sweeps_around(base):
    """One linearized and one adjoint sweep around ``base``."""
    grid, time_grid = base.grid, base.time_grid
    lin = solve_linearized(base, SpaceTimeField.constant(time_grid, grid, 0.1))
    adj = solve_adjoint_with_sources(base, AdjointSources(
        time_grid, grid, s_theta=np.ones((time_grid.nt + 1, grid.num_nodes)),
        g_w=np.ones(grid.num_nodes)))
    return lin, adj


def test_sweeps_evaluate_the_model_once_per_sweep(desk_problem):
    # The base's coefficients are evaluated once per sweep on all its
    # levels, so the number of model calls does not grow with nt.
    def model_calls(nt):
        calls = Counter()

        def counted(name, fn):
            def count(s):
                calls[name] += 1
                return fn(s)
            return count

        base = _desk_base(desk_problem, nt, counted)
        calls.clear()
        _sweeps_around(base)
        return calls

    first = model_calls(5)
    assert first and first == model_calls(10)


def test_sweeps_give_the_model_flat_arrays(desk_problem):
    # Custom model functions see 1-D arrays, as in validate and the
    # forward step, even though the sweeps evaluate all levels at once.
    def flat_only(name, fn):
        def check(s):
            if np.ndim(s) != 1:
                raise ValueError(f"{name} got shape {np.shape(s)}")
            return fn(s)
        return check

    lin, adj = _sweeps_around(_desk_base(desk_problem, 5, flat_only))
    for sweep, names in ((lin, ("zeta", "xi", "eta", "rho")),
                         (adj, ("z", "p", "q", "r"))):
        for name in names:
            assert np.isfinite(sweep.field_array(name)).all(), name
