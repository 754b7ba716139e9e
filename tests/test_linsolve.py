"""Inner solves: the shifted nutrient solve, the phase factor pair, the band
or sparse factor each operator gets, factorization counts, failures, and the
sparse products of every sweep."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase
from scipy.sparse.linalg import spsolve
from conftest import desk_params

import caginalp_control.linsolve as linsolve
from caginalp_control import (
    AdjointSources,
    ConfigurationError,
    Field,
    Grid,
    InitialData,
    SolverConfig,
    SolverError,
    SpaceTimeField,
    TimeGrid,
    default_nonlinearities,
    default_potential,
    laplacian_matrix,
    quadrature_weights,
    solve_adjoint_with_sources,
    solve_linearized,
    solve_state,
)
from caginalp_control.linsolve import FactorizedOperator
from caginalp_control.state import StepOperators


def _nutrient_case(grid, dt, params, seed):
    """Operators, a decay drawn across the declared range and a rhs."""
    nl = default_nonlinearities()
    ops = StepOperators(grid, dt, SolverConfig(), params, nl,
                        default_potential())
    rng = np.random.default_rng(seed)
    top = (params.lambda_b + params.lambda_c * nl.h_star
           + params.lambda_d * nl.k_star)
    decay = rng.uniform(params.lambda_b, top, size=grid.num_nodes)
    rhs = rng.normal(size=grid.num_nodes)
    matrix = (sp.identity(grid.num_nodes) / dt - laplacian_matrix(grid)
              + sp.diags_array(decay))
    return ops, decay, rhs, spsolve(matrix.tocsc(), rhs)


def _relative_error(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("grid", [
    Grid(33, 2.0),
    Grid(1025, 2.0),
    Grid((33, 33), (2.0, 2.0)),
], ids=["1d-33", "1d-1025", "2d-33x33"])
def test_shifted_nutrient_solve_matches_spsolve(grid):
    ops, decay, rhs, reference = _nutrient_case(grid, 0.01, desk_params(),
                                                seed=11)
    cold = ops.solve_nutrient(rhs, decay)
    assert _relative_error(cold, reference) <= 1e-10
    warm = ops.solve_nutrient(rhs, decay, guess=reference + 1e-3)
    assert _relative_error(warm, reference) <= 1e-10


def test_shifted_nutrient_solve_converges_when_decay_is_stiff():
    # dt * (lambda_C + lambda_D) = 30: the decay dominates I/dt, so the
    # reference shift no longer makes the preconditioner nearly exact.
    params = desk_params(lambda_c=40.0, lambda_d=20.0)
    grid = Grid(129, 2.0)
    ops, decay, rhs, reference = _nutrient_case(grid, 0.5, params, seed=13)
    assert ops.dt * (params.lambda_c + params.lambda_d) >= 20.0
    x = ops.solve_nutrient(rhs, decay)
    assert _relative_error(x, reference) <= 1e-10


def test_shifted_sparse_solve_converges_when_decay_is_stiff():
    # The same stiff decay on a 2D grid, where the shifted solve runs
    # conjugate gradients preconditioned by the reference factor.
    params = desk_params(lambda_c=40.0, lambda_d=20.0)
    grid = Grid((17, 17), (2.0, 2.0))
    ops, decay, rhs, reference = _nutrient_case(grid, 0.5, params, seed=13)
    assert ops.nutrient._band is None
    x = ops.solve_nutrient(rhs, decay)
    assert _relative_error(x, reference) <= 1e-10


def test_decay_reference_is_midpoint_of_declared_range():
    params = desk_params()
    ops = StepOperators(Grid(9, 1.0), 0.1, SolverConfig(), params,
                        default_nonlinearities(), default_potential())
    assert ops.decay_ref == pytest.approx(0.3 + 0.5 * (0.4 + 0.2))


def _desk_init(grid):
    x = grid.coords(0)
    cosx = np.cos(np.pi * x / grid.length[0])
    return InitialData(theta0=Field(grid, 0.05 * cosx),
                       phi0=Field(grid, 0.2 + 0.5 * cosx),
                       sigma0=Field(grid, 0.8 + 0.1 * cosx))


def _desk_base(nt, **overrides):
    grid = Grid(17, 2.0)
    time_grid = TimeGrid(0.1 * nt, nt)
    u = SpaceTimeField.zeros(time_grid, grid)
    return solve_state(_desk_init(grid), u, SolverConfig(),
                       desk_params(**overrides), default_nonlinearities(),
                       default_potential())


@pytest.mark.parametrize("nt", [2, 9])
def test_forward_sweep_factorizes_three_times(factorizations, nt):
    traj = _desk_base(nt)
    assert len(factorizations) == 3
    assert traj.linear_solve_count == 3 * nt


@pytest.mark.parametrize("tau", [0.5, 0.0])
def test_sweeps_around_a_base_reuse_its_factorizations(factorizations, tau):
    # Linearized and adjoint sweeps solve on the operators of their base;
    # only the adjoint's terminal operator I - tau*Lap is new, factorized
    # once per base when tau > 0.
    nt = 4
    base = _desk_base(nt, tau=tau)
    assert len(factorizations) == 3
    grid, time_grid = base.grid, base.time_grid
    h = SpaceTimeField.constant(time_grid, grid, 0.3)
    sources = AdjointSources(time_grid, grid,
                             g_w=np.ones(grid.num_nodes))
    for _ in range(2):
        lin = solve_linearized(base, h)
        adj = solve_adjoint_with_sources(base, sources)
        assert lin.linear_solve_count == 3 * nt
        assert adj.linear_solve_count == 3 * nt + (tau > 0.0)
    assert len(factorizations) == 3 + (tau > 0.0)


def _constant_init(grid):
    return InitialData(theta0=Field.constant(grid, 0.05),
                       phi0=Field.constant(grid, 0.2),
                       sigma0=Field.constant(grid, 0.8))


@pytest.mark.parametrize("grid, sparse_lus", [
    (Grid(33, 2.0), 0),
    (Grid((33, 33), (2.0, 2.0)), 4),
], ids=["1d-33", "2d-33x33"])
def test_only_operators_too_wide_for_a_band_use_splu(splu_calls, grid,
                                                     sparse_lus):
    # Every 1D factor rI - Lap is tridiagonal; a 2D band is about sqrt(N)
    # wide. In 2D the heat and nutrient operators take one sparse LU each,
    # and the Schur operator, with real roots on desk data, two.
    time_grid = TimeGrid(0.02, 2)
    solve_state(_constant_init(grid), SpaceTimeField.zeros(time_grid, grid),
                SolverConfig(), desk_params(), default_nonlinearities(),
                default_potential())
    assert len(splu_calls) == sparse_lus


def _split_tridiagonal():
    """A tridiagonal matrix whose leading 2x2 block is singular."""
    return sp.csr_array(np.array([[1.0, 1.0, 0.0, 0.0],
                                  [1.0, 1.0, 0.0, 0.0],
                                  [0.0, 0.0, 2.0, 1.0],
                                  [0.0, 0.0, 1.0, 2.0]]))


def _split_corners():
    """A singular matrix coupling its first and last rows, so its band is
    too wide for band storage."""
    dense = np.eye(6)
    dense[np.ix_([0, 5], [0, 5])] = 1.0
    return sp.csr_array(dense)


def _operator_of(matrix, **kwargs):
    """The first-degree operator 0 I - (-matrix), which is the matrix."""
    return FactorizedOperator(-matrix, 0.0, linear_tol=1e-12, **kwargs)


@pytest.mark.parametrize("matrix", [_split_tridiagonal(), _split_corners()],
                         ids=["band", "sparse"])
def test_singular_factor_raises_solver_error(matrix):
    with pytest.raises(SolverError) as excinfo:
        _operator_of(matrix, label="heat")
    error = excinfo.value
    assert error.block == "heat"
    assert error.step is None
    assert "singular" in str(error)


def test_singular_shifted_band_factor_names_block_and_step():
    matrix = _split_tridiagonal() + sp.identity(4, format="csr")
    operator = _operator_of(matrix, label="nutrient")
    with pytest.raises(SolverError) as excinfo:
        operator.solve(np.ones(4), step=7, shift=np.array([-1.0, -1.0, 0.0,
                                                           0.0]))
    error = excinfo.value
    assert error.block == "nutrient"
    assert error.step == 7
    assert str(error).startswith("nutrient solve at step 7")
    assert "singular" in str(error)


@pytest.mark.parametrize("cg_iters, shift_of", [
    # One back-substitution, the budget of a cold start under a cap of no
    # iterations, cannot absorb a shift far from the preconditioner's.
    (0, lambda rng, n: rng.uniform(0.0, 1e3, size=n)),
    # A + diag(-150) is indefinite, and constants lie in its negative
    # eigenspace, so the first search direction has negative curvature.
    (50, lambda rng, n: np.full(n, -150.0)),
], ids=["budget", "curvature"])
def test_conjugate_gradient_stall_names_block_and_step(monkeypatch, cg_iters,
                                                       shift_of):
    monkeypatch.setattr(linsolve, "_CG_ITERS", cg_iters)
    grid = Grid((9, 9), (2.0, 2.0))
    operator = FactorizedOperator(
        laplacian_matrix(grid), 1.0 / 0.01, linear_tol=1e-12,
        weights=quadrature_weights(grid).ravel(), label="nutrient")
    assert operator._band is None
    shift = shift_of(np.random.default_rng(5), grid.num_nodes)
    with pytest.raises(SolverError) as excinfo:
        operator.solve(np.ones(grid.num_nodes), step=3, shift=shift)
    error = excinfo.value
    assert error.block == "nutrient"
    assert error.step == 3
    assert str(error).startswith("nutrient solve at step 3 stalled")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("magnitude", [1e155, 1e-170])
@pytest.mark.parametrize("grid", [Grid(33, 2.0), Grid((9, 9), (2.0, 2.0))],
                         ids=["1d-33", "2d-9x9"])
def test_acceptance_holds_for_right_hand_sides_of_any_magnitude(grid,
                                                                magnitude):
    # ||b||_2 of a finite b can overflow or underflow although every entry
    # is representable; neither may make a 1%-off guess look converged,
    # nor a nonzero b look like zero.
    matrix = (sp.identity(grid.num_nodes) / 0.01
              - laplacian_matrix(grid)).tocsc()
    operator = FactorizedOperator(laplacian_matrix(grid), 1.0 / 0.01,
                                  linear_tol=1e-12)
    rhs = np.full(grid.num_nodes, magnitude)
    reference = spsolve(matrix, np.ones(grid.num_nodes)) * magnitude
    for guess in (None, reference * (1.0 + 1e-2)):
        x = operator.solve(rhs, guess=guess)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(
            np.abs(reference))


@pytest.mark.parametrize("sweep, block", [
    ("forward", "phase"), ("forward", "heat"), ("forward", "nutrient"),
    ("linearized", "phase"), ("linearized", "heat"),
    ("linearized", "nutrient"),
    ("adjoint", "phase"), ("adjoint", "heat"), ("adjoint", "nutrient"),
    ("adjoint", "terminal"),
])
def test_non_finite_right_hand_side_names_sweep_block_and_step(
        monkeypatch, sweep, block):
    # The terminal solve precedes every step of the adjoint sweep.
    poisoned_step = None if block == "terminal" else 1
    real_solve = FactorizedOperator.solve

    def poisoned(self, rhs, step=None, **kwargs):
        if self.label == block and step == poisoned_step:
            rhs = np.full_like(rhs, np.nan)
        return real_solve(self, rhs, step=step, **kwargs)

    base = _desk_base(3)
    grid, time_grid = base.grid, base.time_grid
    sweeps = {
        "forward": lambda: _desk_base(3),
        "linearized": lambda: solve_linearized(
            base, SpaceTimeField.constant(time_grid, grid, 0.3)),
        "adjoint": lambda: solve_adjoint_with_sources(base, AdjointSources(
            time_grid, grid, g_w=np.ones(grid.num_nodes))),
    }
    monkeypatch.setattr(FactorizedOperator, "solve", poisoned)
    with pytest.raises(SolverError) as excinfo:
        sweeps[sweep]()
    error = excinfo.value
    assert (error.sweep, error.block, error.step) == (sweep, block,
                                                      poisoned_step)
    assert str(error).startswith(f"{block} solve")
    assert "non-finite right-hand side" in str(error)
    assert str(error).endswith(f"in the {sweep} sweep")


# Desk data: a = 52 and 1/dt = 100, so the factor pair has the real roots
# 50 and 2. With tau = 0, a = 2 and the roots are 1 +- i sqrt(99).
@pytest.mark.parametrize("tau", [0.5, 0.0], ids=["real", "complex"])
@pytest.mark.parametrize("grid", [
    Grid(33, 2.0),
    Grid(65, 2.0),
    Grid((17, 17), (2.0, 2.0)),
    Grid((33, 33), (2.0, 2.0)),
], ids=["1d-33", "1d-65", "2d-17x17", "2d-33x33"])
def test_phase_factor_pair_solves_the_assembled_schur_operator(grid, tau):
    ops = StepOperators(grid, 0.01, SolverConfig(), desk_params(tau=tau),
                        default_nonlinearities(), default_potential())
    assert ops.ch_schur._paired == (tau == 0.0)
    lap = ops.lap
    schur = (sp.identity(grid.num_nodes) / ops.dt - ops.a * lap
             + lap @ lap).tocsc()
    rhs = np.random.default_rng(17).normal(size=grid.num_nodes)
    x = ops.ch_schur.solve(rhs)
    assert x.dtype == np.float64
    assert _relative_error(x, spsolve(schur, rhs)) <= 1e-12
    # The composed product agrees with the assembled one to rounding.
    scale = abs(schur).sum(axis=1).max() * np.max(np.abs(rhs))
    assert (np.max(np.abs(ops.ch_schur._apply(rhs) - schur @ rhs))
            <= 4.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("grid", [
    Grid(33, 2.0),
    Grid(1025, 2.0),
    Grid((5, 4), (2.0, 1.5)),
    Grid((33, 33), (2.0, 2.0)),
], ids=["1d-33", "1d-1025", "2d-5x4", "2d-33x33"])
def test_matvec_is_bit_equal_to_sparse_matmul(grid):
    ops = StepOperators(grid, 0.01, SolverConfig(), desk_params(),
                        default_nonlinearities(), default_potential())
    ops.solve_terminal(np.ones(grid.num_nodes))
    rng = np.random.default_rng(5)
    total = grid.num_nodes
    # Entries spread over sixteen decades, so that any change in summation
    # order would show in the last bits.
    x = rng.normal(size=total) * 10.0 ** rng.uniform(-8.0, 8.0, size=total)
    strided = np.repeat(x[:, None], 3, axis=1)[:, 1]
    assert not strided.flags.c_contiguous
    lap = ops.lap

    def composed(c0, c1=None):
        # c0 I - Lap, or (c0 I - c1 Lap) + Lap (Lap), by sparse matmuls.
        if c1 is None:
            return lambda v: c0 * v - lap @ v
        return lambda v: (c0 * v - c1 * (lap @ v)) + lap @ (lap @ v)

    inv_dt = 1.0 / ops.dt
    cases = [
        (lambda v: lap @ v, ops.apply_lap),
        (composed(inv_dt, ops.a), ops.ch_schur._apply),
        (composed(inv_dt), ops.heat._apply),
        (composed(inv_dt + ops.decay_ref), ops.nutrient._apply),
        (composed(1.0 / ops.params.tau), ops._terminal._apply),
    ]
    for product, apply in cases:
        for vector in (x, strided):
            assert np.array_equal(apply(vector), product(vector))


@pytest.mark.parametrize("sweep", ["linearized", "adjoint-with-sources"])
def test_sweeps_reject_a_base_without_operators(sweep):
    # A linearized trajectory carries no operators to sweep around.
    base = _desk_base(2)
    grid, time_grid = base.grid, base.time_grid
    lin = solve_linearized(base, SpaceTimeField.constant(time_grid, grid,
                                                         0.3))
    calls = {
        "linearized": lambda: solve_linearized(
            lin, SpaceTimeField.zeros(time_grid, grid)),
        "adjoint-with-sources": lambda: solve_adjoint_with_sources(
            lin, AdjointSources(time_grid, grid)),
    }
    with pytest.raises(ConfigurationError, match="solve_state"):
        calls[sweep]()


@pytest.fixture
def sparse_matmuls(monkeypatch):
    """Running count of scipy sparse ``@`` calls."""
    calls = [0]
    real = _spbase.__matmul__

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(_spbase, "__matmul__", counting)
    return calls


def _desk_sweep_matmuls(problem, nt, matmuls):
    """Sparse ``@`` calls of a forward, a linearized and an adjoint sweep on
    the desk model, at the desk time step over nt steps."""
    grid = problem.grid
    time_grid = TimeGrid(problem.time_grid.dt * nt, nt)
    counts = []

    def counted(sweep, *args):
        start = matmuls[0]
        result = sweep(*args)
        counts.append(matmuls[0] - start)
        return result

    base = counted(solve_state, problem.init,
                   SpaceTimeField.constant(time_grid, grid, 0.3),
                   problem.solver, problem.params, problem.nonlinearities,
                   problem.potential)
    counted(solve_linearized, base,
            SpaceTimeField.constant(time_grid, grid, 0.1))
    counted(solve_adjoint_with_sources, base, AdjointSources(
        time_grid, grid, s_theta=np.ones((nt + 1, grid.num_nodes)),
        g_w=np.ones(grid.num_nodes)))
    return counts


def test_sweeps_make_no_sparse_matmul_per_step(desk_problem, sparse_matmuls):
    # Per-step products go through MatVec; what is left is per-sweep setup.
    nt = 5
    assert (_desk_sweep_matmuls(desk_problem, nt, sparse_matmuls)
            == _desk_sweep_matmuls(desk_problem, 2 * nt, sparse_matmuls))
