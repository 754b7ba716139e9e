"""Grid, Laplacian, quadrature, norms and CSV round-trip tests."""

import numpy as np
import pytest

from caginalp_control import (
    ConfigurationError,
    Field,
    Grid,
    SpaceTimeField,
    TimeGrid,
    inner_product,
    integrate,
    l2q_inner,
    l2q_norm,
    laplacian_apply,
    laplacian_matrix,
    quadrature_weights,
    read_field_csv,
    read_space_time_csv,
    write_field_csv,
    write_space_time_csv,
)
from caginalp_control.oracle import dense_laplacian, dense_weights


def test_grid_normalizes_scalars_to_tuples():
    grid = Grid(33, 2.0)
    assert grid.n == (33,)
    assert grid.length == (2.0,)
    assert grid.dim == 1
    assert grid.num_nodes == 33
    assert grid.spacing == (2.0 / 32,)


def test_grid_2d_shape_and_coords():
    grid = Grid((3, 4), (1.0, 0.7))
    assert grid.dim == 2
    assert grid.num_nodes == 12
    assert np.allclose(grid.coords(0), [0.0, 0.5, 1.0])
    assert grid.coords(1)[-1] == 0.7


def test_grid_rejects_bad_axes():
    with pytest.raises(ConfigurationError, match="at least 3 nodes"):
        Grid(2, 1.0)
    with pytest.raises(ConfigurationError, match="positive"):
        Grid(5, -1.0)
    with pytest.raises(ConfigurationError, match="axes"):
        Grid((3, 3), 1.0)
    with pytest.raises(ConfigurationError, match="1 or 2 axes"):
        Grid((3, 3, 3), (1.0, 1.0, 1.0))


def test_time_grid_dt_and_validation():
    tg = TimeGrid(0.5, 50)
    assert tg.dt == 0.01
    assert tg.times[0] == 0.0
    assert tg.times[-1] == 0.5
    with pytest.raises(ConfigurationError, match="positive"):
        TimeGrid(-1.0, 10)
    with pytest.raises(ConfigurationError, match="at least 1"):
        TimeGrid(1.0, 0)


def test_field_shape_check_and_immutability():
    grid = Grid(5, 1.0)
    with pytest.raises(ConfigurationError, match="shape"):
        Field(grid, np.zeros(4))
    f = Field.constant(grid, 2.5)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ConfigurationError, match="non-finite"):
        Field(grid, np.full(5, np.nan))


def test_space_time_field_slice_count():
    grid = Grid(4, 1.0)
    tg = TimeGrid(1.0, 3)
    with pytest.raises(ConfigurationError, match="does not match"):
        SpaceTimeField(tg, grid, np.zeros((3, 4)))
    stf = SpaceTimeField(tg, grid, np.repeat(np.arange(4.0)[:, None], 4,
                                             axis=1))
    assert stf.slice(2).values[0] == 2.0


def test_laplacian_of_constant_is_zero():
    for grid in (Grid(7, 1.3), Grid((3, 5), (1.0, 0.7))):
        out = laplacian_apply(Field.constant(grid, 4.2))
        assert np.all(out.values == 0.0)


def test_laplacian_hand_stencil_n3():
    # Mirror closure on 3 nodes with unit spacing, values (0, 1, 0):
    # row 0: 2*(1 - 0) = 2; row 1: 0 - 2 + 0 = -2; row 2: 2*(1 - 0) = 2.
    grid = Grid(3, 2.0)
    out = laplacian_apply(Field(grid, np.array([0.0, 1.0, 0.0])))
    assert np.array_equal(out.values, np.array([2.0, -2.0, 2.0]))


def test_laplacian_matrix_rows_n3():
    # Ghost-node elimination by hand: rows {(-2,2,0),(1,-2,1),(0,2,-2)}/h^2.
    grid = Grid(3, 1.4)
    h = 0.7
    expected = np.array([[-2.0, 2.0, 0.0],
                         [1.0, -2.0, 1.0],
                         [0.0, 2.0, -2.0]]) / (h * h)
    assert np.allclose(laplacian_matrix(grid).toarray(), expected,
                       rtol=0.0, atol=1e-15)


def test_laplacian_matrix_matches_apply():
    rng = np.random.default_rng(7)
    for grid in (Grid(6, 1.1), Grid((4, 5), (0.9, 1.6))):
        lap = laplacian_matrix(grid)
        for _ in range(5):
            f = Field(grid, rng.standard_normal(grid.shape))
            via_matrix = (lap @ f.flat).reshape(grid.shape)
            assert np.allclose(via_matrix, laplacian_apply(f).values,
                               rtol=1e-14, atol=1e-14)


def test_laplacian_matrix_agrees_with_dense_oracle():
    for grid in (Grid(5, 1.3), Grid((3, 4), (1.0, 0.7))):
        dense = dense_laplacian(grid.n, grid.spacing)
        assert np.allclose(laplacian_matrix(grid).toarray(), dense,
                           rtol=1e-15, atol=1e-15)


def test_laplacian_2d_is_kronecker_sum():
    grid = Grid((3, 3), (1.0, 2.0))
    lx = dense_laplacian((3,), (grid.spacing[0],))
    ly = dense_laplacian((3,), (grid.spacing[1],))
    eye = np.eye(3)
    expected = np.kron(lx, eye) + np.kron(eye, ly)
    assert np.allclose(laplacian_matrix(grid).toarray(), expected,
                       rtol=1e-15, atol=1e-15)


def test_laplacian_row_sums_vanish():
    # 1D rows cancel exactly; in 2D the Kronecker-sum diagonal is merged by
    # the sparse format, leaving at most one rounding of the diagonal entry.
    sums = np.asarray(laplacian_matrix(Grid(9, 1.7)).sum(axis=1)).ravel()
    assert np.all(sums == 0.0)
    grid = Grid((4, 6), (1.2, 0.8))
    mat = laplacian_matrix(grid)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    scale = np.max(np.abs(mat.diagonal()))
    assert np.max(np.abs(sums)) <= 4 * np.finfo(float).eps * scale


def test_laplacian_mesh_refinement_order_two():
    length = 1.3
    errors = []
    for n in (65, 129):
        grid = Grid(n, length)
        x = grid.coords(0)
        f = Field(grid, np.cos(np.pi * x / length))
        exact = -((np.pi / length) ** 2) * np.cos(np.pi * x / length)
        errors.append(np.max(np.abs(laplacian_apply(f).values - exact)))
    ratio = errors[0] / errors[1]
    assert 3.6 <= ratio <= 4.4


def test_inner_product_with_zero_field():
    grid = Grid(6, 1.0)
    rng = np.random.default_rng(3)
    f = Field(grid, rng.standard_normal(grid.shape))
    assert inner_product(f, Field.zeros(grid)) == 0.0


def test_inner_product_constants_trapezoid():
    # n=3 on a length-2 interval (unit spacing): weights (0.5, 1, 0.5)
    # integrate the constant 1 over measure 2.
    grid = Grid(3, 2.0)
    one = Field.constant(grid, 1.0)
    assert inner_product(one, one) == 2.0
    assert integrate(one) == 2.0


def test_quadrature_weights_2d_corners_quartered():
    grid = Grid((3, 3), (2.0, 2.0))
    expected = np.multiply.outer([0.5, 1.0, 0.5], [0.5, 1.0, 0.5]).ravel()
    assert np.array_equal(quadrature_weights(grid), expected)
    assert np.allclose(dense_weights(grid.n, grid.spacing), expected,
                       rtol=0.0, atol=0.0)


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(11)
    for grid in (Grid(8, 1.5), Grid((5, 4), (1.0, 1.3))):
        for _ in range(5):
            f = Field(grid, rng.standard_normal(grid.shape))
            scale = np.max(np.abs(f.values)) + 1.0
            assert abs(integrate(laplacian_apply(f))) <= 1e-13 * scale


def test_laplacian_is_self_adjoint():
    rng = np.random.default_rng(13)
    for grid in (Grid(8, 1.5), Grid((5, 4), (1.0, 1.3))):
        for _ in range(5):
            f = Field(grid, rng.standard_normal(grid.shape))
            g = Field(grid, rng.standard_normal(grid.shape))
            lhs = inner_product(laplacian_apply(f), g)
            rhs = inner_product(f, laplacian_apply(g))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_negative_laplacian_is_positive_semidefinite():
    rng = np.random.default_rng(17)
    grid = Grid(9, 1.1)
    for _ in range(10):
        f = Field(grid, rng.standard_normal(grid.shape))
        assert inner_product(-1.0 * laplacian_apply(f), f) >= -1e-13
    c = Field.constant(grid, 3.0)
    assert abs(inner_product(-1.0 * laplacian_apply(c), c)) <= 1e-15


def _h1_semi(f):
    """sqrt(<-lap f, f>), clamped at zero against roundoff."""
    return np.sqrt(max(inner_product(-1.0 * laplacian_apply(f), f), 0.0))


def _h1_semi_oracle_1d(values, h):
    diffs = np.diff(values)
    return float(np.sqrt(np.sum(diffs * diffs) / h))


def test_h1_semi_matches_edge_difference_oracle_1d():
    rng = np.random.default_rng(23)
    grid = Grid(9, 1.7)
    h = grid.spacing[0]
    for _ in range(5):
        f = Field(grid, rng.standard_normal(grid.shape))
        oracle = _h1_semi_oracle_1d(f.values, h)
        assert _h1_semi(f) == pytest.approx(oracle, rel=1e-10)


def test_h1_semi_matches_edge_difference_oracle_2d():
    rng = np.random.default_rng(29)
    grid = Grid((4, 5), (1.0, 1.3))
    hx, hy = grid.spacing
    wx = np.full(4, hx)
    wx[[0, -1]] = 0.5 * hx
    wy = np.full(5, hy)
    wy[[0, -1]] = 0.5 * hy
    for _ in range(5):
        vals = rng.standard_normal(grid.shape)
        dx = np.diff(vals, axis=0)
        dy = np.diff(vals, axis=1)
        semi_sq = (np.sum((dx * dx / hx) @ wy)
                   + np.sum(wx @ (dy * dy / hy)))
        oracle = np.sqrt(semi_sq)
        assert _h1_semi(Field(grid, vals)) == pytest.approx(oracle,
                                                            rel=1e-10)


def test_l2q_norm_of_constant():
    grid = Grid(6, 1.5)
    tg = TimeGrid(0.8, 4)
    u = SpaceTimeField.constant(tg, grid, 3.0)
    assert l2q_norm(u) == pytest.approx(3.0 * np.sqrt(1.5 * 0.8), rel=1e-14)


def test_l2q_inner_ignores_final_slice():
    rng = np.random.default_rng(31)
    grid = Grid(5, 1.0)
    tg = TimeGrid(1.0, 3)
    a_vals = rng.standard_normal((4, 5))
    b_vals = rng.standard_normal((4, 5))
    base = l2q_inner(SpaceTimeField(tg, grid, a_vals),
                     SpaceTimeField(tg, grid, b_vals))
    a_vals2 = a_vals.copy()
    a_vals2[-1] = 99.0
    assert l2q_inner(SpaceTimeField(tg, grid, a_vals2),
                     SpaceTimeField(tg, grid, b_vals)) == base


def test_inner_product_grid_mismatch():
    f = Field.zeros(Grid(5, 1.0))
    g = Field.zeros(Grid(6, 1.0))
    with pytest.raises(ConfigurationError, match="one grid"):
        inner_product(f, g)


def test_field_csv_round_trip_1d(tmp_path):
    rng = np.random.default_rng(37)
    grid = Grid(9, 1.7)
    f = Field(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)


def test_field_csv_round_trip_2d(tmp_path):
    rng = np.random.default_rng(41)
    grid = Grid((3, 4), (1.0, 0.7))
    f = Field(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "field2d.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)


def test_field_csv_header_1d(tmp_path):
    path = tmp_path / "field.csv"
    write_field_csv(Field.zeros(Grid(3, 1.0)), path)
    header = path.read_text().splitlines()[0]
    assert header == "index_x,x,value"


def test_space_time_csv_round_trip(tmp_path):
    rng = np.random.default_rng(43)
    grid = Grid(6, 1.2)
    tg = TimeGrid(0.9, 3)
    stf = SpaceTimeField(tg, grid, rng.standard_normal((4, 6)))
    path = tmp_path / "stf.csv"
    write_space_time_csv(stf, path)
    back = read_space_time_csv(path)
    assert back.grid == grid
    assert back.time_grid == tg
    assert np.array_equal(back.values, stf.values)


def test_read_field_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_field_csv(tmp_path / "nope.csv")
