"""Uniform tensor-product grids with a conservative Neumann Laplacian.

This module carries the spatial discretization used everywhere else: 1D or 2D
uniform node-centered grids, a homogeneous-Neumann (no-flux) Laplacian with
mirror boundary closure, trapezoid quadrature matched to that closure, and the
node-table CSV codec that every field file of the package uses: one row per
node with its indices, its coordinates and its values, floats at 17
significant digits so that values round-trip exactly.

The mirror closure of :func:`laplacian_matrix` L and the trapezoid weights
w of :func:`quadrature_weights` are chosen together so that two identities
hold exactly in floating point, not just asymptotically:

* every row of L sums to zero (exactly in 1D, to one rounding of the merged
  diagonal in 2D), so constants are in its kernel and w @ (L @ f), the
  integral of a Laplacian, vanishes at machine precision;
* W @ L with W = diag(w) is symmetric, so L is self-adjoint in the weighted
  pairing w @ (f * g) and w @ (-(L @ f) * f) >= 0.

Both facts are what make the conservation laws and the transpose-based adjoint
construction in the solver modules exact discrete statements.

Flat orderings are C order throughout: in 2D the node (ix, iy) sits at flat
index ``ix * ny + iy``, matching the Kronecker-sum assembly of the operator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

__all__ = [
    "Grid",
    "TimeGrid",
    "Field",
    "SpaceTimeField",
    "Trajectory",
    "laplacian_matrix",
    "quadrature_weights",
    "l2q_inner",
    "l2q_norm",
    "write_field_csv",
    "read_field_csv",
    "write_space_time_csv",
    "read_space_time_csv",
]


def _as_axis_tuple(value, name, caster):
    """Normalize a scalar or a 1- or 2-element sequence to a tuple."""
    if isinstance(value, (list, tuple, np.ndarray)):
        items = tuple(caster(v) for v in value)
    else:
        items = (caster(value),)
    if len(items) not in (1, 2):
        raise ConfigurationError(
            f"{name} must have 1 or 2 axes, got {len(items)}"
        )
    return items


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on a 1D interval or a 2D rectangle.

    Attributes:
        n: Node counts per axis, each at least 3.
        length: Domain extent per axis, each positive.

    Node coordinates along an axis run from 0 to the axis length inclusive,
    with spacing ``length / (n - 1)``. Scalars are accepted for either field
    and normalized to 1-tuples.
    """

    n: tuple
    length: tuple

    def __post_init__(self):
        n = _as_axis_tuple(self.n, "grid n", int)
        length = _as_axis_tuple(self.length, "grid length", float)
        if len(n) != len(length):
            raise ConfigurationError(
                f"grid n has {len(n)} axes but length has {len(length)}"
            )
        for count in n:
            if count < 3:
                raise ConfigurationError(
                    f"grid needs at least 3 nodes per axis, got n={count}"
                )
        for ext in length:
            if not np.isfinite(ext) or ext <= 0.0:
                raise ConfigurationError(
                    f"grid length must be positive and finite, got {ext}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)

    @property
    def dim(self):
        return len(self.n)

    @property
    def shape(self):
        return self.n

    @property
    def num_nodes(self):
        nodes = 1
        for count in self.n:
            nodes *= count
        return nodes

    @property
    def spacing(self):
        return tuple(ext / (count - 1) for ext, count in zip(self.length, self.n))

    def coords(self, axis=0):
        """Node coordinates along one axis (read-only array)."""
        pts = np.linspace(0.0, self.length[axis], self.n[axis])
        pts.setflags(write=False)
        return pts

    def _axis_weights(self):
        out = []
        for count, h in zip(self.n, self.spacing):
            w = np.full(count, h)
            w[0] = 0.5 * h
            w[-1] = 0.5 * h
            out.append(w)
        return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into ``nt`` steps.

    ``dt`` is derived as ``t_final / nt`` rather than stored, so the horizon
    is represented exactly by construction.
    """

    t_final: float
    nt: int

    def __post_init__(self):
        object.__setattr__(self, "t_final", float(self.t_final))
        object.__setattr__(self, "nt", int(self.nt))
        if not np.isfinite(self.t_final) or self.t_final <= 0.0:
            raise ConfigurationError(
                f"t_final must be positive and finite, got {self.t_final}"
            )
        if self.nt < 1:
            raise ConfigurationError(f"nt must be at least 1, got {self.nt}")

    @property
    def dt(self):
        return self.t_final / self.nt

    @property
    def times(self):
        pts = np.linspace(0.0, self.t_final, self.nt + 1)
        pts.setflags(write=False)
        return pts


def _check_finite(values, what):
    if not np.isfinite(values).all():
        raise ConfigurationError(f"{what} contains non-finite values")


class Field:
    """Immutable real-valued function sampled at the grid nodes.

    Values are stored grid-shaped ((n,) in 1D, (nx, ny) in 2D) and exposed
    read-only.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ConfigurationError(
                f"field shape {values.shape} does not match grid shape {grid.shape}"
            )
        _check_finite(values, "field")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid):
        return cls.constant(grid, 0.0)

    @property
    def values(self):
        return self._values

    @property
    def flat(self):
        flat = self._values.reshape(-1)
        flat.setflags(write=False)
        return flat

    def __repr__(self):
        return f"Field(grid={self.grid!r}, min={self._values.min():g}, max={self._values.max():g})"


class SpaceTimeField:
    """Immutable time series of fields on a shared grid, one per time level.

    Carries ``nt + 1`` slices indexed 0..nt. Controls use the same carrier
    with the convention that slice ``n`` acts on the interval
    [t_n, t_{n+1}), so slice nt never influences a solve.
    """

    __slots__ = ("time_grid", "grid", "_values")

    def __init__(self, time_grid, grid, values):
        values = np.asarray(values, dtype=float)
        expected = (time_grid.nt + 1,) + grid.shape
        if values.shape != expected:
            raise ConfigurationError(
                f"space-time field shape {values.shape} does not match {expected}"
            )
        _check_finite(values, "space-time field")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "time_grid", time_grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SpaceTimeField is immutable")

    @classmethod
    def constant(cls, time_grid, grid, value):
        shape = (time_grid.nt + 1,) + grid.shape
        return cls(time_grid, grid, np.full(shape, float(value)))

    @classmethod
    def zeros(cls, time_grid, grid):
        return cls.constant(time_grid, grid, 0.0)

    @property
    def values(self):
        return self._values

    @property
    def num_slices(self):
        return self.time_grid.nt + 1

    def slice(self, k):
        return Field(self.grid, self._values[k])

    @property
    def flat_slices(self):
        flat = self._values.reshape(self.num_slices, -1)
        flat.setflags(write=False)
        return flat

    def _binary(self, other, op):
        if isinstance(other, SpaceTimeField):
            if other.grid != self.grid or other.time_grid != self.time_grid:
                raise ConfigurationError(
                    "space-time fields live on different grids"
                )
            return SpaceTimeField(
                self.time_grid, self.grid, op(self._values, other._values)
            )
        return SpaceTimeField(
            self.time_grid, self.grid, op(self._values, float(other))
        )

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rmul__(self, other):
        return self._binary(other, np.multiply)


class Trajectory:
    """Output of one sweep: a read-only (nt + 1, N) array per named field.

    The forward sweep fills (theta, phi, mu, sigma), the linearized sweep
    (zeta, xi, eta, rho) and the adjoint sweep (z, p, q, r). The arrays are
    taken over, not copied, and made read-only, so a producer hands over
    arrays it no longer writes to. ``operators`` holds the StepOperators of
    a forward sweep, which the sweeps around it reuse, and is None
    otherwise.
    """

    __slots__ = ("time_grid", "grid", "_arrays", "linear_solve_count",
                 "operators")

    def __init__(self, time_grid, grid, arrays, linear_solve_count=0,
                 operators=None):
        expected = (time_grid.nt + 1, grid.num_nodes)
        for name, arr in arrays.items():
            if arr.shape != expected:
                raise ConfigurationError(
                    f"trajectory array {name} has shape {arr.shape},"
                    f" expected {expected}"
                )
            arr.setflags(write=False)
        self.time_grid = time_grid
        self.grid = grid
        self._arrays = dict(arrays)
        self.linear_solve_count = int(linear_solve_count)
        self.operators = operators

    def field_array(self, name):
        """Read-only (nt + 1, N) array of one field's nodal values."""
        return self._arrays[name]

    def field(self, name, level):
        """One field at one time level."""
        return Field(self.grid, self._arrays[name][level].reshape(
            self.grid.shape))

    def space_time(self, name):
        """One field of the trajectory as a SpaceTimeField."""
        shape = (self.time_grid.nt + 1,) + self.grid.shape
        return SpaceTimeField(self.time_grid, self.grid,
                              self._arrays[name].reshape(shape))


def _laplacian_1d_matrix(count, h):
    main = np.full(count, -2.0)
    upper = np.ones(count - 1)
    lower = np.ones(count - 1)
    upper[0] = 2.0
    lower[-1] = 2.0
    mat = sp.diags_array((lower, main, upper), offsets=(-1, 0, 1), format="csr")
    return mat * (1.0 / (h * h))


@lru_cache(maxsize=None)
def laplacian_matrix(grid):
    """The Neumann Laplacian as a sparse CSR matrix in flat C ordering.

    Interior nodes carry the second-order central stencil; boundary nodes use
    the mirror (ghost reflection) closure, e.g. in 1D the first row reads
    2*(f[1] - f[0]) / h^2. The operator is the Kronecker sum of the per-axis
    1D operators, folded axis by axis. Rows sum to zero exactly and W @ L is
    symmetric for the weights of :func:`quadrature_weights`.
    """
    def kron_sum(lap, part):
        return (sp.kron(lap, sp.identity(part.shape[0], format="csr"))
                + sp.kron(sp.identity(lap.shape[0], format="csr"), part))

    return reduce(kron_sum, [
        _laplacian_1d_matrix(count, h)
        for count, h in zip(grid.n, grid.spacing)
    ]).tocsr()


@lru_cache(maxsize=None)
def quadrature_weights(grid):
    """Flat trapezoid weights: boundary nodes halved, 2D corners quartered."""
    w = reduce(np.multiply.outer, grid._axis_weights()).reshape(-1)
    w.setflags(write=False)
    return w


def _cosine_profile(grid, mode=1):
    """Product over the axes of cos(mode * pi * x / L) at the nodes.

    For an integer mode it satisfies the no-flux boundary conditions exactly.
    """
    return reduce(np.multiply.outer, [
        np.cos(mode * np.pi * grid.coords(axis) / grid.length[axis])
        for axis in range(grid.dim)])


def l2q_inner(u, v):
    """Space-time L2(Q) inner product, left-endpoint rectangle in time.

    Sums ``dt * <u_n, v_n>`` over time levels 0..nt-1, matching the
    piecewise-constant-in-time control convention; slice nt is ignored.
    """
    if u.grid != v.grid or u.time_grid != v.time_grid:
        raise ConfigurationError("l2q_inner requires fields on one grid pair")
    w = quadrature_weights(u.grid)
    dt = u.time_grid.dt
    uu = u.flat_slices[:-1]
    vv = v.flat_slices[:-1]
    return float(dt * np.sum((uu * vv) @ w))


def l2q_norm(u):
    """Space-time L2(Q) norm induced by :func:`l2q_inner`."""
    return float(np.sqrt(max(l2q_inner(u, u), 0.0)))


_FMT = "{:.17g}"


def _write_node_table(path, grid, names, levels, times=None):
    """Write a node table: the CSV layout of every field file.

    A row holds the node's indices along each axis, then its coordinates,
    then one cell per column in ``names``. ``levels`` holds, per time level,
    one flat array per name. With ``times``, each level's rows lead with
    its t_index and t. Nodes run in flat C order and every float is written
    at 17 significant digits, so values round-trip exactly.
    """
    axes = "xy"[:grid.dim]
    index = np.indices(grid.shape).reshape(grid.dim, -1)
    nodes = [*index.tolist(),
             *(grid.coords(a)[i].tolist() for a, i in enumerate(index))]
    header = [f"index_{a}" for a in axes] + list(axes) + list(names)
    row = ",".join(["{}"] * grid.dim + [_FMT] * (grid.dim + len(names)))
    if times is not None:
        header = ["t_index", "t"] + header
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for k, columns in enumerate(levels):
            lead = "" if times is None else f"{k},{_FMT.format(times[k])},"
            handle.writelines(map((lead + row + "\n").format, *nodes,
                                  *(c.tolist() for c in columns)))


def _read_node_table(path, lead):
    """Node counts, extents and values of a node table with one value column.

    ``lead`` is 1 when each row leads with t_index and t, which then count
    as the first axis. An axis's extent is the coordinate of its last node.

    Raises:
        OSError: If the file cannot be opened.
        ValueError: If it has no rows, a row is not as wide as the header,
            a cell does not parse, or a node has no row or more than one.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"line {line} has {len(row)} cells,"
                             f" the header has {len(header)}")
    if not rows:
        raise ValueError("no rows under the header")
    cols = list(zip(*rows))
    dim = (len(header) - 1) // 2
    index = np.array(cols[:lead] + cols[2 * lead:lead + dim], dtype=int)
    coords = np.array(cols[lead:2 * lead] + cols[lead + dim:2 * dim],
                      dtype=float)
    n = tuple((index.max(axis=1) + 1).tolist())
    flat = np.ravel_multi_index(index, n)
    if len(rows) != np.prod(n) or np.unique(flat).size != len(rows):
        raise ValueError("every node needs exactly one row")
    extent = [float(c[i == m - 1][0]) for i, c, m in zip(index, coords, n)]
    values = np.empty(len(rows))
    values[flat] = np.array(cols[-1], dtype=float)
    return n, tuple(extent), values.reshape(n)


def write_field_csv(field, path):
    """Dump a field as CSV: index_x[,index_y],x[,y],value at 17 digits."""
    _write_node_table(path, field.grid, ("value",), [(field.flat,)])


def read_field_csv(path):
    """Rebuild a field written by :func:`write_field_csv`.

    Values round-trip exactly; the grid is reconstructed from the index and
    coordinate columns (node coordinates end at the axis length, so the
    extent is recovered without metadata).
    """
    n, extent, values = _read_node_table(path, 0)
    return Field(Grid(n, extent), values)


def write_space_time_csv(stf, path):
    """Dump a space-time field as CSV with leading t_index,t columns."""
    _write_node_table(path, stf.grid, ("value",),
                      stf.flat_slices[:, None], stf.time_grid.times)


def read_space_time_csv(path):
    """Rebuild a space-time field written by :func:`write_space_time_csv`."""
    n, extent, values = _read_node_table(path, 1)
    return SpaceTimeField(TimeGrid(t_final=extent[0], nt=n[0] - 1),
                          Grid(n[1:], extent[1:]), values)
