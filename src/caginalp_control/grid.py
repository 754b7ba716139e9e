"""Uniform tensor-product grids with a conservative Neumann Laplacian.

This module carries the spatial discretization used everywhere else: 1D or 2D
uniform node-centered grids, a homogeneous-Neumann (no-flux) Laplacian with
mirror boundary closure, trapezoid quadrature matched to that closure, and the
norms and CSV plumbing built on top.

The mirror closure and the trapezoid weights are chosen together so that two
identities hold exactly in floating point, not just asymptotically:

* every row of the Laplacian sums to zero (exactly in 1D, to one rounding of
  the merged diagonal in 2D), so constants are in its kernel and integrals of
  Laplacians vanish at machine precision;
* the weighted operator W @ L is symmetric, so the Laplacian is self-adjoint
  under ``inner_product`` and ``inner_product(-lap(f), f) >= 0``.

Both facts are what make the conservation laws and the transpose-based adjoint
construction in the solver modules exact discrete statements.

Flat orderings are C order throughout: in 2D the node (ix, iy) sits at flat
index ``ix * ny + iy``, matching the Kronecker-sum assembly of the operator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError

__all__ = [
    "Grid",
    "TimeGrid",
    "Field",
    "SpaceTimeField",
    "Trajectory",
    "laplacian_apply",
    "laplacian_matrix",
    "quadrature_weights",
    "inner_product",
    "integrate",
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
    read-only; arithmetic returns new Fields.
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

    def _binary(self, other, op):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ConfigurationError("fields live on different grids")
            return Field(self.grid, op(self._values, other._values))
        return Field(self.grid, op(self._values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return Field(self.grid, float(other) - self._values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply)

    def __neg__(self):
        return Field(self.grid, -self._values)

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

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply)

    def __neg__(self):
        return SpaceTimeField(self.time_grid, self.grid, -self._values)


class Trajectory:
    """Output of one sweep: a read-only (nt + 1, N) array per named field.

    The forward sweep fills (theta, phi, mu, sigma), the linearized sweep
    (zeta, xi, eta, rho) and the adjoint sweep (z, p, q, r). The arrays are
    taken over, not copied, and made read-only, so a producer hands over
    arrays it no longer writes to. ``diagnostics`` holds the per-level rows
    of a forward sweep and is empty otherwise; a producer may hand over a
    function that computes them instead, which then runs on the first read
    and is replaced by its rows. ``operators`` holds the StepOperators of a
    forward sweep, which the sweeps around it reuse, and is None otherwise.
    """

    __slots__ = ("time_grid", "grid", "_arrays", "_diagnostics",
                 "linear_solve_count", "operators")

    def __init__(self, time_grid, grid, arrays, diagnostics=(),
                 linear_solve_count=0, operators=None):
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
        self._diagnostics = (diagnostics if callable(diagnostics)
                             else tuple(diagnostics))
        self.linear_solve_count = int(linear_solve_count)
        self.operators = operators

    @property
    def diagnostics(self):
        """Tuple of per-level rows, computed and kept on the first read."""
        if callable(self._diagnostics):
            self._diagnostics = tuple(self._diagnostics())
        return self._diagnostics

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


def _lap_1d_axis(values, h, axis):
    """Second difference with mirror closure along one axis of an nd array."""
    out = np.empty_like(values)
    src = np.moveaxis(values, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    dst[1:-1] = src[:-2] - 2.0 * src[1:-1] + src[2:]
    dst[0] = 2.0 * (src[1] - src[0])
    dst[-1] = 2.0 * (src[-2] - src[-1])
    out /= h * h
    return out


def laplacian_apply(f):
    """Apply the Neumann Laplacian to a field, matrix-free.

    Interior nodes carry the second-order central stencil; boundary nodes use
    the mirror (ghost reflection) closure, e.g. in 1D the first row reads
    2*(f[1] - f[0]) / h^2.

    Args:
        f: Input field.

    Returns:
        Field holding the discrete Laplacian of ``f``.
    """
    grid = f.grid
    result = np.zeros(grid.shape)
    for axis, h in enumerate(grid.spacing):
        result += _lap_1d_axis(f.values, h, axis)
    return Field(grid, result)


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
    """Sparse CSR form of :func:`laplacian_apply` in flat C ordering.

    In 2D the operator is the Kronecker sum of the per-axis 1D operators.
    Rows sum to zero exactly and W @ L is symmetric for the weights of
    :func:`quadrature_weights`.
    """
    parts = [
        _laplacian_1d_matrix(count, h)
        for count, h in zip(grid.n, grid.spacing)
    ]
    if grid.dim == 1:
        return parts[0]
    ix = sp.identity(grid.n[0], format="csr")
    iy = sp.identity(grid.n[1], format="csr")
    return (sp.kron(parts[0], iy) + sp.kron(ix, parts[1])).tocsr()


@lru_cache(maxsize=None)
def quadrature_weights(grid):
    """Flat trapezoid weights: boundary nodes halved, 2D corners quartered."""
    axes = grid._axis_weights()
    if grid.dim == 1:
        w = axes[0]
    else:
        w = np.multiply.outer(axes[0], axes[1]).reshape(-1)
    w.setflags(write=False)
    return w


def inner_product(f, g):
    """Weighted l2 inner product, the discrete L2(Omega) pairing.

    Raises:
        ConfigurationError: If the fields live on different grids.
    """
    if f.grid != g.grid:
        raise ConfigurationError("inner_product requires fields on one grid")
    w = quadrature_weights(f.grid)
    return float(np.dot(w, f.flat * g.flat))


def integrate(f):
    """Quadrature of ``f`` over the domain, inner_product(f, 1)."""
    w = quadrature_weights(f.grid)
    return float(np.dot(w, f.flat))


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


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _field_rows(field, prefix=()):
    grid = field.grid
    flat = field.flat
    if grid.dim == 1:
        x = grid.coords(0)
        for i in range(grid.n[0]):
            yield prefix + (i, _FMT.format(x[i]), _FMT.format(flat[i]))
    else:
        x = grid.coords(0)
        y = grid.coords(1)
        nx, ny = grid.n
        for i in range(nx):
            for j in range(ny):
                yield prefix + (
                    i,
                    j,
                    _FMT.format(x[i]),
                    _FMT.format(y[j]),
                    _FMT.format(flat[i * ny + j]),
                )


def write_field_csv(field, path):
    """Dump a field as CSV: index_x[,index_y],x[,y],value at 17 digits."""
    if field.grid.dim == 1:
        header = ("index_x", "x", "value")
    else:
        header = ("index_x", "index_y", "x", "y", "value")
    _write_rows(path, header, _field_rows(field))


def _grid_from_nodes(idx_arrays, coord_arrays):
    n = tuple(int(idx.max()) + 1 for idx in idx_arrays)
    length = []
    for axis, (idx, coord) in enumerate(zip(idx_arrays, coord_arrays)):
        last = coord[idx == n[axis] - 1]
        length.append(float(last[0]))
    return Grid(n=n, length=tuple(length))


def read_field_csv(path):
    """Rebuild a field written by :func:`write_field_csv`.

    Values round-trip exactly; the grid is reconstructed from the index and
    coordinate columns (node coordinates end at the axis length, so the
    extent is recovered without metadata).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    dim = 1 if len(header) == 3 else 2
    if dim == 1:
        idx = np.array([int(r[0]) for r in rows])
        x = np.array([float(r[1]) for r in rows])
        vals = np.array([float(r[2]) for r in rows])
        grid = _grid_from_nodes([idx], [x])
        out = np.empty(grid.shape)
        out[idx] = vals
    else:
        ix = np.array([int(r[0]) for r in rows])
        iy = np.array([int(r[1]) for r in rows])
        x = np.array([float(r[2]) for r in rows])
        y = np.array([float(r[3]) for r in rows])
        vals = np.array([float(r[4]) for r in rows])
        grid = _grid_from_nodes([ix, iy], [x, y])
        out = np.empty(grid.shape)
        out[ix, iy] = vals
    return Field(grid, out)


def write_space_time_csv(stf, path):
    """Dump a space-time field as CSV with leading t_index,t columns."""
    if stf.grid.dim == 1:
        header = ("t_index", "t", "index_x", "x", "value")
    else:
        header = ("t_index", "t", "index_x", "index_y", "x", "y", "value")
    times = stf.time_grid.times

    def rows():
        for k in range(stf.num_slices):
            prefix = (k, _FMT.format(times[k]))
            yield from _field_rows(stf.slice(k), prefix)

    _write_rows(path, header, rows())


def read_space_time_csv(path):
    """Rebuild a space-time field written by :func:`write_space_time_csv`."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    dim = 1 if len(header) == 5 else 2
    t_idx = np.array([int(r[0]) for r in rows])
    nt = int(t_idx.max())
    t_vals = np.array([float(r[1]) for r in rows])
    t_final = float(t_vals[t_idx == nt][0])
    time_grid = TimeGrid(t_final=t_final, nt=nt)
    if dim == 1:
        idx = np.array([int(r[2]) for r in rows])
        x = np.array([float(r[3]) for r in rows])
        vals = np.array([float(r[4]) for r in rows])
        grid = _grid_from_nodes([idx], [x])
        out = np.empty((nt + 1,) + grid.shape)
        out[t_idx, idx] = vals
    else:
        ix = np.array([int(r[2]) for r in rows])
        iy = np.array([int(r[3]) for r in rows])
        x = np.array([float(r[4]) for r in rows])
        y = np.array([float(r[5]) for r in rows])
        vals = np.array([float(r[6]) for r in rows])
        grid = _grid_from_nodes([ix, iy], [x, y])
        out = np.empty((nt + 1,) + grid.shape)
        out[t_idx, ix, iy] = vals
    return SpaceTimeField(time_grid, grid, out)
