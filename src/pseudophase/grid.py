"""Uniform tensor grids on the open unit box with homogeneous Dirichlet data.

Conventions
-----------
* The domain is (0,1)^n with n in {1, 2}.
* A grid with m interior nodes per axis has spacing h = 1/(m+1).
  Interior node k (1-based along each axis) sits at k*h; the boundary
  layers at 0 and 1 are never stored, their values are identically zero.
* Nodal fields (GridFunction) hold m**n values, shaped (m,) or (m, m).
* Forward differences live on the staggered edge lattice: along axis i
  there are (m+1) edges per grid line, so an axis-0 edge field in 2-D has
  shape (m+1, m) and an axis-1 edge field has shape (m, m+1).
* Quadrature is the scaled lattice sum, sum(values) * h**n, used both for
  nodal fields (nodal rule) and edge fields (midpoint rule).  With this
  pairing the forward difference and the negative edge divergence are
  exact adjoints of each other, which is what makes the discrete weak and
  strong forms agree to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "EdgeField",
    "forward_diff",
    "neg_divergence",
    "quadrature",
    "inner_product",
    "sobolev_norm",
    "write_grid_function",
    "read_grid_function",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid: n axes, m interior nodes per axis."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.n}")
        if self.m < 1:
            raise ValueError(f"interior resolution must be >= 1, got {self.m}")

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.n

    @property
    def n_nodes(self) -> int:
        return self.m**self.n

    def edge_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of an axis-`axis` edge field (one extra entry along `axis`)."""
        self._check_axis(axis)
        shape = [self.m] * self.n
        shape[axis] = self.m + 1
        return tuple(shape)

    def node_coords(self) -> list[np.ndarray]:
        """Per-axis interior node coordinates, k*h for k = 1..m."""
        return [self.h * np.arange(1, self.m + 1, dtype=float)] * self.n

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.n:
            raise ValueError(f"axis {axis} out of range for an {self.n}-d grid")


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridFunction:
    """Nodal field on the interior nodes; zero on the boundary by convention."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"nodal values must have shape {self.grid.shape}, got {values.shape}"
            )
        object.__setattr__(self, "values", _freeze(values))

    @classmethod
    def zeros(cls, grid: Grid) -> GridFunction:
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, fill: float) -> GridFunction:
        return cls(grid, np.full(grid.shape, float(fill)))

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[..., float]) -> GridFunction:
        """Sample fn(x) or fn(x, y) at the interior nodes."""
        axes = grid.node_coords()
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(grid, np.asarray(fn(*mesh), dtype=float))

    def __add__(self, other: GridFunction) -> GridFunction:
        self._check_compatible(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: GridFunction) -> GridFunction:
        self._check_compatible(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> GridFunction:
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> GridFunction:
        return GridFunction(self.grid, -self.values)

    def _check_compatible(self, other: GridFunction) -> None:
        if other.grid != self.grid:
            raise ValueError("grid mismatch between nodal fields")


@dataclass(frozen=True)
class EdgeField:
    """Per-edge values for one axis of the staggered lattice."""

    grid: Grid
    axis: int
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = self.grid.edge_shape(self.axis)
        values = np.asarray(self.values, dtype=float)
        if values.shape != expected:
            raise ValueError(
                f"axis-{self.axis} edge values must have shape {expected}, "
                f"got {values.shape}"
            )
        object.__setattr__(self, "values", _freeze(values))


def _diff(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """forward_diff on a bare nodal array: ghost-zero differences over h.

    The values go into a zeroed flat buffer laid out (outer, size + 1, inner),
    a zero slab before each run along `axis`, plus one trailing slab; the
    edges are then one contiguous subtraction of the buffer from itself
    shifted by a slab, in C order, with v - 0.0 == v and 0.0 - v at the ends.
    """
    shape = vals.shape
    size, inner = shape[axis], math.prod(shape[axis + 1 :])
    n = vals.size // size * (size + 1)
    padded = np.zeros(n + inner)
    padded[:n].reshape(-1, size + 1, inner)[:, 1:] = vals.reshape(-1, size, inner)
    out = np.subtract(padded[inner:], padded[:n])
    out /= h
    return out.reshape(shape[:axis] + (size + 1,) + shape[axis + 1 :])


def _diffs(vals: np.ndarray, h: float) -> list[np.ndarray]:
    """_diff along every axis."""
    return [_diff(vals, axis, h) for axis in range(vals.ndim)]


def _neg_div(flux: np.ndarray, axis: int, h: float) -> np.ndarray:
    """neg_divergence on a bare edge array: (F_left - F_right) / h.

    One contiguous subtraction of the flat array from itself shifted by a slab,
    as in _diff; one copy drops the slabs that difference two runs along `axis`.
    """
    shape = flux.shape
    size, inner = shape[axis] - 1, math.prod(shape[axis + 1 :])
    flat = flux.reshape(-1)
    diffs = np.empty(flat.size)
    head = diffs[:-inner]
    np.subtract(flat[inner:], flat[:-inner], out=head)
    head /= -h  # == -(F_right - F_left) / h, bit for bit
    runs = diffs.reshape(-1, size + 1, inner)[:, :size]
    return np.ascontiguousarray(runs).reshape(shape[:axis] + (size,) + shape[axis + 1 :])


def _neg_div_sum(fluxes: list[np.ndarray], h: float) -> np.ndarray:
    """Sum over axes of _neg_div of the per-axis edge fluxes, from +0.0 up."""
    return sum(_neg_div(flux, axis, h) for axis, flux in enumerate(fluxes))


def forward_diff(u: GridFunction, axis: int) -> EdgeField:
    """Forward difference of u along one axis, including the boundary edges.

    The two ghost layers are the homogeneous Dirichlet zeros, so a grid with
    m interior nodes produces m+1 edge values per grid line:
    (u_right - u_left) / h with u_0 = u_{m+1} = 0.
    """
    grid = u.grid
    grid._check_axis(axis)
    return EdgeField(grid, axis, _diff(u.values, axis, grid.h))


def neg_divergence(e: EdgeField) -> GridFunction:
    """Adjoint of forward_diff under the quadrature pairing.

    Maps an axis-i edge flux F to the nodal field (F_left - F_right)/h, so
    that quadrature(F * forward_diff(w, i)) == inner_product(neg_divergence(F), w)
    exactly.  This is the discrete version of w -> -d(F)/dx_i.
    """
    return GridFunction(e.grid, _neg_div(e.values, e.axis, e.grid.h))


def quadrature(field: GridFunction | EdgeField) -> float:
    """Scaled lattice sum: sum(values) * h**n."""
    grid = field.grid
    return float(field.values.sum() * grid.h**grid.n)


def inner_product(u: GridFunction, w: GridFunction) -> float:
    """Discrete L2 pairing <u, w>_h = quadrature(u * w)."""
    u._check_compatible(w)
    return float((u.values * w.values).sum() * u.grid.h**u.grid.n)


def sobolev_norm(u: GridFunction, p: float) -> float:
    """Axiswise first-order norm: [sum_i quadrature(|d_i u|^p)]^(1/p).

    Parameters
    ----------
    u : GridFunction
    p : float
        Exponent, finite with p >= 1.
    """
    return float(_sobolev_norms(u.values[None], u.grid, p)[0])


def _row_sums(stack: np.ndarray) -> np.ndarray:
    """Sum of each stacked array, one contiguous row each, as ndarray.sum() adds it."""
    return stack.reshape(len(stack), -1).sum(axis=1)


def _sobolev_norms(stack: np.ndarray, grid: Grid, p: float) -> np.ndarray:
    """sobolev_norm of every nodal array in a stack (leading point axis).

    Per point the arithmetic is the single-field one: the axis sums are
    added from 0.0 up and the root is taken in Python floats.  Each axis
    works inside the edge array _diff returns and frees it before the next.
    |d_i u|^p is (d_i u)^2 ** (p/2): exact squares at p = 4, with no CPU pow.
    A difference above sqrt(DBL_MAX) ~ 1.34e154 makes the norm inf for every p.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"norm exponent p must be finite and >= 1, got {p}")
    cell = grid.h**grid.n
    totals = np.zeros(len(stack))
    for axis in range(1, stack.ndim):
        g = _diff(stack, axis, grid.h)
        g *= g
        g **= p / 2.0
        totals += _row_sums(g) * cell
        del g
    return np.array([t ** (1.0 / p) for t in totals.tolist()])


# ---------------------------------------------------------------------------
# CSV serialization: header "x,value" (1-D) or "x,y,value" (2-D), interior
# nodes in lexicographic coordinate order, 17 significant digits.
# ---------------------------------------------------------------------------


def write_grid_function(u: GridFunction, path: str) -> None:
    """Write a nodal field as CSV with coordinates, deterministically."""
    grid = u.grid
    coords = [[f"{c:.17g}" for c in axis] for axis in grid.node_coords()]
    points = coords[0] if grid.n == 1 else [f"{x},{y}" for x in coords[0] for y in coords[1]]
    header = "x,value" if grid.n == 1 else "x,y,value"
    # One line per node in C order; %.17g formats a float exactly as {:.17g} does.
    template = header + "\n" + "".join(f"{p},%.17g\n" for p in points)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(template % tuple(u.values.reshape(-1).tolist()))


def _row_error(path: str, raw: list[str], width: int, err: ValueError) -> ValueError:
    """Name the first data line of the file that is not `width` numbers."""
    rows = [(number, line.strip()) for number, line in enumerate(raw, 1) if line.strip()]
    for number, line in rows[1:]:
        tokens = line.split(",")
        if len(tokens) != width:
            return ValueError(f"{path}: line {number}: expected {width} fields, got {len(tokens)}")
        try:
            np.array(tokens, dtype=float)
        except ValueError as bad:
            return ValueError(f"{path}: line {number}: {bad}")
    return ValueError(f"{path}: {err}")


def read_grid_function(path: str, grid: Grid | None = None) -> GridFunction:
    """Read a nodal field written by write_grid_function.

    The grid is inferred from the header and the row count, then checked
    against `grid` when one is supplied.  Coordinates must match the node
    lattice of the inferred grid to 1e-12.  A row that is not n + 1 numbers
    raises a ValueError naming its 1-based line.
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().split("\n")
    lines = [line for line in map(str.strip, raw) if line]
    if not lines:
        raise ValueError(f"{path}: empty grid-function file")
    header = lines[0]
    if header == "x,value":
        n = 1
    elif header == "x,y,value":
        n = 2
    else:
        raise ValueError(f"{path}: unrecognized header {header!r}")
    body = lines[1:]
    if set(map(str.count, body, repeat(","))) != {n}:
        # A ragged row, or none at all.
        raise _row_error(path, raw, n + 1, ValueError("malformed rows"))
    try:
        # numpy parses each token with float(), so the values are float()'s.
        data = np.array(",".join(body).split(","), dtype=float).reshape(-1, n + 1)
    except ValueError as err:
        raise _row_error(path, raw, n + 1, err) from None
    count = data.shape[0]
    if n == 1:
        m = count
    else:
        m = round(count**0.5)
        if m * m != count:
            raise ValueError(f"{path}: {count} rows is not a square node count")
    inferred = Grid(n=n, m=m)
    if grid is not None and grid != inferred:
        raise ValueError(
            f"{path}: file describes grid (n={n}, m={m}), expected "
            f"(n={grid.n}, m={grid.m})"
        )
    values = data[:, -1].reshape(inferred.shape)
    expected = np.stack(
        np.meshgrid(*inferred.node_coords(), indexing="ij"), axis=-1
    ).reshape(count, n)
    if not np.allclose(data[:, :n], expected, rtol=0.0, atol=1e-12):
        raise ValueError(f"{path}: node coordinates do not match the grid lattice")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite values")
    return GridFunction(inferred, values)
