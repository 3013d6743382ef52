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

from dataclasses import dataclass
from typing import Callable, Iterator

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

    def value_at(self, *index: int) -> float:
        """Value at a 1-based node multi-index, boundary layers included.

        Indices run 0..m+1 per axis; index 0 and m+1 address the Dirichlet
        boundary and always evaluate to 0.
        """
        if len(index) != self.grid.n:
            raise ValueError(f"expected {self.grid.n} indices, got {len(index)}")
        for k in index:
            if not 0 <= k <= self.grid.m + 1:
                raise IndexError(f"node index {k} outside 0..{self.grid.m + 1}")
        if any(k == 0 or k == self.grid.m + 1 for k in index):
            return 0.0
        return float(self.values[tuple(k - 1 for k in index)])

    def with_values(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.grid, values)

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
    """forward_diff on a bare nodal array: ghost-zero differences over h."""
    shape = list(vals.shape)
    shape[axis] += 1
    out = np.empty(shape)
    o = out.swapaxes(0, axis)
    v = vals.swapaxes(0, axis)
    o[:1] = v[:1]
    np.subtract(v[1:], v[:-1], out=o[1:-1])
    np.subtract(0.0, v[-1:], out=o[-1:])
    out /= h
    return out


def _diffs(vals: np.ndarray, h: float) -> list[np.ndarray]:
    """_diff along every axis."""
    return [_diff(vals, axis, h) for axis in range(vals.ndim)]


def _neg_div(flux: np.ndarray, axis: int, h: float) -> np.ndarray:
    """neg_divergence on a bare edge array: (F_left - F_right) / h."""
    shape = list(flux.shape)
    shape[axis] -= 1
    out = np.empty(shape)
    f = flux.swapaxes(0, axis)
    np.subtract(f[1:], f[:-1], out=out.swapaxes(0, axis))
    out /= -h  # == -(F_right - F_left) / h, bit for bit
    return out


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
        Exponent, must satisfy p >= 1.
    """
    if p < 1:
        raise ValueError(f"norm exponent must be >= 1, got {p}")
    grid = u.grid
    total = 0.0
    for g in _diffs(u.values, grid.h):
        total += float((np.abs(g) ** p).sum() * grid.h**grid.n)
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# CSV serialization: header "x,value" (1-D) or "x,y,value" (2-D), interior
# nodes in lexicographic coordinate order, 17 significant digits.
# ---------------------------------------------------------------------------


def _rows(u: GridFunction) -> Iterator[tuple[tuple[float, ...], float]]:
    grid = u.grid
    coords = grid.node_coords()
    if grid.n == 1:
        for i, x in enumerate(coords[0]):
            yield (x,), float(u.values[i])
    else:
        for i, x in enumerate(coords[0]):
            for j, y in enumerate(coords[1]):
                yield (x, y), float(u.values[i, j])


def write_grid_function(u: GridFunction, path: str) -> None:
    """Write a nodal field as CSV with coordinates, deterministically."""
    header = "x,value" if u.grid.n == 1 else "x,y,value"
    lines = [header]
    for point, value in _rows(u):
        coord_part = ",".join(f"{c:.17g}" for c in point)
        lines.append(f"{coord_part},{value:.17g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_grid_function(path: str, grid: Grid | None = None) -> GridFunction:
    """Read a nodal field written by write_grid_function.

    The grid is inferred from the header and the row count, then checked
    against `grid` when one is supplied.  Coordinates must match the node
    lattice of the inferred grid to 1e-12.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty grid-function file")
    header = lines[0]
    if header == "x,value":
        n = 1
    elif header == "x,y,value":
        n = 2
    else:
        raise ValueError(f"{path}: unrecognized header {header!r}")
    data = np.array(
        [[float(tok) for tok in line.split(",")] for line in lines[1:]], dtype=float
    )
    if data.ndim != 2 or data.shape[1] != n + 1:
        raise ValueError(f"{path}: malformed rows")
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
