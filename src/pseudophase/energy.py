"""Axiswise double-phase energy and its first/second order operators.

The discrete energy on a grid with spacing h is

    J(u) = (1/p) sum_i quad(pi(|d_i u|)^p)
         + (1/q) sum_i quad(mu_i * pi(|d_i u|)^q)
         - quad(f*u),

where d_i is the forward difference along axis i, mu_i the per-edge weight,
and pi(s) = sqrt(s^2 + eps^2) the regularization applied inside the powers
(eps = 0 recovers the unregularized energy exactly).  Everything else in
this module is an exact consequence of that one formula:

* energy_gradient is the exact nodal gradient of J scaled by 1/h^n, so
  <energy_gradient(u), w>_h equals d/dt J(u + t*w) at t = 0;
* apply_pseudo_operator is the gradient of the power terms alone, i.e.
  u -> sum_i -d_i(pi(|d_i u|)^(p-2) d_i u + mu pi(|d_i u|)^(q-2) d_i u)
  in the discrete sense, and the minimizer equation reads
  apply_pseudo_operator(u) = f;
* weak_residual pairs the edge fluxes against d_i(phi) and agrees with
  <energy_gradient, phi>_h to round-off (summation by parts is exact here);
* hessian_apply is the exact linearization of energy_gradient.

apply_divergence_operator is the odd one out: it discretizes the operator
whose flux coefficient depends on the full Euclidean gradient magnitude
rather than one axis derivative at a time.  The two only coincide for
p = q = 2 or in one dimension; elsewhere the gap is structural, and
exhibiting it is the point of keeping both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import SingularLinearizationError
from .grid import (
    Grid,
    GridFunction,
    _diff,
    _diffs,
    _neg_div_sum,
    _row_sums,
    inner_product,
)

__all__ = [
    "Exponents",
    "WeightField",
    "EnergyBreakdown",
    "validate_exponents",
    "energy",
    "energy_gradient",
    "apply_pseudo_operator",
    "apply_divergence_operator",
    "weak_residual",
    "hessian_apply",
]

#: Default regularization width; mandatory (any positive value) when
#: min(p, q) < 2, since the flux coefficient |g|^(q-2) blows up at g = 0.
DEFAULT_EPS_REG = 1e-8

_STRICT_TOL = 1e-12


@dataclass(frozen=True)
class Exponents:
    """Growth exponents of the two phases plus the regularization width.

    The contract is q <= p with q < p in the two-phase regime proper;
    p = q is admitted only so the quadratic sanity problems (p = q = 2)
    can run through the same code path.  With strict_sobolev set, p and q
    are additionally tied by 1/p = 1/q - 1/n, which forces q < n.
    """

    p: float
    q: float
    n: int
    eps_reg: float = DEFAULT_EPS_REG
    strict_sobolev: bool = False

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        for name in ("p", "q", "eps_reg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.q > 1.0):
            raise ValueError(f"q must exceed 1, got {self.q}")
        if not (self.p > 1.0):
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.q > self.p:
            raise ValueError(
                f"exponent ordering violated: need q <= p, got q={self.q} > p={self.p}"
            )
        if self.eps_reg < 0.0:
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg}")
        if not math.isfinite(self.eps_reg * self.eps_reg):
            raise ValueError(f"eps_reg**2 must be finite, got eps_reg={self.eps_reg}")
        if min(self.p, self.q) < 2.0 and self.eps_reg == 0.0:
            raise ValueError(
                "eps_reg must be positive when min(p, q) < 2 "
                "(the flux degenerates at vanishing gradients)"
            )
        if self.strict_sobolev:
            if not self.q < self.n:
                raise ValueError(
                    f"strict coupling requires q < n, got q={self.q}, n={self.n}"
                )
            residual = abs(1.0 / self.p - (1.0 / self.q - 1.0 / self.n))
            if residual > _STRICT_TOL:
                raise ValueError(
                    f"strict coupling 1/p = 1/q - 1/n violated by {residual:.3e}"
                )


def validate_exponents(
    q: float,
    n: int,
    mode: str = "strict",
    p_override: float | None = None,
    eps_reg: float = DEFAULT_EPS_REG,
) -> Exponents:
    """Resolve the exponent pair from q, the dimension, and the mode.

    In "strict" mode p is derived from 1/p = 1/q - 1/n (q < n required and
    p_override must be omitted or consistent).  In "relaxed" mode the caller
    supplies p directly, subject to q < p.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    if p_override is not None and not math.isfinite(p_override):
        raise ValueError(f"p must be finite, got {p_override}")
    if mode == "strict":
        if not q < n:
            raise ValueError(
                f"strict coupling requires q < n (got q={q}, n={n}); "
                "1/p = 1/q - 1/n has no admissible p otherwise"
            )
        # The record checks n and q > 1 before 1/q and 1/n are taken.
        Exponents(p=q, q=q, n=n, eps_reg=eps_reg)
        inv_p = 1.0 / q - 1.0 / n
        p = 1.0 / inv_p
        if p_override is not None and abs(p_override - p) > _STRICT_TOL:
            raise ValueError(
                f"p={p_override} contradicts the strict coupling value p={p}"
            )
        return Exponents(p=p, q=q, n=n, eps_reg=eps_reg, strict_sobolev=True)
    if p_override is None:
        raise ValueError("relaxed mode requires an explicit p")
    if p_override <= q:
        raise ValueError(
            f"relaxed mode requires q < p, got q={q}, p={p_override}"
        )
    return Exponents(p=p_override, q=q, n=n, eps_reg=eps_reg, strict_sobolev=False)


@dataclass(frozen=True)
class WeightField:
    """Per-edge samples of the modulating weight mu with its declared bound.

    mu lives on the same staggered lattice as the edge gradients: one array
    per axis.  The invariants are 0 <= mu <= mu_max everywhere and
    mu_max > 0, so the q-phase can switch off locally ({mu = 0}) but the
    declared bound stays meaningful.
    """

    grid: Grid
    per_axis: tuple[np.ndarray, ...]
    mu_max: float

    def __post_init__(self) -> None:
        if self.mu_max <= 0.0:
            raise ValueError(f"mu_max must be positive, got {self.mu_max}")
        if len(self.per_axis) != self.grid.n:
            raise ValueError(
                f"expected {self.grid.n} per-axis weight arrays, got {len(self.per_axis)}"
            )
        frozen = []
        for axis, arr in enumerate(self.per_axis):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != self.grid.edge_shape(axis):
                raise ValueError(
                    f"axis-{axis} weight shape {arr.shape} does not match "
                    f"edge shape {self.grid.edge_shape(axis)}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("weight values must be finite")
            if arr.min(initial=0.0) < 0.0:
                raise ValueError("weight values must be >= 0")
            if arr.max(initial=0.0) > self.mu_max:
                raise ValueError(
                    f"weight values exceed the declared bound mu_max={self.mu_max}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "per_axis", tuple(frozen))

    @classmethod
    def constant(cls, grid: Grid, mu0: float, mu_max: float | None = None) -> WeightField:
        if mu_max is None:
            mu_max = mu0 if mu0 > 0.0 else 1.0
        arrays = tuple(np.full(grid.edge_shape(a), float(mu0)) for a in range(grid.n))
        return cls(grid, arrays, mu_max)

    @classmethod
    def from_edge_values(
        cls, grid: Grid, per_axis: Sequence[np.ndarray], mu_max: float | None = None
    ) -> WeightField:
        if mu_max is None:
            mu_max = max((float(np.max(a, initial=0.0)) for a in per_axis), default=0.0)
            if mu_max <= 0.0:
                mu_max = 1.0
        return cls(grid, tuple(per_axis), mu_max)

    @classmethod
    def from_nodal(
        cls, grid: Grid, nodal: GridFunction, mu_max: float | None = None
    ) -> WeightField:
        """Average nodal weight samples onto edge midpoints.

        Interior edges take the mean of their two endpoint values; edges
        touching the boundary extend the nearest interior value.
        """
        arrays = []
        for axis in range(grid.n):
            pair_sum = np.empty(grid.edge_shape(axis))
            s = pair_sum.swapaxes(0, axis)
            v = nodal.values.swapaxes(0, axis)
            np.add(v[:1], v[:1], out=s[:1])
            np.add(v[:-1], v[1:], out=s[1:-1])
            np.add(v[-1:], v[-1:], out=s[-1:])
            arrays.append(0.5 * pair_sum)
        return cls.from_edge_values(grid, arrays, mu_max)

    @classmethod
    def ramp(cls, grid: Grid, mu_max: float = 1.0) -> WeightField:
        """Two-phase profile mu(x) = mu_max * max(0, 2x - 1).

        Identically zero on the left half of the box and linear on the
        right half, so both growth regimes are active at once.
        """
        h, lead = grid.h, (-1,) + (1,) * (grid.n - 1)
        arrays = []
        for axis in range(grid.n):
            # x at the edge midpoints: half-integer along axis 0, nodes across it.
            if axis == 0:
                x = h * (np.arange(grid.m + 1, dtype=float) + 0.5)
            else:
                x = h * np.arange(1, grid.m + 1, dtype=float)
            ramp = mu_max * np.maximum(0.0, 2.0 * x - 1.0)
            arrays.append(np.broadcast_to(ramp.reshape(lead), grid.edge_shape(axis)))
        return cls(grid, tuple(arrays), mu_max)


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three pieces of J(u) plus their signed total."""

    p_term: float
    q_term: float
    load_term: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", self.p_term + self.q_term - self.load_term)


def _check_same_grid(grid: Grid, *fields: GridFunction) -> None:
    for f in fields:
        if f.grid != grid:
            raise ValueError("grid mismatch between fields")


def _check_problem(u: GridFunction, mu: WeightField, e: Exponents) -> None:
    if mu.grid != u.grid:
        raise ValueError("grid mismatch between field and weight")
    if e.n != u.grid.n:
        raise ValueError(
            f"exponent dimension n={e.n} does not match grid dimension {u.grid.n}"
        )


def energy(
    u: GridFunction, f: GridFunction, mu: WeightField, e: Exponents
) -> EnergyBreakdown:
    """Evaluate J(u) and report its three pieces.

    total = p_term + q_term - load_term holds exactly by construction.
    """
    _check_problem(u, mu, e)
    _check_same_grid(u.grid, f)
    p_term, q_term = _energy_terms(u.values[None], mu, e)
    return EnergyBreakdown(
        p_term=float(p_term[0]), q_term=float(q_term[0]), load_term=inner_product(f, u)
    )


def _energy_terms(
    stack: np.ndarray, mu: WeightField, e: Exponents
) -> tuple[np.ndarray, np.ndarray]:
    """p_term and q_term of J for every nodal array in a stack.

    The stack has a leading point axis; per point the arithmetic is the
    single-field one, axis terms added from 0.0 up.  Each axis works inside
    the edge array _diff returns, with s2 ** (p/2) the one other temporary,
    and frees it before the next.  At zero forcing J is p_term + q_term, bit
    for bit, since x - (+-0.0) == x; energy() adds the load term.
    """
    grid = mu.grid
    cell = grid.h**grid.n
    eps2 = e.eps_reg**2
    p_term = np.zeros(len(stack))
    q_term = np.zeros(len(stack))
    for axis in range(grid.n):
        s2 = _diff(stack, axis + 1, grid.h)
        s2 *= s2
        s2 += eps2
        p_term += _row_sums(s2 ** (e.p / 2.0)) * cell / e.p
        s2 **= e.q / 2.0
        s2 *= mu.per_axis[axis]
        q_term += _row_sums(s2) * cell / e.q
        del s2
    return p_term, q_term


def _flux(g: np.ndarray, mu_axis: np.ndarray, e: Exponents) -> np.ndarray:
    """Edge flux pi(g)^(p-2) g + mu pi(g)^(q-2) g of one axis."""
    s2 = g * g + e.eps_reg**2
    return s2 ** ((e.p - 2.0) / 2.0) * g + mu_axis * s2 ** ((e.q - 2.0) / 2.0) * g


def _pseudo_operator(
    diffs: list[np.ndarray], mu_axes: tuple[np.ndarray, ...], e: Exponents, h: float
) -> np.ndarray:
    """apply_pseudo_operator from the edge differences of u (minus f: the gradient)."""
    return _neg_div_sum([_flux(g, mu_axes[axis], e) for axis, g in enumerate(diffs)], h)


def apply_pseudo_operator(
    u: GridFunction, mu: WeightField, e: Exponents
) -> GridFunction:
    """Axiswise flux operator: sum_i neg_div_i of the per-axis fluxes.

    This is the gradient of the power terms of J, so a minimizer satisfies
    apply_pseudo_operator(u) = f nodally.
    """
    _check_problem(u, mu, e)
    h = u.grid.h
    return GridFunction(u.grid, _pseudo_operator(_diffs(u.values, h), mu.per_axis, e, h))


def energy_gradient(
    u: GridFunction, f: GridFunction, mu: WeightField, e: Exponents
) -> GridFunction:
    """Nodal gradient of J: apply_pseudo_operator(u) - f.

    Scaled so that <energy_gradient(u), w>_h = d/dt J(u + t*w) at t = 0,
    i.e. component k is the weak residual against the indicator of node k
    divided by the cell volume h^n.
    """
    _check_same_grid(u.grid, f)
    a = apply_pseudo_operator(u, mu, e)
    return GridFunction(u.grid, a.values - f.values)


def _transverse_sq(diffs: list[np.ndarray], axis: int) -> np.ndarray:
    """Squared transverse difference averaged to the axis-`axis` edges.

    In 2-D, each axis-0 edge midpoint sees four neighboring axis-1
    differences (two per endpoint); their mean reconstructs the transverse
    derivative at the midpoint.  Differences at boundary endpoints vanish
    because the boundary data is identically zero along the boundary.
    In 1-D there is no transverse direction and the result is zero.
    """
    if len(diffs) == 1:
        return np.zeros(diffs[0].shape)
    # g[k, j] is the transverse difference at index k along `axis` on
    # transverse edge j; a boundary endpoint contributes a zero row.
    g = diffs[1 - axis].swapaxes(0, axis)
    pairs = g[:, :-1] + g[:, 1:]
    avg = np.empty(diffs[axis].shape)
    block = avg.swapaxes(0, axis)
    block[0] = pairs[0]
    block[1:-1] = pairs[:-1] + g[1:, :-1] + g[1:, 1:]
    block[-1] = pairs[-1]
    avg *= 0.25
    return avg * avg


def apply_divergence_operator(
    u: GridFunction, mu: WeightField, e: Exponents
) -> GridFunction:
    """Full-gradient flux operator (the divergence-form counterpart).

    The flux along axis i is (pi(|grad u|)^(p-2) + mu pi(|grad u|)^(q-2)) d_i u
    with |grad u| the Euclidean magnitude reconstructed at the edge midpoint.
    Coincides with apply_pseudo_operator in 1-D and for p = q = 2; differs
    structurally otherwise.
    """
    _check_problem(u, mu, e)
    grid = u.grid
    eps2 = e.eps_reg**2
    diffs = _diffs(u.values, grid.h)
    fluxes = []
    for axis, g in enumerate(diffs):
        mag2 = g * g + _transverse_sq(diffs, axis) + eps2
        fluxes.append(
            mag2 ** ((e.p - 2.0) / 2.0) * g + mu.per_axis[axis] * mag2 ** ((e.q - 2.0) / 2.0) * g
        )
    return GridFunction(grid, _neg_div_sum(fluxes, grid.h))


def weak_residual(
    u: GridFunction,
    f: GridFunction,
    mu: WeightField,
    e: Exponents,
    phi: GridFunction,
) -> float:
    """Weak-form residual of u against one test field phi.

    sum_i quad(flux_i * d_i phi) - quad(f * phi); zero for all phi exactly
    when u solves the discrete problem.  Agrees with
    <energy_gradient(u, f), phi>_h to round-off by summation by parts.
    """
    _check_problem(u, mu, e)
    _check_same_grid(u.grid, f, phi)
    grid = u.grid
    cell = grid.h**grid.n
    total = 0.0
    for axis, g in enumerate(_diffs(u.values, grid.h)):
        dphi = _diff(phi.values, axis, grid.h)
        total += float(np.sum(_flux(g, mu.per_axis[axis], e) * dphi)) * cell
    total -= float(np.sum(f.values * phi.values)) * cell
    return total


def _hessian_coeff(g: np.ndarray, mu_axis: np.ndarray, e: Exponents) -> np.ndarray:
    """Edge coefficient of the linearization: the derivative of _flux in g.

    With eps_reg = 0 it vanishes on every edge where g = 0 and the active
    powers exceed 2; _linearization then marks its record singular.
    """
    g2 = g * g
    if e.eps_reg == 0.0:
        # pi = |g| exactly; exponents are >= 2 here (smaller ones require
        # eps_reg > 0 at construction), so g2**((p-2)/2) is well defined.
        coeff = (e.p - 1.0) * g2 ** ((e.p - 2.0) / 2.0)
        return coeff + mu_axis * (e.q - 1.0) * g2 ** ((e.q - 2.0) / 2.0)
    eps2 = e.eps_reg**2
    s2 = g2 + eps2
    coeff = s2 ** ((e.p - 4.0) / 2.0) * ((e.p - 1.0) * g2 + eps2)
    return coeff + mu_axis * s2 ** ((e.q - 4.0) / 2.0) * ((e.q - 1.0) * g2 + eps2)


@dataclass(frozen=True)
class _Linearization:
    """The Hessian of the power terms at one state, as a 5-point stencil.

    coeffs[i] holds the axis-i edge coefficients (_hessian_coeff).  Per
    node, diag is the sum over axes of the two edge coefficients around it
    over h^2; the boundary edges couple to the Dirichlet zeros and only
    enter diag.  legs holds per axis (off, s, tmp) over the nodes in C
    order: off[k] couples node k to node k + s over h^2 (s = m for axis 0
    in 2-D, else 1), 0.0 where that pair crosses a row end, and tmp is a
    view of the one scratch buffer.  singular is set when eps_reg = 0 and a
    coefficient vanishes; _check_nonsingular reads it.  diag is
    hessian_apply(u, e_k)[k] by construction, and inv_diag, the Jacobi
    preconditioner of every CG over the record, is 1.0 / diag, or None
    unless every entry of diag is a normal positive float: an entry vanishes
    only at eps_reg = 0, where every coefficient around a node does.
    """

    coeffs: tuple[np.ndarray, ...]
    diag: np.ndarray
    inv_diag: np.ndarray | None
    legs: tuple[tuple[np.ndarray, int, np.ndarray], ...]
    singular: bool


def _linearization(
    diffs: list[np.ndarray], mu_axes: tuple[np.ndarray, ...], e: Exponents, h: float
) -> _Linearization:
    """The stencil record at a state, built once from its edge differences."""
    coeffs = tuple(_hessian_coeff(g, mu_axes[axis], e) for axis, g in enumerate(diffs))
    inv_h2 = 1.0 / (h * h)
    scaled = coeffs[0] * inv_h2
    m = len(scaled) - 1
    diag = scaled[:-1] + scaled[1:]
    # Flat, the interior axis-0 edges already sit m nodes apart: a view.
    legs = [(scaled[1:-1].ravel(), m ** (len(coeffs) - 1))]
    if len(coeffs) == 2:
        scaled = coeffs[1] * inv_h2
        diag = diag + (scaled[:, :-1] + scaled[:, 1:])
        off = scaled[:, 1:].ravel()
        off[m - 1 :: m] = 0.0  # the right boundary edges: pairs across a row end
        legs.append((off[:-1], 1))
    scratch = np.empty(diag.size - 1)
    legs = tuple((off, s, scratch[: off.size]) for off, s in legs)
    normal = np.finfo(float)
    # A nan minimum or maximum fails its test too.
    inv_diag = 1.0 / diag if diag.min() >= normal.tiny and diag.max() <= normal.max else None
    singular = e.eps_reg == 0.0 and any(np.any(c == 0.0) for c in coeffs)
    return _Linearization(coeffs, diag, inv_diag, legs, singular)


def _check_nonsingular(lin: _Linearization) -> None:
    """Raise SingularLinearizationError if a coefficient vanishes with eps_reg = 0."""
    if lin.singular:
        raise SingularLinearizationError(
            "zero linearization coefficient on an edge with eps_reg = 0; "
            "re-run with a positive regularization width"
        )


def _hessian_product(lin: _Linearization, w: np.ndarray) -> np.ndarray:
    """diag*w minus the neighbour couplings: the product of hessian_apply, Newton and the adjoint.

    Equal to sum_i neg_div_i(a_i * d_i w) up to rounding; returns a fresh
    array.  Per axis it makes two contiguous passes over the flat nodes; a
    padded pair subtracts 0.0*w, which changes no value when w is finite
    (a -0.0 can turn +0.0).
    """
    out = lin.diag * w  # C-ordered whatever w's layout, like diag
    o, v = out.ravel(), w.ravel()
    for off, s, tmp in lin.legs:
        below, above = o[:-s], o[s:]
        below -= np.multiply(off, v[s:], out=tmp)
        above -= np.multiply(off, v[:-s], out=tmp)
    return out


def hessian_apply(
    u: GridFunction, w: GridFunction, mu: WeightField, e: Exponents
) -> GridFunction:
    """Action of the second derivative of the power terms at u on w.

    The per-axis edge coefficient is the exact derivative of the flux with
    respect to the edge gradient g,

        a = pi(g)^(p-4) ((p-1) g^2 + eps^2)
          + mu pi(g)^(q-4) ((q-1) g^2 + eps^2),

    which reduces to (p-1)|g|^(p-2) + mu (q-1)|g|^(q-2) at eps = 0.  The
    result is sum_i neg_div_i(a_i * d_i w), applied as the 5-point stencil
    that Newton and the adjoint solves use: symmetric in the quadrature
    pairing and positive semidefinite, positive definite when every
    coefficient is positive.  Raises SingularLinearizationError when a
    coefficient vanishes with eps_reg = 0.
    """
    _check_problem(u, mu, e)
    _check_same_grid(u.grid, w)
    h = u.grid.h
    lin = _linearization(_diffs(u.values, h), mu.per_axis, e, h)
    _check_nonsingular(lin)
    return GridFunction(u.grid, _hessian_product(lin, w.values))


def _raw_energy_decrease(
    diffs: list[np.ndarray],
    dir_diffs: list[np.ndarray],
    f_dot_dir: float,
    mu_axes: tuple[np.ndarray, ...],
    p: float,
    q: float,
    eps2: float,
    cell: float,
) -> Callable[[float], float]:
    """t -> J(u - t*d) - J(u), evaluated to *relative* precision.

    Subtracting two full energies loses every digit once the step change
    drops below the round-off of J itself, which freezes line searches at
    gradient norms far above the requested tolerance.  Writing the per-edge
    change as s2^(p/2) * expm1(p/2 * log1p(delta/s2)) with
    delta = gt^2 - g^2 = -t*d*(2g - t*d) keeps the result accurate at any
    magnitude, so an Armijo decrease can be certified arbitrarily close to
    the minimizer.  f_dot_dir is cell * sum(f * d).  What does not depend on
    t (s2, its two powers and, at eps2 = 0, the edges where s2 vanishes) is
    computed once here, not once per trial step.
    """
    axes = []
    for g, dg, mu in zip(diffs, dir_diffs, mu_axes):
        s2 = g * g + eps2
        zero = None
        if eps2 == 0.0:
            zero = s2 == 0.0
            if not zero.any():
                zero = None
        with np.errstate(over="ignore"):
            axes.append((g, dg, mu, s2, s2 ** (p / 2.0), s2 ** (q / 2.0), zero))

    def decrease(t: float) -> float:
        total = t * f_dot_dir
        for g, dg, mu, s2, s2_p, s2_q, zero in axes:
            gt = g - t * dg
            delta = -t * dg * (g + gt)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                log_r = np.log1p(np.maximum(delta / s2, -1.0))
                dp = s2_p * np.expm1(0.5 * p * log_r)
                dq = s2_q * np.expm1(0.5 * q * log_r)
            if zero is not None:
                s2t = gt * gt
                dp = np.where(zero, s2t ** (p / 2.0), dp)
                dq = np.where(zero, s2t ** (q / 2.0), dq)
            total += float(np.add.reduce(dp, axis=None)) * cell / p
            total += float(np.add.reduce(mu * dq, axis=None)) * cell / q
        return total

    return decrease
