"""Inexact Newton-CG solver for the discrete double-phase problem.

Each step solves the Newton system H(u) d = g approximately, where H is
the Hessian of the power terms and g the nodal energy gradient, and then
takes the Armijo step u - t*d by backtracking from t = 1.  The system is
solved by truncated conjugate gradients (Steihaug), preconditioned by the
preconditioner the stencil record holds, from d = 0 to the relative
residual of an Eisenstat-Walker forcing term; the residual is measured
unpreconditioned.  The forcing term is capped at _ETA_MAX, and the cap
halves after _CAP_STEPS consecutive steps within 1% of it: a term held at
its cap stops CG after about one product, so each step is a preconditioned
gradient step that shrinks |g| too little to lower the next term.  Where
the weight vanishes that crept (8 922 steps on a 2-D m = 63 ramp with
q = 1.5 and eps_reg 1e-6, 215 with the cut).

On a 2-D grid with m >= 15 whose weight is positive on every edge, H is a
smooth variable-coefficient 5-point operator, and the record holds a
diagonally scaled sine-basis solve of the Laplacian, a fast direct solve
that cuts the products about tenfold on such problems; every other record
holds the Jacobi diagonal of H (see energy._preconditioner).
CG truncates when it runs out of iterations or meets a direction whose
curvature is non-positive or numerically null (at most a 1e-12 fraction of
the Gershgorin bound of H); it then returns its current iterate, or g
itself, the steepest-descent direction, when the first direction already
failed.  At eps_reg = 0, where H can be singular (the coefficients vanish
on edges with a zero difference where mu = 0), the method thus degrades to
gradient descent instead of failing; where a diagonal entry of H vanishes
the stencil record holds no preconditioner, and CG runs with the
identity, which rounds as none.  report.cg_curvature_stops counts the
Newton steps whose CG ended on that curvature test.

CG iterates on flat vectors, and every reduction of the Krylov loops here
and in the control module is a BLAS dot: CG's own, the gradient norms,
the slopes and f.d.  Up to _DOT_CHUNK elements it is one ndarray.dot;
longer vectors sum ndarray.dot over chunks of _DOT_CHUNK, in order, since
OpenBLAS splits a longer ddot over its threads and the bits would follow
the thread count.  The sine-basis preconditioner multiplies by its basis
in row blocks small enough for a one-thread GEMM, so a run repeats its
bits on one machine at any thread count; another CPU's ddot kernel may
round differently in the last bits.

Convergence is declared on the max-norm of the energy gradient, whose
component at node k is the weak residual against the indicator of node k
over the cell volume, so report.weak_check <= tol_grad * h**n if converged.
weak_check is one O(N) pass over the edge fluxes that never calls the
gradient's divergence kernels, bit-identical to weak_residual per indicator.

The conjugate-gradient routine and the backtracking line search are shared
with the adjoint solves and the outer loop of the control module.  CG has
one loop path, preconditioned or not, and returns the number of products
it made, which each caller adds to its own count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .energy import (
    Exponents,
    WeightField,
    _flux,
    _hessian_product,
    _linearization,
    _pseudo_operator,
    _raw_energy_decrease,
    energy,
)
from .grid import GridFunction, _axis_sum, _diffs, _node_edges

__all__ = ["SolverConfig", "SolveReport", "solve_inner"]

#: Below this trial step the line search is declared stalled.
STEP_FLOOR = 1e-16

#: The Armijo constant and step shrink factor of the one line search, which
#: Newton and the control loop's outer steps share.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5

#: CG treats a direction p with p.Hp <= _CURVATURE_FLOOR * (Gershgorin bound
#: of H) * p.p as having null curvature.
_CURVATURE_FLOOR = 1e-12

# Eisenstat-Walker forcing terms, their choice 2 with the recommended
# constants: eta = GAMMA * (|g_k| / |g_{k-1}|)**ALPHA, kept above
# GAMMA * eta_prev**ALPHA while that exceeds 0.1, and at most ETA_MAX.
_ETA_0 = 0.5
_ETA_MAX = 0.9
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0

#: After _CAP_STEPS consecutive Newton steps whose forcing term lies within
#: the fraction _CAP_BAND of the cap, the cap is multiplied by _CAP_CUT.
_CAP_STEPS = 10
_CAP_BAND = 0.01
_CAP_CUT = 0.5

#: A dot of more elements sums the ddots of chunks this long, in order: a
#: ddot of at most 10 000 elements runs on one OpenBLAS thread.
_DOT_CHUNK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of a and b over their flat views, by BLAS ddots.

    One ddot up to _DOT_CHUNK elements; above, the ddots of consecutive
    _DOT_CHUNK-element chunks added in order.  It rounds unlike np.sum's
    pairwise sum.  Its bits depend on the length and the values, not on
    where the operands sit in memory or on the BLAS thread count, so a run
    repeats itself on one machine; a CPU that selects another ddot kernel
    may differ in the last bits.
    """
    a, b = a.ravel(), b.ravel()
    if a.size <= _DOT_CHUNK:
        return float(a.dot(b))
    total = 0.0
    for i in range(0, a.size, _DOT_CHUNK):
        total += float(a[i : i + _DOT_CHUNK].dot(b[i : i + _DOT_CHUNK]))
    return total


def _cg(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float,
    max_iters: int,
    curvature_floor: float = 0.0,
    precondition: Callable[[np.ndarray, np.ndarray], object] | None = None,
) -> tuple[np.ndarray, str, int]:
    """Conjugate gradients for A x = b from x = 0; returns (x, reason, products).

    precondition(r, out) writes M r into out for a symmetric positive
    definite M; None stands for the identity, which rounds as none.  reason
    is "converged" once the unpreconditioned residual has |r| <= tol * |b|,
    "curvature" when a search direction p has p.Ap <= curvature_floor * p.p,
    and "max_iters" when the iterations run out.  On "curvature" x is the
    iterate before that direction, or b itself when the first direction
    already failed.  products counts the calls of apply_A.

    The iteration runs on flat vectors with the dots of _dot; apply_A gets
    a view of the direction in b's shape, which it must not keep, and
    precondition gets the flat residual.
    """
    shape = b.shape
    r = b.ravel().astype(float)
    x = np.zeros(r.size)
    b_norm = math.sqrt(_dot(r, r))
    if b_norm == 0.0:
        return x.reshape(shape), "converged", 0
    if precondition is None:
        precondition = _identity
    z = np.empty_like(r)
    precondition(r, z)
    p = z.copy()
    p_view = p.reshape(shape)
    tmp = np.empty_like(r)
    rz = _dot(r, z)
    for k in range(max_iters):
        Ap = apply_A(p_view).ravel()
        pAp = _dot(p, Ap)
        # 0.0 * p.p is 0: without a floor, p.p is not needed.
        if pAp <= (curvature_floor * _dot(p, p) if curvature_floor else 0.0):
            return (b if k == 0 else x.reshape(shape)), "curvature", k + 1
        alpha = rz / pAp
        # p*alpha into tmp rounds as alpha*p, without a temporary.
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(Ap, alpha, out=tmp)
        # A product returns a fresh array: hold one at a time, not two.
        del Ap
        rr = _dot(r, r)
        if math.sqrt(rr) <= tol * b_norm:
            return x.reshape(shape), "converged", k + 1
        precondition(r, z)
        rz_new = _dot(r, z)
        # p*beta + z rounds as z + beta*p.
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x.reshape(shape), "max_iters", max_iters


def _identity(r: np.ndarray, out: np.ndarray) -> None:
    """out = r: CG's preconditioner when it is given none."""
    np.copyto(out, r)


def _forcing_term(
    eta: float, g_norm: float, prev_norm: float, tol_grad: float, cap: float
) -> float:
    """The Eisenstat-Walker forcing term that follows eta, at most cap.

    Kept above 0.5 * tol_grad / g_norm: a linear residual below half the
    tolerance buys nothing.
    """
    new = _EW_GAMMA * (g_norm / prev_norm) ** _EW_ALPHA
    safeguard = _EW_GAMMA * eta**_EW_ALPHA
    if safeguard > 0.1:
        new = max(new, safeguard)
    return max(min(new, cap), 0.5 * tol_grad / g_norm)


def _backtrack(
    trial: Callable[[float], tuple[float, object]],
    ref: float,
    cell: float,
    slope: float,
) -> tuple[float, float, object] | None:
    """Armijo backtracking over the trial steps 1, _BACKTRACK, ... >= STEP_FLOOR.

    trial(t) returns (value, payload); the first step whose value is finite
    and at most ref - t * (_ARMIJO_C * cell * slope) is accepted and returned
    as (t, value, payload).  None means every step above the floor failed.
    """
    t = 1.0
    while t >= STEP_FLOOR:
        value, payload = trial(t)
        if np.isfinite(value) and value <= ref - t * (_ARMIJO_C * cell * slope):
            return t, value, payload
        t *= _BACKTRACK
    return None


@dataclass(frozen=True)
class SolverConfig:
    tol_grad: float = 1e-8
    max_iters: int = 50_000  # Newton steps

    def __post_init__(self) -> None:
        if not (self.tol_grad > 0.0 and math.isfinite(self.tol_grad)):
            raise ValueError(f"tol_grad must be finite and positive, got {self.tol_grad}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Newton run; immutable."""

    u_star: GridFunction
    iterations: int  # Newton steps taken
    matvecs: int  # Hessian products spent on the Newton systems
    cg_curvature_stops: int  # Newton steps whose CG ended on the curvature test
    final_grad_norm: float
    energy_trace: tuple[float, ...]
    weak_check: float
    status: str  # "converged" | "max_iters" | "stalled"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _nodal_weak_residuals(
    u: GridFunction, f: GridFunction, mu: WeightField, e: Exponents
) -> np.ndarray:
    """weak_residual(u, f, mu, e, phi) for every nodal indicator phi at once.

    phi of node k differences to 1/h on edge k and -1/h on edge k+1 of each
    axis, so each node repeats weak_residual's roundings on F[k] and F[k+1].
    """
    h = u.grid.h
    cell = h**u.grid.n
    flux = _flux(_diffs(u.values, h), mu.edges, e)
    ends = zip(_node_edges(flux * (1.0 / h)), _node_edges(flux * (-1.0 / h)))
    nodal = np.empty((u.grid.n,) + u.grid.shape)
    for ((low, _), (_, high)), out in zip(ends, nodal):
        np.add(low, high, out=out)
    nodal *= cell
    return _axis_sum(nodal) - f.values * cell


def solve_inner(
    f: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: SolverConfig = SolverConfig(),
    init: GridFunction | None = None,
) -> SolveReport:
    """Minimize the discrete energy for forcing f from init, by default zero.

    Never raises on slow runs: returns the best iterate with status
    "max_iters" or "stalled" when the Newton step cap is hit or no
    representable step makes certified progress; status "converged" means
    final_grad_norm <= tol_grad.  The energy trace holds the initial energy
    followed by the post-step values.  Every accepted step is certified to
    decrease J, so the trace never increases; a value repeats only when the
    certified decrease is below the rounding of J.  Raises ValueError when f
    or init is not finite, or init lives on another grid.
    """
    grid = f.grid
    u = GridFunction.zeros(grid) if init is None else init
    if u.grid != grid:
        raise ValueError("initial iterate lives on a different grid")
    for name, field in (("forcing", f), ("initial iterate", u)):
        if not np.all(np.isfinite(field.values)):
            raise ValueError(f"{name} values must be finite")

    p, q, eps2 = e.p, e.q, e.eps_reg**2
    h = grid.h
    cell = h**grid.n
    gershgorin = 4.0 * grid.n / h**2
    vals = u.values.copy()
    f_vals = f.values
    mu_edges = mu.edges

    j_val = energy(u, f, mu, e).total
    diffs = _diffs(vals, h)
    g = _pseudo_operator(diffs, mu_edges, e, h) - f_vals
    trace = [j_val]
    status = "max_iters"
    iterations = 0
    matvecs = 0
    curvature_stops = 0
    eta = _ETA_0
    cap = _ETA_MAX
    at_cap = 0
    prev_norm: float | None = None

    for _ in range(cfg.max_iters):
        if float(abs(g).max()) <= cfg.tol_grad:
            status = "converged"
            break

        g_norm = math.sqrt(_dot(g, g))
        if prev_norm is not None:
            eta = _forcing_term(eta, g_norm, prev_norm, cfg.tol_grad, cap)
        prev_norm = g_norm
        at_cap = at_cap + 1 if eta >= (1.0 - _CAP_BAND) * cap else 0
        if at_cap == _CAP_STEPS:
            cap *= _CAP_CUT
            at_cap = 0
        lin = _linearization(diffs, mu_edges, e, h)
        floor = _CURVATURE_FLOOR * gershgorin * float(lin.coeffs.max())
        d, reason, products = _cg(
            partial(_hessian_product, lin), g, eta, vals.size, floor, lin.precondition
        )
        matvecs += products
        curvature_stops += reason == "curvature"
        slope = _dot(g, d)
        if not slope > 0.0:
            # Round-off can tip a long CG iterate off descent; the Armijo
            # test needs a positive slope to certify a decrease.
            d, slope = g, _dot(g, g)
        decrease = _raw_energy_decrease(
            diffs, _diffs(d, h), cell * _dot(f_vals, d), mu_edges, p, q, eps2, cell
        )

        def trial(t: float) -> tuple[float, None]:
            return decrease(t), None

        accepted = _backtrack(trial, 0.0, cell, slope)
        if accepted is None:
            status = "stalled"
            break
        t, dj, _ = accepted
        new_vals = vals - t * d
        if (new_vals == vals).all():
            # The certified step is below the resolution of the iterate.
            status = "stalled"
            break

        vals = new_vals
        diffs = _diffs(vals, h)
        g = _pseudo_operator(diffs, mu_edges, e, h) - f_vals
        j_val = j_val + dj
        trace.append(j_val)
        iterations += 1

    final_grad_norm = float(abs(g).max())
    if status != "converged" and final_grad_norm <= cfg.tol_grad:
        # The cap landed exactly on a converged iterate.
        status = "converged"
    u = GridFunction(grid, vals)
    return SolveReport(
        u_star=u,
        iterations=iterations,
        matvecs=matvecs,
        cg_curvature_stops=curvature_stops,
        final_grad_norm=final_grad_norm,
        energy_trace=tuple(trace),
        weak_check=float(np.max(np.abs(_nodal_weak_residuals(u, f, mu, e)))),
        status=status,
    )
