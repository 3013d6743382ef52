"""Energy-descent solver for the discrete double-phase problem.

Plain gradient descent with Armijo backtracking; the initial trial step of
each iteration is a Barzilai-Borwein ratio from the previous accepted step
when that ratio is positive, else 1.0.  No Newton step anywhere: the
second-order coefficients degenerate where gradients vanish, and descent
with backtracking is robust to that.

Convergence is declared on the max-norm of the energy gradient.  Because
the gradient component at node k equals the weak residual against the
nodal indicator at k divided by the cell volume, the weak-form certificate
report.weak_check <= tol_grad * h**n is an identity for converged reports,
not an approximation.

The Barzilai-Borwein step and the backtracking line search are shared with
the outer control loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .energy import (
    Exponents,
    WeightField,
    _pseudo_operator,
    _raw_energy_decrease,
    energy,
    weak_residual,
)
from .grid import GridFunction, _diffs

__all__ = ["SolverConfig", "SolveReport", "solve_inner"]

#: Below this trial step the line search is declared stalled.
STEP_FLOOR = 1e-16

_BB_CLAMP = (1e-14, 1e14)


def _bb_step(prev_s: np.ndarray | None, prev_y: np.ndarray | None) -> float:
    """Barzilai-Borwein trial step s.s / s.y from the last accepted step.

    Clamped to _BB_CLAMP; 1.0 before the first step or when s.y <= 0.
    """
    if prev_s is None:
        return 1.0
    sy = float(np.dot(prev_s.ravel(), prev_y.ravel()))
    if not sy > 0.0:
        return 1.0
    ss = float(np.dot(prev_s.ravel(), prev_s.ravel()))
    return min(max(ss / sy, _BB_CLAMP[0]), _BB_CLAMP[1])


def _backtrack(
    trial: Callable[[float], tuple[float, object]],
    t: float,
    shrink: float,
    ref: float,
    slope: float,
) -> tuple[float, float, object] | None:
    """Armijo backtracking over the trial steps t, t*shrink, ... >= STEP_FLOOR.

    trial(t) returns (value, payload); the first step whose value is finite
    and at most ref - t*slope is accepted and returned as (t, value,
    payload).  None means every step above the floor failed.
    """
    while t >= STEP_FLOOR:
        value, payload = trial(t)
        if np.isfinite(value) and value <= ref - t * slope:
            return t, value, payload
        t *= shrink
    return None


@dataclass(frozen=True)
class SolverConfig:
    tol_grad: float = 1e-8
    max_iters: int = 50_000
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    init: GridFunction | None = None

    def __post_init__(self) -> None:
        if not self.tol_grad > 0.0:
            raise ValueError(f"tol_grad must be positive, got {self.tol_grad}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError(f"armijo_c must lie in (0,1), got {self.armijo_c}")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError(f"backtrack must lie in (0,1), got {self.backtrack}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one descent run; immutable."""

    u_star: GridFunction
    iterations: int
    final_grad_norm: float
    energy_trace: tuple[float, ...]
    weak_check: float
    status: str  # "converged" | "max_iters" | "stalled"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _nodal_indicators(u: GridFunction) -> Iterator[GridFunction]:
    template = np.zeros(u.grid.shape)
    for index in np.ndindex(*u.grid.shape):
        template[index] = 1.0
        yield GridFunction(u.grid, template)
        template[index] = 0.0


def _max_nodal_weak_residual(
    u: GridFunction, f: GridFunction, mu: WeightField, e: Exponents
) -> float:
    worst = 0.0
    for phi in _nodal_indicators(u):
        worst = max(worst, abs(weak_residual(u, f, mu, e, phi)))
    return worst


def solve_inner(
    f: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Minimize the discrete energy for forcing f; never raises on slow runs.

    Returns the best iterate with status "max_iters" or "stalled" when the
    iteration cap is hit or no representable step makes certified progress;
    status "converged" means final_grad_norm <= tol_grad.  The energy trace
    holds the initial energy followed by the post-step values.  Every
    accepted step is certified to decrease J, so the trace never increases;
    a value repeats only when the certified decrease is below the rounding
    of J.
    """
    grid = f.grid
    if cfg.init is None:
        u = GridFunction.zeros(grid)
    else:
        if cfg.init.grid != grid:
            raise ValueError("initial iterate lives on a different grid")
        u = cfg.init

    p, q, eps2 = e.p, e.q, e.eps_reg**2
    h = grid.h
    cell = h**grid.n
    vals = u.values.copy()
    f_vals = f.values
    mu_axes = mu.per_axis

    j_val = energy(u, f, mu, e).total
    diffs = _diffs(vals, h)
    g = _pseudo_operator(diffs, mu_axes, e, h) - f_vals
    trace = [j_val]
    status = "max_iters"
    iterations = 0
    prev_s: np.ndarray | None = None
    prev_y: np.ndarray | None = None

    for _ in range(cfg.max_iters):
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= cfg.tol_grad:
            status = "converged"
            break

        decrease = cfg.armijo_c * cell * float(np.sum(g * g))
        dir_diffs = _diffs(g, h)
        f_dot_dir = cell * float(np.sum(f_vals * g))

        def trial(t: float) -> tuple[float, None]:
            dj = _raw_energy_decrease(diffs, dir_diffs, f_dot_dir, mu_axes, p, q, eps2, cell, t)
            return dj, None

        accepted = _backtrack(trial, _bb_step(prev_s, prev_y), cfg.backtrack, 0.0, decrease)
        if accepted is None:
            status = "stalled"
            break
        t, dj, _ = accepted
        new_vals = vals - t * g
        if np.array_equal(new_vals, vals):
            # The certified step is below the resolution of the iterate.
            status = "stalled"
            break

        diffs = _diffs(new_vals, h)
        g_new = _pseudo_operator(diffs, mu_axes, e, h) - f_vals
        prev_s = new_vals - vals
        prev_y = g_new - g
        vals, g = new_vals, g_new
        j_val = j_val + dj
        trace.append(j_val)
        iterations += 1

    final_grad_norm = float(np.max(np.abs(g)))
    if status != "converged" and final_grad_norm <= cfg.tol_grad:
        # The cap landed exactly on a converged iterate.
        status = "converged"
    u = GridFunction(grid, vals)
    weak_check = _max_nodal_weak_residual(u, f, mu, e)
    return SolveReport(
        u_star=u,
        iterations=iterations,
        final_grad_norm=final_grad_norm,
        energy_trace=tuple(trace),
        weak_check=weak_check,
        status=status,
    )
