"""Solution operator, adjoint reduced gradients, and the outer control loop.

The state u = psi(f) is the energy minimizer for forcing f.  Its
linearization at f sends a forcing perturbation h to the w solving

    hessian_apply(psi(f), w) = h,

because the minimizer equation reads apply_pseudo_operator(u) = f and the
operator's derivative in u is exactly the energy Hessian.  The reduced
objective j(f) = E(f, psi(f)) then has gradient

    grad j = grad_f E + lambda,   with  H(psi(f)) lambda = grad_u E:

the Hessian is self-adjoint in the quadrature pairing and the state
equation couples to f through the load term alone, whose mixed second
derivative is the identity in that pairing.  One CG solve per gradient.

E is pluggable through the Objective record; tracking_objective builds the
bundled reference instance E(f, u) = 0.5*||u - u_d||_h^2 + 0.5*alpha*||f||_h^2.
Note the regularizer is the discrete L2 norm of f, chosen for outer
smoothness even when the natural pairing for f would be a q-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .energy import Exponents, WeightField, hessian_apply
from .errors import CGBreakdownError, InnerSolveError
from .grid import Grid, GridFunction, inner_product
from .solver import SolveReport, SolverConfig, _backtrack, _bb_step, solve_inner

__all__ = [
    "Objective",
    "ControlConfig",
    "ControlReport",
    "SolutionOperator",
    "tracking_objective",
    "solution_operator",
    "gateaux_derivative",
    "reduced_gradient",
    "optimize_control",
]


@dataclass(frozen=True)
class Objective:
    """A control objective E(f, u) with its two partial gradients.

    The gradients are represented in the quadrature pairing: grad_u is the
    field with <grad_u, w>_h = d/dt E(f, u + t*w) at t = 0, likewise grad_f.
    """

    evaluate: Callable[[GridFunction, GridFunction], float]
    grad_u: Callable[[GridFunction, GridFunction], GridFunction]
    grad_f: Callable[[GridFunction, GridFunction], GridFunction]

    def self_test(
        self,
        grid: Grid,
        rng: np.random.Generator | None = None,
        probes: int = 3,
        step: float = 1e-6,
        rel_tol: float = 1e-6,
    ) -> float:
        """Check both gradients against central differences of evaluate.

        Returns the worst relative error seen; raises ValueError when it
        exceeds rel_tol.
        """
        if rng is None:
            rng = np.random.default_rng(20240917)
        worst = 0.0
        for _ in range(probes):
            f = GridFunction(grid, rng.standard_normal(grid.shape))
            u = GridFunction(grid, rng.standard_normal(grid.shape))
            for which in ("u", "f"):
                w = GridFunction(grid, rng.standard_normal(grid.shape))
                if which == "u":
                    plus = self.evaluate(f, u + step * w)
                    minus = self.evaluate(f, u - step * w)
                    claimed = inner_product(self.grad_u(f, u), w)
                else:
                    plus = self.evaluate(f + step * w, u)
                    minus = self.evaluate(f - step * w, u)
                    claimed = inner_product(self.grad_f(f, u), w)
                fd = (plus - minus) / (2.0 * step)
                # The difference of two O(|E|) values carries round-off of
                # about eps * |E|, so the quotient can only be trusted down
                # to that floor; ignore disagreement below it.
                noise = 64.0 * np.finfo(float).eps * (abs(plus) + abs(minus) + 1.0) / step
                denom = max(abs(fd), abs(claimed), 1e-300)
                err = max(abs(fd - claimed) - noise, 0.0) / denom
                worst = max(worst, err)
        if worst > rel_tol:
            raise ValueError(
                f"objective gradients disagree with finite differences: "
                f"relative error {worst:.3e} > {rel_tol:.1e}"
            )
        return worst


def tracking_objective(u_d: GridFunction, alpha: float) -> Objective:
    """Quadratic tracking objective 0.5*||u - u_d||_h^2 + 0.5*alpha*||f||_h^2."""
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")

    def evaluate(f: GridFunction, u: GridFunction) -> float:
        diff = u - u_d
        return 0.5 * inner_product(diff, diff) + 0.5 * alpha * inner_product(f, f)

    def grad_u(f: GridFunction, u: GridFunction) -> GridFunction:
        return u - u_d

    def grad_f(f: GridFunction, u: GridFunction) -> GridFunction:
        return alpha * f

    return Objective(evaluate=evaluate, grad_u=grad_u, grad_f=grad_f)


@dataclass(frozen=True)
class ControlConfig:
    inner: SolverConfig
    tol_reduced: float = 1e-5
    max_outer: int = 10_000
    cg_tol: float = 1e-10
    cg_max: int = 0  # 0 means 10 * number of nodes
    alpha: float = 1e-6
    armijo_c: float = 1e-4
    backtrack: float = 0.5

    def __post_init__(self) -> None:
        if not self.tol_reduced > 0.0:
            raise ValueError(f"tol_reduced must be positive, got {self.tol_reduced}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if not self.cg_tol > 0.0:
            raise ValueError(f"cg_tol must be positive, got {self.cg_tol}")
        if not self.cg_tol < self.tol_reduced:
            raise ValueError(
                f"cg_tol must be below tol_reduced, got {self.cg_tol} >= {self.tol_reduced}"
            )
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError(f"armijo_c must lie in (0,1), got {self.armijo_c}")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError(f"backtrack must lie in (0,1), got {self.backtrack}")


@dataclass(frozen=True)
class ControlReport:
    f_star: GridFunction
    u_star: GridFunction
    outer_iters: int
    objective_trace: tuple[float, ...]
    stationarity: float
    status: str  # "converged" | "max_outer" | "stalled"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class SolutionOperator:
    """psi(f) with a per-run cache keyed on the forcing's exact bytes."""

    def __init__(self, mu: WeightField, e: Exponents, inner: SolverConfig):
        self.mu = mu
        self.exponents = e
        self.inner = inner
        self._cache: dict[bytes, SolveReport] = {}

    def report(self, f: GridFunction, warm: GridFunction | None = None) -> SolveReport:
        key = f.values.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        cfg = self.inner if warm is None else replace(self.inner, init=warm)
        rep = solve_inner(f, self.mu, self.exponents, cfg)
        if not rep.converged:
            raise InnerSolveError(
                f"inner solve did not converge (status {rep.status!r}, "
                f"grad norm {rep.final_grad_norm:.3e})"
            )
        self._cache[key] = rep
        return rep

    def __call__(self, f: GridFunction, warm: GridFunction | None = None) -> GridFunction:
        return self.report(f, warm).u_star


def solution_operator(
    f: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: SolverConfig,
    cache: SolutionOperator | None = None,
) -> GridFunction:
    """The state psi(f); converged or InnerSolveError, never a silent best-effort."""
    psi = cache if cache is not None else SolutionOperator(mu, e, cfg)
    return psi(f)


def _cg(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float,
    max_iters: int,
) -> np.ndarray:
    """Conjugate gradients with a non-positive-curvature guard."""
    x = np.zeros_like(b)
    b_norm = float(np.sqrt(np.sum(b * b)))
    if b_norm == 0.0:
        return x
    r = b.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    for _ in range(max_iters):
        Ap = apply_A(p)
        pAp = float(np.sum(p * Ap))
        if pAp <= 0.0:
            raise CGBreakdownError(
                "non-positive curvature in the hessian system; "
                "increase eps_reg to keep the linearization definite"
            )
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.sum(r * r))
        if np.sqrt(rs_new) <= tol * b_norm:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise CGBreakdownError(
        f"conjugate gradients did not reach tol={tol:.1e} within {max_iters} iterations"
    )


def _hessian_solve(
    u: GridFunction, rhs: GridFunction, mu: WeightField, e: Exponents, cfg: ControlConfig
) -> GridFunction:
    grid = u.grid
    cg_max = cfg.cg_max if cfg.cg_max > 0 else 10 * grid.n_nodes

    def apply_h(values: np.ndarray) -> np.ndarray:
        return hessian_apply(u, GridFunction(grid, values), mu, e).values

    solution = _cg(apply_h, np.asarray(rhs.values), cfg.cg_tol, cg_max)
    return GridFunction(grid, solution)


def gateaux_derivative(
    f: GridFunction,
    h: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: ControlConfig,
    cache: SolutionOperator | None = None,
) -> GridFunction:
    """Directional derivative of psi at f along h: solve H(psi(f)) w = h."""
    u = solution_operator(f, mu, e, cfg.inner, cache)
    return _hessian_solve(u, h, mu, e, cfg)


def reduced_gradient(
    f: GridFunction,
    obj: Objective,
    mu: WeightField,
    e: Exponents,
    cfg: ControlConfig,
    cache: SolutionOperator | None = None,
) -> GridFunction:
    """Adjoint gradient of f -> obj.evaluate(f, psi(f)): one hessian solve."""
    u = solution_operator(f, mu, e, cfg.inner, cache)
    lam = _hessian_solve(u, obj.grad_u(f, u), mu, e, cfg)
    return obj.grad_f(f, u) + lam


def optimize_control(
    obj: Objective,
    f0: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: ControlConfig,
) -> ControlReport:
    """Reduced-gradient descent on f with Armijo backtracking.

    Every trial step re-solves the inner problem warm-started at the
    current state; a trial whose inner solve fails to converge is treated
    like an insufficient-decrease trial and the step shrinks.  Terminates
    when the reduced gradient's max-norm drops to tol_reduced (the discrete
    first-order necessary condition), or flags the best iterate when the
    outer cap or the step floor is hit.
    """
    grid = f0.grid
    obj.self_test(grid)
    psi = SolutionOperator(mu, e, cfg.inner)

    f = f0
    u = psi(f)
    j_val = obj.evaluate(f, u)
    g = reduced_gradient(f, obj, mu, e, cfg, cache=psi)
    trace = [j_val]
    cell = grid.h**grid.n
    status = "max_outer"
    outer = 0
    prev_s: np.ndarray | None = None
    prev_y: np.ndarray | None = None

    for _ in range(cfg.max_outer):
        stationarity = float(np.max(np.abs(g.values)))
        if stationarity <= cfg.tol_reduced:
            status = "converged"
            break

        decrease = cfg.armijo_c * cell * float(np.sum(g.values * g.values))

        def trial(t: float) -> tuple[float, tuple[GridFunction, GridFunction] | None]:
            f_trial = GridFunction(grid, f.values - t * g.values)
            try:
                u_trial = psi(f_trial, warm=u)
            except InnerSolveError:
                return math.inf, None
            return obj.evaluate(f_trial, u_trial), (f_trial, u_trial)

        accepted = _backtrack(trial, _bb_step(prev_s, prev_y), cfg.backtrack, j_val, decrease)
        if accepted is None:
            status = "stalled"
            break
        _, j_trial, (f_trial, u_trial) = accepted

        g_new = reduced_gradient(f_trial, obj, mu, e, cfg, cache=psi)
        prev_s = f_trial.values - f.values
        prev_y = g_new.values - g.values
        f, u, j_val, g = f_trial, u_trial, j_trial, g_new
        trace.append(j_val)
        outer += 1

    stationarity = float(np.max(np.abs(g.values)))
    if status != "converged" and stationarity <= cfg.tol_reduced:
        status = "converged"
    return ControlReport(
        f_star=f,
        u_star=u,
        outer_iters=outer,
        objective_trace=tuple(trace),
        stationarity=stationarity,
        status=status,
    )
