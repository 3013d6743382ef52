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
derivative is the identity in that pairing.  One CG solve per gradient,
preconditioned by the Jacobi diagonal of the same linearization as Newton.

The outer loop is reduced Gauss-Newton-CG.  With S = H(psi(f))^-1 the
linearized state map, the model Hessian is

    M w = S (E_uu (S w)) + E_ff w,

the reduced Hessian without the mixed term E_uf and without psi's second
derivative, which the adjoint lambda would weight.  E_uu and E_ff act as
differences of grad_u and grad_f, exact for an E quadratic in u and in f
separately.  Each outer step solves M d = grad j by truncated CG, with the
S solves in M only as tight as that CG needs, takes an Armijo step from
t = 1, and solves each trial f - t*d only to an inner tolerance tied to the
size of t*d.

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

from .energy import (
    Exponents,
    WeightField,
    _check_nonsingular,
    _hessian_product,
    _jacobi_diagonal,
    _linearization,
    _Linearization,
)
from .errors import CGBreakdownError, InnerSolveError
from .grid import Grid, GridFunction, _diffs, inner_product
from .solver import SolveReport, SolverConfig, _backtrack, _cg, _dot, solve_inner

__all__ = [
    "Objective",
    "ControlConfig",
    "ControlReport",
    "SolutionOperator",
    "tracking_objective",
    "gateaux_derivative",
    "reduced_gradient",
    "optimize_control",
]


#: Objective.self_test draws _PROBES probes, differences with step _STEP and
#: fails above the relative error _REL_TOL.
_PROBES = 3
_STEP = 1e-6
_REL_TOL = 1e-6

#: A Hessian solve gives up after this many products per node.
_CG_PRODUCTS_PER_NODE = 10


def _probe_fields(grid: Grid, count: int) -> np.ndarray:
    """count fixed fields on grid, shape (count, *grid.shape), entries in [-1, 1).

    Entry k = 1, 2, ... in C order is splitmix64 (Steele, Lea and Flood,
    OOPSLA 2014) of the counter k, its top 53 bits scaled to [-1, 1).
    """
    counter = np.arange(1, count * grid.n_nodes + 1, dtype=np.uint64)
    state = counter * np.uint64(0x9E3779B97F4A7C15)
    state = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    state = (state ^ (state >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    state ^= state >> np.uint64(31)
    return ((state >> np.uint64(11)) * 2.0**-52 - 1.0).reshape(count, *grid.shape)


@dataclass(frozen=True)
class Objective:
    """A control objective E(f, u) with its two partial gradients.

    The gradients are represented in the quadrature pairing: grad_u is the
    field with <grad_u, w>_h = d/dt E(f, u + t*w) at t = 0, likewise grad_f.
    """

    evaluate: Callable[[GridFunction, GridFunction], float]
    grad_u: Callable[[GridFunction, GridFunction], GridFunction]
    grad_f: Callable[[GridFunction, GridFunction], GridFunction]

    def self_test(self, grid: Grid) -> float:
        """Check both gradients against central differences of evaluate.

        Each of _PROBES probes draws f, u, then a direction for u and one for
        f from _probe_fields, and differences with step _STEP.  Returns the
        worst relative error seen; raises ValueError when it exceeds _REL_TOL.
        """
        fields = iter(_probe_fields(grid, 4 * _PROBES))
        worst = 0.0
        for _ in range(_PROBES):
            f = GridFunction(grid, next(fields))
            u = GridFunction(grid, next(fields))
            for which in ("u", "f"):
                w = GridFunction(grid, next(fields))
                if which == "u":
                    plus = self.evaluate(f, u + _STEP * w)
                    minus = self.evaluate(f, u - _STEP * w)
                    claimed = inner_product(self.grad_u(f, u), w)
                else:
                    plus = self.evaluate(f + _STEP * w, u)
                    minus = self.evaluate(f - _STEP * w, u)
                    claimed = inner_product(self.grad_f(f, u), w)
                fd = (plus - minus) / (2.0 * _STEP)
                # The difference of two O(|E|) values carries round-off of
                # about eps * |E|, so the quotient can only be trusted down
                # to that floor; ignore disagreement below it.
                noise = 64.0 * np.finfo(float).eps * (abs(plus) + abs(minus) + 1.0) / _STEP
                denom = max(abs(fd), abs(claimed), 1e-300)
                err = max(abs(fd - claimed) - noise, 0.0) / denom
                worst = max(worst, err)
        if worst > _REL_TOL:
            raise ValueError(
                f"objective gradients disagree with finite differences: "
                f"relative error {worst:.3e} > {_REL_TOL:.1e}"
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
    alpha: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.tol_reduced > 0.0 and math.isfinite(self.tol_reduced)):
            raise ValueError(f"tol_reduced must be finite and positive, got {self.tol_reduced}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if not (self.cg_tol > 0.0 and math.isfinite(self.cg_tol)):
            raise ValueError(f"cg_tol must be finite and positive, got {self.cg_tol}")
        if not self.cg_tol < self.tol_reduced:
            raise ValueError(
                f"cg_tol must be below tol_reduced, got {self.cg_tol} >= {self.tol_reduced}"
            )
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


@dataclass(frozen=True)
class ControlReport:
    f_star: GridFunction
    u_star: GridFunction
    outer_iters: int
    matvecs: int  # Hessian products of the inner solves run, failed ones included
    adjoint_matvecs: int  # Hessian products of the adjoint solves
    trial_solves: int  # inner solves the line search ran, failed ones included
    model_cg_iters: int  # Gauss-Newton model products, summed over the outer steps
    model_matvecs: int  # Hessian products of the model's S solves, part of adjoint_matvecs
    objective_trace: tuple[float, ...]
    stationarity: float
    status: str  # "converged" | "max_outer" | "stalled"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class SolutionOperator:
    """psi(f) that replays its last solve when asked for the same forcing bytes.

    A solve runs to tol, by default inner.tol_grad; the slot is replayed
    only when its tolerance is at most the one asked for.  One slot is all
    the outer loop reuses: it only ever asks again for the trial it has just
    accepted.  solves counts the solves it ran and matvecs their Newton
    products, failed ones included; adjoint_matvecs the products of the
    linearized solves at its states (_hessian_solve with psi = self).
    linearization keeps the stencil record of the last state it was asked
    about.
    """

    def __init__(self, mu: WeightField, e: Exponents, inner: SolverConfig):
        self.mu = mu
        self.exponents = e
        self.inner = inner
        self._last: tuple[bytes, float, SolveReport] | None = None
        self._lin: tuple[GridFunction, _Linearization] | None = None
        self.solves = 0
        self.matvecs = 0
        self.adjoint_matvecs = 0

    def report(
        self, f: GridFunction, warm: GridFunction | None = None, tol: float | None = None
    ) -> SolveReport:
        key = f.values.tobytes()
        tol = self.inner.tol_grad if tol is None else tol
        if self._last is not None and self._last[0] == key and self._last[1] <= tol:
            return self._last[2]
        rep = solve_inner(f, self.mu, self.exponents, replace(self.inner, tol_grad=tol, init=warm))
        self.solves += 1
        self.matvecs += rep.matvecs
        if not rep.converged:
            raise InnerSolveError(
                f"inner solve did not converge (status {rep.status!r}, "
                f"grad norm {rep.final_grad_norm:.3e})"
            )
        self._last = (key, tol, rep)
        return rep

    def __call__(
        self, f: GridFunction, warm: GridFunction | None = None, tol: float | None = None
    ) -> GridFunction:
        return self.report(f, warm, tol).u_star

    def linearization(self, u: GridFunction) -> _Linearization:
        """The stencil record of the Hessian at the state u, built once per state object."""
        if self._lin is None or self._lin[0] is not u:
            h = u.grid.h
            self._lin = (u, _linearization(_diffs(u.values, h), self.mu.per_axis, self.exponents, h))
        return self._lin[1]


def _hessian_solve(
    lin: _Linearization,
    rhs: GridFunction,
    cfg: ControlConfig,
    psi: SolutionOperator | None = None,
    tol: float | None = None,
) -> GridFunction:
    """Solve H w = rhs over the record lin by Jacobi-preconditioned CG.

    Runs to the relative residual tol, by default cfg.cg_tol, and raises
    CGBreakdownError unless it gets there within _CG_PRODUCTS_PER_NODE
    products per node.  Each Hessian product is added to psi.adjoint_matvecs
    when psi is given.
    """
    grid = rhs.grid
    tol = cfg.cg_tol if tol is None else tol
    cg_max = _CG_PRODUCTS_PER_NODE * grid.n_nodes
    diag = _jacobi_diagonal(lin)

    def apply_h(values: np.ndarray) -> np.ndarray:
        # Checked per product: a zero rhs makes none and still returns zeros.
        _check_nonsingular(lin)
        if psi is not None:
            psi.adjoint_matvecs += 1
        return _hessian_product(lin, values)

    solution, reason = _cg(
        apply_h,
        np.asarray(rhs.values),
        tol,
        cg_max,
        inv_diag=None if diag is None else 1.0 / diag,
    )
    if reason == "curvature":
        raise CGBreakdownError(
            "non-positive curvature in the hessian system; "
            "increase eps_reg to keep the linearization definite"
        )
    if reason == "max_iters":
        raise CGBreakdownError(
            f"conjugate gradients did not reach tol={tol:.1e} within {cg_max} iterations"
        )
    return GridFunction(grid, solution)


def _operator(
    mu: WeightField, e: Exponents, cfg: ControlConfig, cache: SolutionOperator | None
) -> SolutionOperator:
    """cache, or a new operator if it is None; ValueError if cache has another mu or e."""
    if cache is None:
        return SolutionOperator(mu, e, cfg.inner)
    # Identity for the weight: == between WeightFields compares arrays.
    if cache.mu is not mu:
        raise ValueError("cache was built for another weight field than mu")
    if cache.exponents != e:
        raise ValueError(f"cache was built for exponents {cache.exponents}, not {e}")
    return cache


def gateaux_derivative(
    f: GridFunction,
    h: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: ControlConfig,
    cache: SolutionOperator | None = None,
) -> GridFunction:
    """Directional derivative of psi at f along h: solve H(psi(f)) w = h."""
    psi = _operator(mu, e, cfg, cache)
    return _hessian_solve(psi.linearization(psi(f)), h, cfg, psi)


def reduced_gradient(
    f: GridFunction,
    obj: Objective,
    mu: WeightField,
    e: Exponents,
    cfg: ControlConfig,
    cache: SolutionOperator | None = None,
) -> GridFunction:
    """Adjoint gradient of f -> obj.evaluate(f, psi(f)): one hessian solve."""
    psi = _operator(mu, e, cfg, cache)
    u = psi(f)
    lam = _hessian_solve(psi.linearization(u), obj.grad_u(f, u), cfg, psi)
    return obj.grad_f(f, u) + lam


#: A trial f - t*d is solved to inner tolerance min(inner.tol_grad,
#: _KAPPA * max|t*d|): loose for long steps, tight near the optimum.
_KAPPA = 0.1

#: The model's S solves run to max(cg_tol, _S_FRACTION * the model CG's
#: relative tolerance): no tighter than the model needs.
_S_FRACTION = 0.1


def _gauss_newton_direction(
    f: GridFunction,
    u: GridFunction,
    g: GridFunction,
    obj: Objective,
    cfg: ControlConfig,
    psi: SolutionOperator,
) -> tuple[np.ndarray, int]:
    """Truncated CG on M d = g from d = 0; returns (d, products of M).

    M is the Gauss-Newton model at the state u = psi(f) (see the module
    docstring).  CG stops at the relative residual min(0.5, sqrt|g|_2), after
    n_nodes products, or at the first direction of non-positive curvature,
    which hands back g itself when it is the first one.  Every S solve runs
    over psi's stencil record of u, to max(cg_tol, _S_FRACTION * tol).
    """
    grid = f.grid
    lin = psi.linearization(u)
    gu0, gf0 = obj.grad_u(f, u), obj.grad_f(f, u)
    tol = min(0.5, math.sqrt(math.sqrt(_dot(g.values, g.values))))
    s_tol = max(cfg.cg_tol, _S_FRACTION * tol)
    products = 0

    def apply_m(values: np.ndarray) -> np.ndarray:
        nonlocal products
        products += 1
        w = GridFunction(grid, values)
        sw = _hessian_solve(lin, w, cfg, psi, s_tol)
        ssw = _hessian_solve(lin, obj.grad_u(f, u + sw) - gu0, cfg, psi, s_tol)
        return (ssw + (obj.grad_f(f + w, u) - gf0)).values

    d, _ = _cg(apply_m, g.values, tol, grid.n_nodes)
    return d, products


def optimize_control(
    obj: Objective,
    f0: GridFunction,
    mu: WeightField,
    e: Exponents,
    cfg: ControlConfig,
) -> ControlReport:
    """Reduced Gauss-Newton-CG on f with Armijo backtracking from t = 1.

    Every trial step re-solves the inner problem warm-started at the
    current state, to min(inner.tol_grad, _KAPPA * max|t*d|), so
    inner.tol_grad is a ceiling and the returned state meets it.  A trial
    whose inner solve fails to converge is treated like an
    insufficient-decrease trial and the step shrinks.  A model direction
    d with grad j . d <= 0 is replaced by the reduced gradient.
    Terminates when the reduced gradient's max-norm drops to tol_reduced
    (the discrete first-order necessary condition), or flags the best
    iterate when the outer cap or the step floor is hit.
    """
    grid = f0.grid
    obj.self_test(grid)
    psi = SolutionOperator(mu, e, cfg.inner)

    f = f0
    u = psi(f)
    j_val = obj.evaluate(f, u)
    g = reduced_gradient(f, obj, mu, e, cfg, psi)
    trace = [j_val]
    cell = grid.h**grid.n
    status = "max_outer"
    outer = 0
    model_cg_iters = 0
    model_matvecs = 0

    for _ in range(cfg.max_outer):
        stationarity = float(np.max(np.abs(g.values)))
        if stationarity <= cfg.tol_reduced:
            status = "converged"
            break

        before = psi.adjoint_matvecs
        d, products = _gauss_newton_direction(f, u, g, obj, cfg, psi)
        model_cg_iters += products
        model_matvecs += psi.adjoint_matvecs - before
        slope = _dot(g.values, d)
        if not slope > 0.0:
            d, slope = g.values, _dot(g.values, g.values)

        def trial(t: float) -> tuple[float, tuple[GridFunction, GridFunction] | None]:
            step = t * d
            f_trial = GridFunction(grid, f.values - step)
            tol = min(cfg.inner.tol_grad, _KAPPA * float(np.max(np.abs(step))))
            if not tol > 0.0:
                # The step underflowed: nothing left to solve for.
                return math.inf, None
            try:
                u_trial = psi(f_trial, warm=u, tol=tol)
            except InnerSolveError:
                return math.inf, None
            return obj.evaluate(f_trial, u_trial), (f_trial, u_trial)

        accepted = _backtrack(trial, j_val, cell, slope)
        if accepted is None:
            status = "stalled"
            break
        _, j_trial, (f_trial, u_trial) = accepted

        # The accepted trial was the last solve: psi replays u_trial, and its record
        # serves the next direction.
        g = reduced_gradient(f_trial, obj, mu, e, cfg, psi)
        f, u, j_val = f_trial, u_trial, j_trial
        trace.append(j_val)
        outer += 1

    stationarity = float(np.max(np.abs(g.values)))
    if status != "converged" and stationarity <= cfg.tol_reduced:
        status = "converged"
    return ControlReport(
        f_star=f,
        u_star=u,
        outer_iters=outer,
        matvecs=psi.matvecs,
        adjoint_matvecs=psi.adjoint_matvecs,
        # Every solve but the cold one at f0 was a line-search trial.
        trial_solves=psi.solves - 1,
        model_cg_iters=model_cg_iters,
        model_matvecs=model_matvecs,
        objective_trace=tuple(trace),
        stationarity=stationarity,
        status=status,
    )
