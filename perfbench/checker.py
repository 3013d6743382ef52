"""Independent numpy checks of pseudophase artifacts.

Nothing here imports pseudophase: every quantity a check compares against is
recomputed from the discrete problem's definition, so a fault in the program
cannot also hide in its own reference.

Conventions (the ones the package documents):

* A grid with m interior nodes per axis has spacing h = 1/(m+1); nodal arrays
  have shape (m,) * n and the Dirichlet boundary values are zero.
* The forward difference along an axis has m+1 entries per grid line,
  (u_j - u_{j-1}) / h with the two ghost values zero.
* The energy is J(u) = sum_i h^n [ sum pi^p / p + sum mu_i pi^q / q ] - h^n sum f u
  with pi = sqrt(g^2 + eps^2) on each edge.
* A nodal weight file becomes per-axis edge weights: an interior edge takes the
  mean of its two endpoint nodes, a boundary edge takes its one interior node.

Two implementations of the operator are kept on purpose: the slice form
(`diffs`, `neg_div`) that the checks use on every grid, and the dense form
(`difference_matrices`) used for the Hessian, the dense Newton solve and the
checker's own tests, which compare the two.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

#: Multiple of machine epsilon allowed per term for round-off when two
#: evaluations of the same formula use different operation orders.
ROUNDOFF_ULPS = 64.0


# ---------------------------------------------------------------------------
# Slice form
# ---------------------------------------------------------------------------


def spacing(m: int) -> float:
    return 1.0 / (m + 1)


def _along(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


def diffs(u: np.ndarray, h: float) -> list[np.ndarray]:
    """Ghost-zero forward differences along every axis (m+1 edges per line)."""
    out = []
    m = u.shape[0]
    for axis in range(u.ndim):
        shape = list(u.shape)
        shape[axis] = m + 1
        g = np.zeros(shape)
        g[_along(u.ndim, axis, slice(0, m))] += u
        g[_along(u.ndim, axis, slice(1, m + 1))] -= u
        out.append(g / h)
    return out


def neg_div(flux: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Nodal (F_left - F_right) / h: the transpose of the forward difference."""
    m = flux.shape[axis] - 1
    left = flux[_along(flux.ndim, axis, slice(0, m))]
    right = flux[_along(flux.ndim, axis, slice(1, m + 1))]
    return (left - right) / h


def edge_weights(nodal: np.ndarray) -> list[np.ndarray]:
    """Per-axis edge weights from nodal samples (mean of the two endpoints)."""
    out = []
    m = nodal.shape[0]
    for axis in range(nodal.ndim):
        shape = list(nodal.shape)
        shape[axis] = m + 1
        w = np.empty(shape)
        w[_along(nodal.ndim, axis, slice(1, m))] = 0.5 * (
            nodal[_along(nodal.ndim, axis, slice(0, m - 1))]
            + nodal[_along(nodal.ndim, axis, slice(1, m))]
        )
        w[_along(nodal.ndim, axis, slice(0, 1))] = nodal[_along(nodal.ndim, axis, slice(0, 1))]
        w[_along(nodal.ndim, axis, slice(m, m + 1))] = nodal[
            _along(nodal.ndim, axis, slice(m - 1, m))
        ]
        out.append(w)
    return out


class Problem:
    """One discrete double-phase problem: exponents, eps, edge weights, forcing."""

    def __init__(self, p: float, q: float, eps: float, mu: list[np.ndarray], f: np.ndarray):
        self.p, self.q, self.eps = float(p), float(q), float(eps)
        self.mu = mu
        self.f = f
        self.n = f.ndim
        self.m = f.shape[0]
        self.h = spacing(self.m)
        self.cell = self.h**self.n

    def flux(self, g: np.ndarray, mu: np.ndarray) -> np.ndarray:
        s2 = g * g + self.eps**2
        return s2 ** ((self.p - 2.0) / 2.0) * g + mu * s2 ** ((self.q - 2.0) / 2.0) * g

    def hessian_coeff(self, g: np.ndarray, mu: np.ndarray) -> np.ndarray:
        g2 = g * g
        s2 = g2 + self.eps**2
        return s2 ** ((self.p - 4.0) / 2.0) * ((self.p - 1.0) * g2 + self.eps**2) + mu * s2 ** (
            (self.q - 4.0) / 2.0
        ) * ((self.q - 1.0) * g2 + self.eps**2)

    def operator(self, u: np.ndarray) -> np.ndarray:
        """A(u) = sum_i neg_div_i(flux_i(d_i u)), the power-term gradient."""
        acc = np.zeros(u.shape)
        for axis, g in enumerate(diffs(u, self.h)):
            acc += neg_div(self.flux(g, self.mu[axis]), axis, self.h)
        return acc

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.operator(u) - self.f

    def residual_slack(self, u: np.ndarray) -> float:
        """Round-off allowance for comparing one nodal residual across codes.

        Each nodal residual is a sum of 2n flux terms divided by h plus f_k;
        two codes evaluating it in different orders differ by at most a few
        ulps of the sum of those terms' magnitudes.  ROUNDOFF_ULPS covers the
        pow/sqrt error of each flux and the additions.
        """
        mags = np.abs(self.f).copy()
        for axis, g in enumerate(diffs(u, self.h)):
            a = np.abs(self.flux(g, self.mu[axis]))
            m = self.m
            mags += (a[_along(u.ndim, axis, slice(0, m))] + a[_along(u.ndim, axis, slice(1, m + 1))]) / self.h
        return ROUNDOFF_ULPS * EPS * float(mags.max())

    def energy_terms(self, u: np.ndarray) -> tuple[float, float, float, int]:
        """(p_term, q_term, load_term, number of summands) of J(u)."""
        p_term = q_term = 0.0
        count = u.size
        for axis, g in enumerate(diffs(u, self.h)):
            s2 = g * g + self.eps**2
            p_term += float(np.sum(s2 ** (self.p / 2.0))) * self.cell / self.p
            q_term += float(np.sum(self.mu[axis] * s2 ** (self.q / 2.0))) * self.cell / self.q
            count += 2 * g.size
        load = float(np.sum(self.f * u)) * self.cell
        return p_term, q_term, load, count

    def energy(self, u: np.ndarray) -> float:
        p_term, q_term, load, _ = self.energy_terms(u)
        return p_term + q_term - load

    def energy_tolerance(self, u: np.ndarray) -> float:
        """Bound on |J_program(u) - J_checker(u)| from round-off.

        Both codes sum the same N nonnegative-or-signed summands in some
        order; recursive summation errs by at most N * eps * sum|terms| and
        each term carries a few ulps of pow error, so 4 * N * eps times the
        sum of the three pieces' magnitudes bounds the difference.
        """
        p_term, q_term, load, count = self.energy_terms(u)
        return 4.0 * count * EPS * (abs(p_term) + abs(q_term) + abs(load))

    # -- dense form ---------------------------------------------------------

    def dense_operator(self, u: np.ndarray) -> np.ndarray:
        acc = np.zeros(u.size)
        for axis, d in enumerate(difference_matrices(self.m, self.n)):
            acc += d.T @ self.flux(d @ u.ravel(), self.mu[axis].ravel())
        return acc.reshape(u.shape)

    def dense_hessian(self, u: np.ndarray) -> np.ndarray:
        """Matrix of the power terms' second derivative, sum_i D_i^T diag(a_i) D_i."""
        out = np.zeros((u.size, u.size))
        for axis, d in enumerate(difference_matrices(self.m, self.n)):
            coeff = self.hessian_coeff(d @ u.ravel(), self.mu[axis].ravel())
            out += d.T @ (coeff[:, None] * d)
        return out

    def newton(self, max_steps: int = 200) -> np.ndarray:
        """Damped dense Newton for A(u) = f, stopped at the round-off floor.

        The energy is strictly convex for eps > 0, so backtracking along the
        Newton direction until J shows an Armijo decrease always ends; once J
        no longer resolves the change, a step is accepted only while it
        shrinks the residual's max-norm.  Returns the iterate with the
        smallest residual.
        """
        u = np.zeros(self.f.shape)
        best, best_res = u, float(np.max(np.abs(self.f - self.dense_operator(u))))
        for _ in range(max_steps):
            r = self.dense_operator(u) - self.f
            res = float(np.max(np.abs(r)))
            if res < best_res:
                best, best_res = u, res
            step = np.linalg.solve(self.dense_hessian(u), r.ravel()).reshape(u.shape)
            j0 = self.energy(u)
            t = 1.0
            while t > 1e-12:
                trial = u - t * step
                j1 = self.energy(trial)
                if j1 <= j0 - 1e-4 * t * self.cell * float(np.sum(r * step)):
                    break
                if abs(j1 - j0) <= self.energy_tolerance(u):
                    res1 = float(np.max(np.abs(self.dense_operator(trial) - self.f)))
                    if res1 < res:
                        break
                    return best
                t *= 0.5
            else:
                return best
            u = trial
        return best


def difference_matrices(m: int, n: int) -> list[np.ndarray]:
    """Dense per-axis forward-difference matrices, rows = edges (C order)."""
    h = spacing(m)
    d1 = np.zeros((m + 1, m))
    for j in range(m + 1):
        if j < m:
            d1[j, j] = 1.0 / h
        if j >= 1:
            d1[j, j - 1] = -1.0 / h
    if n == 1:
        return [d1]
    eye = np.eye(m)
    return [np.kron(d1, eye), np.kron(eye, d1)]


def laplacian_min_eigenvalue(m: int, n: int) -> float:
    """Smallest eigenvalue of sum_i D_i^T D_i: n * (4/h^2) * sin^2(pi h / 2)."""
    h = spacing(m)
    return n * (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2


# ---------------------------------------------------------------------------
# Artifact readers (the package's documented formats)
# ---------------------------------------------------------------------------


def read_record(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if not sep:
                raise ValueError(f"{path}: malformed line {line!r}")
            out[key] = value.strip()
    return out


def node_coords(m: int, n: int) -> np.ndarray:
    h = spacing(m)
    axes = [h * np.arange(1, m + 1, dtype=float)] * n
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(m**n, n)


def write_nodal_csv(path: str, values: np.ndarray) -> None:
    n = values.ndim
    m = values.shape[0]
    coords = node_coords(m, n)
    lines = ["x,value" if n == 1 else "x,y,value"]
    for point, value in zip(coords, values.ravel()):
        lines.append(",".join(f"{c:.17g}" for c in point) + f",{value:.17g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_nodal_csv(path: str, m: int, n: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (m**n, n + 1):
        raise ValueError(f"{path}: expected {m**n} rows of {n + 1} columns, got {data.shape}")
    if not np.allclose(data[:, :n], node_coords(m, n), rtol=0.0, atol=1e-12):
        raise ValueError(f"{path}: coordinates are not the node lattice")
    return data[:, n].reshape((m,) * n)


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the artifact holds.
# ---------------------------------------------------------------------------


def check_solve(
    prob: Problem,
    tol: float,
    report: dict[str, str],
    u: np.ndarray,
    trace: list[float] | None,
    u_exact: np.ndarray | None = None,
) -> list[str]:
    bad = []
    if report.get("status") != "converged" or report.get("converged") != "true":
        bad.append(f"solve: status {report.get('status')!r}")
        return bad
    slack = prob.residual_slack(u)
    res = float(np.max(np.abs(prob.residual(u))))
    if res > tol + slack:
        bad.append(f"solve: max|A(u)-f| = {res:.3e} > tol {tol:.1e} + {slack:.1e}")
    weak = float(report["weak_check"])
    if weak > tol * prob.cell:
        bad.append(f"solve: weak_check {weak:.3e} > tol*h^n {tol * prob.cell:.3e}")
    if abs(weak - prob.cell * res) > prob.cell * slack:
        bad.append(f"solve: weak_check {weak:.17g} != h^n max|A(u)-f| {prob.cell * res:.17g}")
    j_check = prob.energy(u)
    j_tol = prob.energy_tolerance(u)
    j_report = float(report["energy_total"])
    if abs(j_report - j_check) > j_tol:
        bad.append(f"solve: energy_total {j_report:.17g} vs J(u) {j_check:.17g} (tol {j_tol:.1e})")
    if trace is not None:
        bad += _check_trace(prob, trace, j_report, int(report["iterations"]), u)
    if u_exact is not None:
        bad += _check_manufactured(prob, u, u_exact)
    return bad


def _check_trace(
    prob: Problem, trace: list[float], j_report: float, iterations: int, u: np.ndarray
) -> list[str]:
    """The trace starts at J(0), never rises, and ends at energy_total.

    The last entry is J(0) plus the sum of the certified per-step changes,
    so it drifts from a fresh evaluation of J by one rounding of the running
    sum per step: at most (iterations + 1) * eps * max|trace| on top of the
    energy tolerance.
    """
    bad = []
    if len(trace) != iterations + 1:
        bad.append(f"trace: {len(trace)} rows for {iterations} iterations")
    steps = np.diff(trace)
    if np.any(steps > 0.0):
        bad.append(f"trace: rises at {int(np.argmax(steps > 0.0))}")
    zero = np.zeros(prob.f.shape)
    if abs(trace[0] - prob.energy(zero)) > prob.energy_tolerance(zero):
        bad.append(f"trace: starts at {trace[0]:.17g}, J(0) = {prob.energy(zero):.17g}")
    drift = (len(trace) + 1) * EPS * float(np.max(np.abs(trace))) + prob.energy_tolerance(u)
    if abs(trace[-1] - j_report) > drift:
        bad.append(f"trace: ends at {trace[-1]:.17g}, energy_total {j_report:.17g} (tol {drift:.1e})")
    return bad


def _check_manufactured(prob: Problem, u: np.ndarray, u_exact: np.ndarray) -> list[str]:
    """||u - u_exact||_h <= ||A(u) - f||_h / (mu_min * lambda_min) for q = 2.

    With q = 2 the weighted phase is linear, mu * d_i u, and the p-phase is
    monotone, so (A(u) - A(v), u - v)_h >= mu_min * (L(u - v), u - v)_h
    >= mu_min * lambda_min * ||u - v||_h^2.  The forcing file holds
    A(u_exact) rounded once, which the residual slack covers.
    """
    if prob.q != 2.0:
        raise ValueError("the manufactured bound needs q = 2")
    mu_min = min(float(w.min()) for w in prob.mu)
    if mu_min <= 0.0:
        raise ValueError("the manufactured bound needs a positive weight floor")
    lam = laplacian_min_eigenvalue(prob.m, prob.n)
    r = prob.residual(u)
    r_norm = np.sqrt(prob.cell * float(np.sum(r * r))) + prob.residual_slack(u_exact)
    err = np.sqrt(prob.cell * float(np.sum((u - u_exact) ** 2)))
    bound = r_norm / (mu_min * lam)
    if err > bound:
        return [f"manufactured: ||u-u_exact||_h {err:.3e} > {bound:.3e}"]
    return []


def check_control(
    prob_target: Problem,
    alpha: float,
    tol_inner: float,
    cg_tol: float,
    report: dict[str, str],
    f_star: np.ndarray,
    u_star: np.ndarray,
) -> list[str]:
    """Check a control run against a dense-Newton target and a dense Hessian.

    prob_target carries the target forcing; the tracking target u_d is its
    dense-Newton solution.  The reported stationarity is max|alpha f + lam|
    with H(u*) lam = u* - u_d.  The program used its own target u_d' (solved
    to tol_inner) and CG to relative residual cg_tol, so the two differ by

        |d stat| <= ||u_d' - u_d|| / s(H*) + cg_tol ||u* - u_d|| / s(H*),
        ||u_d' - u_d|| <= sqrt(N) tol_inner / s(H_d),

    with s the smallest singular value (first order in the tiny target
    error; a factor 4 covers the change of H along that segment), plus the
    dense solve's round-off kappa(H*) eps ||lam||.  The objective differs by
    h^n (||u* - u_d|| ||du_d|| + ||du_d||^2 / 2) plus a few ulps.
    """
    bad = []
    if report.get("status") != "converged" or report.get("converged") != "true":
        return [f"control: status {report.get('status')!r}"]
    if int(report["outer_iters"]) < 1:
        bad.append("control: outer_iters = 0, the loop never moved")
    state = Problem(prob_target.p, prob_target.q, prob_target.eps, prob_target.mu, f_star)
    res = float(np.max(np.abs(state.residual(u_star))))
    slack = state.residual_slack(u_star)
    if res > tol_inner + slack:
        bad.append(f"control: state residual {res:.3e} > {tol_inner:.1e} + {slack:.1e}")

    u_d = prob_target.newton()
    cell = prob_target.cell
    h_star = prob_target.dense_hessian(u_star)
    h_d = prob_target.dense_hessian(u_d)
    s_star = float(np.linalg.svd(h_star, compute_uv=False).min())
    s_d = float(np.linalg.svd(h_d, compute_uv=False).min())
    gap = (u_star - u_d).ravel()
    lam = np.linalg.solve(h_star, gap)
    grad = alpha * f_star.ravel() + lam
    stat = float(np.max(np.abs(grad)))
    du_d = 4.0 * np.sqrt(u_d.size) * tol_inner / s_d
    stat_tol = (
        4.0 * (du_d + cg_tol * float(np.linalg.norm(gap))) / s_star
        + ROUNDOFF_ULPS * np.linalg.cond(h_star) * EPS * float(np.linalg.norm(lam))
    )
    stat_report = float(report["stationarity"])
    if abs(stat - stat_report) > stat_tol:
        bad.append(f"control: stationarity {stat_report:.6e} vs dense {stat:.6e} (tol {stat_tol:.1e})")
    obj = 0.5 * cell * float(gap @ gap) + 0.5 * alpha * cell * float(np.sum(f_star * f_star))
    obj_tol = cell * (float(np.linalg.norm(gap)) * du_d + 0.5 * du_d**2) + ROUNDOFF_ULPS * EPS * obj
    obj_report = float(report["objective"])
    if abs(obj - obj_report) > obj_tol:
        bad.append(f"control: objective {obj_report:.17g} vs dense {obj:.17g} (tol {obj_tol:.1e})")
    obj_zero = 0.5 * cell * float(np.sum(u_d * u_d))
    if not obj_report < obj_zero:
        bad.append(f"control: objective {obj_report:.6e} not below its value at f = 0, {obj_zero:.6e}")
    return bad


#: For p = 4 the gap of the quartic term is at least 1/32 of
#: min(theta, 1-theta) ||x - y||^4 (see the README for the derivation).
QUARTIC_MODULUS = 1.0 / 32.0


def quartic_gap_floor(theta: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """theta (1-theta) (1 - theta (1-theta)) (a - b)^4 / 3."""
    t = theta * (1.0 - theta)
    return t * (1.0 - t) * (a - b) ** 4 / 3.0


def check_convexity(record: dict[str, str], trials: int, resolution: float) -> list[str]:
    bad = []
    if int(record["N"]) != trials:
        bad.append(f"convexity: N = {record['N']}, expected {trials}")
    if int(record["failures"]) != 0:
        bad.append(f"convexity: failures = {record['failures']}")
    if float(record["gamma"]) != 4.0:
        bad.append(f"convexity: gamma = {record['gamma']}, expected 4")
    if not float(record["worst_defect"]) >= 0.0:
        bad.append(f"convexity: worst_defect = {record['worst_defect']} < 0")
    c = float(record["c_estimate"])
    if not c >= QUARTIC_MODULUS - resolution:
        bad.append(f"convexity: c_estimate {c:.6e} < 1/32 - {resolution:.1e}")
    return bad
