"""Acceptance suite: one test per shipped criterion, tolerances inline.

Every test emits a single PASS/FAIL line through _verdict so the captured
output reads as the acceptance report.  Pinned constants (the 2-D operator
gap, the modulus estimates) come from oracle runs recorded alongside the
expected tolerances; they are asserted with tight relative windows so a
behavior drift shows up as a hard failure, not a slow one.
"""

import numpy as np
import pytest

from pseudophase import (
    ControlConfig,
    Exponents,
    Grid,
    GridFunction,
    SamplerConfig,
    SolutionOperator,
    SolverConfig,
    WeightField,
    apply_divergence_operator,
    apply_pseudo_operator,
    energy,
    energy_gradient,
    estimate_modulus,
    check_sum_lemma,
    grid_function_space,
    inner_product,
    optimize_control,
    real_line_space,
    reduced_gradient,
    sobolev_norm,
    solve_inner,
    tracking_objective,
    validate_exponents,
    weak_residual,
)
from pseudophase.cli import main
from pseudophase.energy import _energy_terms


def _verdict(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _fourier_field(grid, rng, modes=4):
    coords = np.meshgrid(*grid.node_coords(), indexing="ij")
    vals = np.zeros(grid.shape)
    for k in range(1, modes + 1):
        amp = rng.standard_normal() / k
        term = np.sin(k * np.pi * coords[0])
        if grid.n == 2:
            term = term * np.sin(k * np.pi * coords[1])
        vals = vals + amp * term
    return GridFunction(grid, vals)


def _random_weight(grid, rng):
    per_axis = tuple(rng.uniform(0.0, 2.0, grid.edge_shape(a)) for a in range(grid.n))
    return WeightField.from_edge_values(grid, per_axis, mu_max=2.0)


def _fd_gradient(u, f, mu, e, t=1e-6):
    grid = u.grid
    cell = grid.h**grid.n
    out = np.zeros(grid.shape)
    for idx in np.ndindex(grid.shape):
        bump = np.zeros(grid.shape)
        bump[idx] = 1.0
        jp = energy(GridFunction(u.grid, u.values + t * bump), f, mu, e).total
        jm = energy(GridFunction(u.grid, u.values - t * bump), f, mu, e).total
        out[idx] = (jp - jm) / (2.0 * t * cell)
    return out


def test_criterion_01_gradient_consistency():
    # 20 random (u, f, mu) instances per exponent/grid configuration;
    # central differences at t = 1e-6; relative L2 error <= 1e-6.
    worst = 0.0
    for n, m in ((1, 31), (2, 15)):
        grid = Grid(n, m)
        for e in (Exponents(2.0, 2.0, n, 0.0), Exponents(4.0, 4.0 / 3.0, n, 1e-6)):
            rng = np.random.default_rng(2024)
            for _ in range(20):
                u = _fourier_field(grid, rng)
                f = GridFunction(grid, rng.standard_normal(grid.shape))
                mu = _random_weight(grid, rng)
                grad = energy_gradient(u, f, mu, e)
                fd = _fd_gradient(u, f, mu, e)
                rel = np.linalg.norm(fd - grad.values) / np.linalg.norm(fd)
                worst = max(worst, rel)
    _verdict(1, "gradient consistency", worst <= 1e-6, f"worst rel {worst:.3e} <= 1e-6")


def test_criterion_02_weak_strong_correspondence():
    # weak_residual(u, f, mu, e, phi) equals <A(u) - f, phi>_h to 1e-12
    # relative over 20 random u with 20 random phi each.
    grid = Grid(2, 9)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-6)
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(20):
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        mu = _random_weight(grid, rng)
        strong = energy_gradient(u, f, mu, e)
        for _ in range(20):
            phi = GridFunction(grid, rng.standard_normal(grid.shape))
            a = weak_residual(u, f, mu, e, phi)
            b = inner_product(strong, phi)
            scale = max(abs(a), abs(b))
            rel = abs(a - b) / scale if scale > 0.0 else 0.0
            worst = max(worst, rel)
    _verdict(2, "weak/strong correspondence", worst <= 1e-12, f"worst rel {worst:.3e} <= 1e-12")


def test_criterion_03_operator_mismatch_and_coincidence():
    # 1-D: exact agreement; 2-D anisotropic two-phase: pinned gap >= 0.01;
    # p = q = 2 in 2-D: agreement to 1e-12.
    e1 = Exponents(4.0, 4.0 / 3.0, 1, 1e-6)
    g1 = Grid(1, 31)
    x1 = g1.node_coords()[0]
    u1 = GridFunction(g1, x1 * (1.0 - x1))
    mu1 = WeightField.constant(g1, 1.0)
    a1 = apply_pseudo_operator(u1, mu1, e1)
    b1 = apply_divergence_operator(u1, mu1, e1)
    rel1 = np.linalg.norm(a1.values - b1.values) / np.linalg.norm(a1.values)

    e2 = Exponents(4.0, 4.0 / 3.0, 2, 1e-6)
    g2 = Grid(2, 15)
    x, y = np.meshgrid(*g2.node_coords(), indexing="ij")
    u2 = GridFunction(g2, x * (1.0 - x) * np.sin(np.pi * y))
    mu2 = WeightField.constant(g2, 1.0)
    a2 = apply_pseudo_operator(u2, mu2, e2)
    b2 = apply_divergence_operator(u2, mu2, e2)
    rel2 = np.linalg.norm(a2.values - b2.values) / np.linalg.norm(a2.values)

    eq = Exponents(2.0, 2.0, 2, 0.0)
    uq = GridFunction(g2, np.random.default_rng(3).standard_normal(g2.shape))
    aq = apply_pseudo_operator(uq, mu2, eq)
    bq = apply_divergence_operator(uq, mu2, eq)
    relq = np.linalg.norm(aq.values - bq.values) / np.linalg.norm(aq.values)

    ok = (
        rel1 <= 1e-14
        and rel2 >= 0.01
        and rel2 == pytest.approx(0.49453783229734899, rel=1e-9)
        and relq <= 1e-12
    )
    _verdict(
        3,
        "operator mismatch/coincidence",
        ok,
        f"1-D rel {rel1:.1e} <= 1e-14, 2-D gap {rel2:.6f} >= 0.01 (pinned), "
        f"quadratic rel {relq:.1e} <= 1e-12",
    )


def test_criterion_04_quadratic_convergence_order():
    # p = q = 2, mu = 1, f = 2: error vs x(1-x)/2 must shrink by >= 3.5x
    # per doubling across m = 15, 31, 63.  The nodal values are exact for
    # this stencil, so the error is measured where the scheme actually
    # carries discretization error: the piecewise-linear reconstruction at
    # cell midpoints.
    e = Exponents(2.0, 2.0, 1, 0.0)
    errs = []
    for m in (15, 31, 63):
        g = Grid(1, m)
        rep = solve_inner(
            GridFunction.full(g, 2.0),
            WeightField.constant(g, 1.0),
            e,
            SolverConfig(tol_grad=1e-10),
        )
        assert rep.converged
        v = np.concatenate([[0.0], rep.u_star.values, [0.0]])
        mids = (np.arange(m + 1) + 0.5) * g.h
        lin = 0.5 * (v[:-1] + v[1:])
        errs.append(float(np.max(np.abs(lin - mids * (1.0 - mids) / 2.0))))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = r1 >= 3.5 and r2 >= 3.5
    _verdict(4, "quadratic-case convergence", ok, f"ratios {r1:.4f}, {r2:.4f} >= 3.5")


def test_criterion_05_state_uniqueness():
    # Two distinct initializations of the general-exponent solve must land
    # on the same minimizer to sobolev_norm difference <= 1e-6.
    g = Grid(2, 15)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-6)
    mu = WeightField.constant(g, 1.0)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f = GridFunction(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    cold = SolverConfig(tol_grad=1e-6, max_iters=400_000)
    warm_init = GridFunction(g, 0.1 * np.random.default_rng(7).standard_normal(g.shape))
    warm = SolverConfig(tol_grad=1e-6, max_iters=400_000, init=warm_init)
    a = solve_inner(f, mu, e, cold)
    b = solve_inner(f, mu, e, warm)
    assert a.converged and b.converged
    diff = sobolev_norm(a.u_star - b.u_star, e.p)
    _verdict(5, "uniqueness of the state", diff <= 1e-6, f"sobolev diff {diff:.3e} <= 1e-6")


def test_criterion_06_exponent_validator():
    e = validate_exponents(4.0 / 3.0, 2, mode="strict")
    exact = e.p == 4.0
    rejected_strict = False
    try:
        validate_exponents(2.0, 2, mode="strict")
    except ValueError:
        rejected_strict = True
    rejected_relaxed = 0
    for p in (4.0 / 3.0, 1.2):
        try:
            validate_exponents(4.0 / 3.0, 2, mode="relaxed", p_override=p)
        except ValueError:
            rejected_relaxed += 1
    ok = exact and rejected_strict and rejected_relaxed == 2
    _verdict(
        6,
        "exponent validator",
        ok,
        f"strict q=4/3 n=2 gives p={e.p!r} exactly, "
        "q=2 strict and p<=q relaxed both rejected",
    )


def test_criterion_07_hyperconvexity_lab():
    # Scalar x**2 at gamma=2 over 1e4 trials; the discrete energy at
    # gamma=p on the m=5 line; the sum lemma at N=1e3 with h's modulus.
    sq_cfg = SamplerConfig(seed=0, trials=10_000, space=real_line_space())
    sq = estimate_modulus(lambda v: v * v, 2.0, sq_cfg)

    g = Grid(1, 5)
    e = Exponents(4.0, 4.0 / 3.0, 1, 1e-6)
    mu = WeightField.constant(g, 1.0)
    space = grid_function_space(g, 4.0)
    norm_q = grid_function_space(g, 4.0 / 3.0).norm
    j_cfg = SamplerConfig(seed=0, trials=1000, space=space)

    # The lab's points are stacks of nodal arrays; each functional returns
    # one value per point.  J is the energy at zero forcing.
    def J(points):
        p_term, q_term = _energy_terms(points, mu, e)
        return p_term + q_term

    j_cert = estimate_modulus(J, 4.0, j_cfg)

    def H(u):
        return space.norm(u) ** 4 / 4.0

    def G(u):
        return norm_q(u) ** (4.0 / 3.0) / (4.0 / 3.0)

    h_cert = estimate_modulus(H, 4.0, j_cfg)
    g_cert = estimate_modulus(G, 4.0 / 3.0, j_cfg)
    total = check_sum_lemma(h_cert, g_cert, lambda u: H(u) + G(u), j_cfg)

    ok = (
        0.49 <= sq.c_estimate <= 0.5
        and sq.failures == 0
        and j_cert.c_estimate > 0.0
        and j_cert.failures == 0
        and total.failures == 0
        and total.c_estimate == h_cert.c_estimate
    )
    _verdict(
        7,
        "hyperconvexity lab",
        ok,
        f"x^2 c={sq.c_estimate:.6f} in [0.49, 0.5], J c={j_cert.c_estimate:.4e} > 0, "
        f"sum keeps c={total.c_estimate:.4e} with 0 failures",
    )


def test_criterion_08_adjoint_reduced_gradient():
    # 10 random directions on the m=15 square; adjoint gradient vs central
    # differences of the reduced objective; relative error <= 1e-4.
    g = Grid(2, 15)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    mu = WeightField.constant(g, 1.0)
    inner = SolverConfig(tol_grad=1e-10, max_iters=400_000)
    cfg = ControlConfig(inner=inner, tol_reduced=1e-6, cg_tol=1e-12, alpha=1e-6)
    cache = SolutionOperator(mu, e, inner)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f_hat = GridFunction(g, 5.0 * np.sin(np.pi * x) * np.sin(np.pi * y))
    obj = tracking_objective(cache(f_hat), alpha=1e-6)
    rng = np.random.default_rng(11)
    f0 = GridFunction(g, 0.3 * rng.standard_normal(g.shape))
    grad = reduced_gradient(f0, obj, mu, e, cfg, cache=cache)

    def j(field):
        return obj.evaluate(field, cache(field))

    t = 1e-3
    worst = 0.0
    for _ in range(10):
        v = GridFunction(g, rng.standard_normal(g.shape))
        fd = (j(f0 + t * v) - j(f0 - t * v)) / (2.0 * t)
        rel = abs(inner_product(grad, v) - fd) / abs(fd)
        worst = max(worst, rel)
    _verdict(8, "adjoint reduced gradient", worst <= 1e-4, f"worst rel {worst:.3e} <= 1e-4")


def test_criterion_09_end_to_end_control():
    # u_d = psi(f_hat) with alpha = 1e-6: from f0 = 0 the outer loop must
    # reach stationarity <= 1e-5 and objective <= E(f_hat, u_d) + 1e-8.
    g = Grid(2, 15)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    mu = WeightField.constant(g, 1.0)
    inner = SolverConfig(tol_grad=1e-10, max_iters=400_000)
    cfg = ControlConfig(inner=inner, tol_reduced=1e-6, cg_tol=1e-12, alpha=1e-6)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f_hat = GridFunction(g, 5.0 * np.sin(np.pi * x) * np.sin(np.pi * y))
    u_d = solve_inner(f_hat, mu, e, inner).u_star
    obj = tracking_objective(u_d, alpha=1e-6)
    target = obj.evaluate(f_hat, u_d)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, e, cfg)
    ok = (
        rep.converged
        and rep.stationarity <= 1e-5
        and rep.outer_iters >= 1
        and rep.objective_trace[-1] <= target + 1e-8
    )
    _verdict(
        9,
        "end-to-end control",
        ok,
        f"outer {rep.outer_iters}, stationarity {rep.stationarity:.3e} <= 1e-5, "
        f"objective {rep.objective_trace[-1]:.9e} <= target {target:.9e} + 1e-8",
    )


def test_criterion_10_determinism(tmp_path):
    # Every command, run twice with the same config and seed, must emit
    # byte-identical artifacts.
    solve_cfg = (
        "command = solve\ngrid.n = 1\ngrid.m = 15\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "exponents.epsilon = 1e-4\nforcing.kind = preset\nforcing.preset = sine\n"
        "solver.tol = 1e-6\ndump_energy_trace = true\n"
    )
    compare_cfg = (
        "command = compare-ops\ngrid.n = 2\ngrid.m = 7\nexponents.q = 4/3\n"
    )
    convexity_cfg = (
        "command = convexity\ngrid.n = 1\ngrid.m = 5\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "convexity.trials = 200\nseed = 0\n"
    )
    control_cfg = (
        "command = control\ngrid.n = 1\ngrid.m = 7\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "exponents.epsilon = 1e-4\nforcing.kind = constant\nforcing.value = 1\n"
        "solver.tol = 1e-9\ncontrol.alpha = 1e-4\ncontrol.tol_reduced = 1e-7\n"
        "control.cg_tol = 1e-11\n"
    )
    exponents_cfg = "command = exponents\ngrid.n = 2\nexponents.q = 4/3\n"

    checked = 0
    for label, text in (
        ("solve", solve_cfg),
        ("compare-ops", compare_cfg),
        ("convexity", convexity_cfg),
        ("control", control_cfg),
        ("exponents", exponents_cfg),
    ):
        cfg_path = tmp_path / f"{label}.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        out1 = tmp_path / f"{label}-1"
        out2 = tmp_path / f"{label}-2"
        assert main(["--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out2)]) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (
                f"{label}/{name} differs between reruns"
            )
            checked += 1
    _verdict(10, "determinism", checked > 0, f"{checked} artifacts byte-identical across reruns")
