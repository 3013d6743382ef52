"""Solution operator, reduced gradient, and outer-loop control tests."""

import numpy as np
import pytest

from pseudophase import (
    CGBreakdownError,
    ControlConfig,
    Exponents,
    Grid,
    GridFunction,
    InnerSolveError,
    Objective,
    SolutionOperator,
    SolverConfig,
    WeightField,
    gateaux_derivative,
    optimize_control,
    reduced_gradient,
    solution_operator,
    tracking_objective,
)
from pseudophase.control import _cg

QUAD = Exponents(2.0, 2.0, 1, 0.0)
TWO_PHASE = Exponents(4.0, 4.0 / 3.0, 1, 1e-4)


def _tight_inner():
    return SolverConfig(tol_grad=1e-10, max_iters=400_000)


def _cfg(**kw):
    return ControlConfig(inner=_tight_inner(), **kw)


def test_tracking_objective_self_test_passes():
    g = Grid(1, 7)
    rng = np.random.default_rng(0)
    u_d = GridFunction(g, rng.standard_normal(g.shape))
    obj = tracking_objective(u_d, alpha=1e-6)
    assert obj.self_test(g) <= 1e-6


def test_self_test_rejects_an_inconsistent_gradient():
    g = Grid(1, 5)
    u_d = GridFunction.zeros(g)
    good = tracking_objective(u_d, alpha=0.1)
    bad = Objective(
        evaluate=good.evaluate,
        grad_u=lambda f, u: -good.grad_u(f, u),
        grad_f=good.grad_f,
    )
    with pytest.raises(ValueError, match="relative error"):
        bad.self_test(g)


def test_tracking_objective_rejects_negative_alpha():
    g = Grid(1, 3)
    with pytest.raises(ValueError, match="alpha"):
        tracking_objective(GridFunction.zeros(g), alpha=-0.5)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_non_finite_alpha_is_rejected(alpha):
    g = Grid(1, 3)
    with pytest.raises(ValueError, match="alpha must be finite"):
        tracking_objective(GridFunction.zeros(g), alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        _cfg(alpha=alpha)


def test_solution_operator_is_linear_for_quadratic_exponents():
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(1)
    f1 = GridFunction(g, rng.standard_normal(g.shape))
    f2 = GridFunction(g, rng.standard_normal(g.shape))
    cfg = SolverConfig(tol_grad=1e-11)
    a = solution_operator(f1 + f2, mu, QUAD, cfg)
    b = solution_operator(f1, mu, QUAD, cfg) + solution_operator(f2, mu, QUAD, cfg)
    np.testing.assert_allclose(a.values, b.values, atol=1e-9)


def test_solution_operator_cache_replays_the_same_report():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    op = SolutionOperator(mu, QUAD, SolverConfig(tol_grad=1e-9))
    f = GridFunction(g, np.linspace(-1.0, 1.0, 9))
    first = op.report(f)
    second = op.report(f)
    assert second is first
    fresh = SolutionOperator(mu, QUAD, SolverConfig(tol_grad=1e-9)).report(f)
    assert np.array_equal(fresh.u_star.values, first.u_star.values)


def test_unconverged_inner_solve_raises_instead_of_returning():
    g = Grid(1, 31)
    mu = WeightField.constant(g, 1.0)
    f = GridFunction.full(g, 2.0)
    with pytest.raises(InnerSolveError, match="did not converge"):
        solution_operator(f, mu, QUAD, SolverConfig(tol_grad=1e-14, max_iters=2))


def test_gateaux_derivative_of_zero_direction_is_zero():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    f = GridFunction(g, np.linspace(0.0, 1.0, 9))
    w = gateaux_derivative(f, GridFunction.zeros(g), mu, QUAD, _cfg())
    assert not w.values.any()


def test_gateaux_derivative_is_the_state_map_when_linear():
    # For p = q = 2 the solution operator is linear, so its derivative
    # along h is psi(h) itself.
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.shape))
    h = GridFunction(g, rng.standard_normal(g.shape))
    cfg = _cfg(cg_tol=1e-12)
    w = gateaux_derivative(f, h, mu, QUAD, cfg)
    psi_h = solution_operator(h, mu, QUAD, cfg.inner)
    np.testing.assert_allclose(w.values, psi_h.values, atol=1e-9)


def test_gateaux_derivative_matches_central_differences():
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(11)
    f = GridFunction(g, 0.3 * rng.standard_normal(g.shape))
    h = GridFunction(g, rng.standard_normal(g.shape))
    cfg = _cfg(cg_tol=1e-12)
    w = gateaux_derivative(f, h, mu, TWO_PHASE, cfg)
    t = 1e-3
    up = solution_operator(f + t * h, mu, TWO_PHASE, cfg.inner)
    dn = solution_operator(f - t * h, mu, TWO_PHASE, cfg.inner)
    fd = (up.values - dn.values) / (2.0 * t)
    rel = np.linalg.norm(fd - w.values) / np.linalg.norm(fd)
    assert rel <= 1e-3


def test_cg_guard_raises_on_negative_curvature():
    b = np.ones(4)
    with pytest.raises(CGBreakdownError, match="curvature"):
        _cg(lambda x: -x, b, tol=1e-10, max_iters=10)


def test_cg_raises_when_iterations_run_out():
    A = np.diag(np.arange(1.0, 9.0))
    with pytest.raises(CGBreakdownError, match="did not reach"):
        _cg(lambda x: A @ x, np.ones(8), tol=1e-14, max_iters=2)


def test_reduced_gradient_without_state_coupling_is_grad_f():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    alpha = 0.25
    obj = Objective(
        evaluate=lambda f, u: 0.5 * alpha * float(np.sum(f.values**2)) * g.h,
        grad_u=lambda f, u: GridFunction.zeros(g),
        grad_f=lambda f, u: alpha * f,
    )
    f = GridFunction(g, np.linspace(-1.0, 1.0, 9))
    got = reduced_gradient(f, obj, mu, QUAD, _cfg())
    assert np.array_equal(got.values, alpha * f.values)


def test_reduced_gradient_vanishes_at_a_perfect_fit():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    cfg = _cfg()
    cache = SolutionOperator(mu, TWO_PHASE, cfg.inner)
    f_hat = GridFunction(g, np.sin(np.pi * g.node_coords()[0]))
    u_d = cache(f_hat)
    obj = tracking_objective(u_d, alpha=0.0)
    grad = reduced_gradient(f_hat, obj, mu, TWO_PHASE, cfg, cache=cache)
    assert not grad.values.any()


def test_reduced_gradient_matches_finite_differences():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(8)
    u_d = GridFunction(g, 0.05 * rng.standard_normal(g.shape))
    obj = tracking_objective(u_d, alpha=1e-2)
    f = GridFunction(g, 0.2 * rng.standard_normal(g.shape))
    cfg = _cfg(cg_tol=1e-12)
    cache = SolutionOperator(mu, TWO_PHASE, cfg.inner)
    grad = reduced_gradient(f, obj, mu, TWO_PHASE, cfg, cache=cache)

    def j(values):
        ff = GridFunction(g, values)
        return obj.evaluate(ff, cache(ff))

    t = 1e-5
    cell = g.h
    fd = np.zeros(g.shape)
    for k in range(g.m):
        bump = np.zeros(g.shape)
        bump[k] = 1.0
        fd[k] = (j(f.values + t * bump) - j(f.values - t * bump)) / (2.0 * t * cell)
    rel = np.linalg.norm(fd - grad.values) / np.linalg.norm(fd)
    assert rel <= 1e-4


def test_optimize_control_recognizes_a_stationary_start():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    f0 = GridFunction.zeros(g)
    u_d = solution_operator(f0, mu, TWO_PHASE, _tight_inner())
    obj = tracking_objective(u_d, alpha=0.5)
    rep = optimize_control(obj, f0, mu, TWO_PHASE, _cfg(alpha=0.5))
    assert rep.converged
    assert rep.outer_iters == 0
    assert len(rep.objective_trace) == 1


def test_optimize_control_drives_the_state_to_the_target():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    x = g.node_coords()[0]
    f_hat = GridFunction(g, 2.0 * np.sin(np.pi * x))
    inner = _tight_inner()
    u_d = solution_operator(f_hat, mu, QUAD, inner)
    alpha = 1e-4
    obj = tracking_objective(u_d, alpha)
    cfg = _cfg(tol_reduced=1e-7, cg_tol=1e-12, alpha=alpha)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, QUAD, cfg)
    assert rep.converged
    assert rep.stationarity <= 1e-7
    trace = np.asarray(rep.objective_trace)
    assert np.all(np.diff(trace) < 0.0)
    # The optimum cannot beat the regularized value at f_hat itself.
    assert trace[-1] <= obj.evaluate(f_hat, u_d)
    gap = np.max(np.abs(rep.u_star.values - u_d.values))
    assert gap <= 1e-2


def test_optimize_control_strong_regularization_keeps_f_small():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(13)
    u_d = GridFunction(g, rng.standard_normal(g.shape))
    alpha = 1e6
    obj = tracking_objective(u_d, alpha)
    cfg = _cfg(tol_reduced=1e-4, alpha=alpha)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, TWO_PHASE, cfg)
    assert rep.converged
    # Stationarity alpha*f + lambda = 0 with bounded lambda pins f near 0.
    assert np.max(np.abs(rep.f_star.values)) <= 1e-4


def test_control_config_validation():
    inner = SolverConfig()
    with pytest.raises(ValueError, match="cg_tol must be below"):
        ControlConfig(inner=inner, tol_reduced=1e-10, cg_tol=1e-8)
    with pytest.raises(ValueError, match="tol_reduced"):
        ControlConfig(inner=inner, tol_reduced=0.0)
    with pytest.raises(ValueError, match="alpha"):
        ControlConfig(inner=inner, alpha=-1.0)
    with pytest.raises(ValueError, match="max_outer"):
        ControlConfig(inner=inner, max_outer=0)
