"""Descent solver and weak-form certificate tests."""

import numpy as np
import pytest

from pseudophase import (
    Exponents,
    Grid,
    GridFunction,
    SolverConfig,
    WeightField,
    sobolev_norm,
    solve_inner,
    weak_residual,
)

QUAD_1D = Exponents(2.0, 2.0, 1, 0.0)


def _nodal_x(grid):
    return grid.node_coords()[0]


def test_zero_forcing_yields_zero_solution():
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rep = solve_inner(GridFunction.zeros(g), mu, QUAD_1D)
    assert rep.converged
    assert rep.iterations == 0
    assert not rep.u_star.values.any()
    assert rep.weak_check == 0.0
    assert rep.energy_trace == (0.0,)


def test_quadratic_solution_matches_direct_solver():
    # p = q = 2, mu = 1 doubles the three-point Laplacian, and f = 2 makes
    # the parabola x(1-x)/2 nodally exact.
    g = Grid(1, 63)
    mu = WeightField.constant(g, 1.0)
    f = GridFunction.full(g, 2.0)
    rep = solve_inner(f, mu, QUAD_1D, SolverConfig(tol_grad=1e-10))
    assert rep.converged

    m, h = g.m, g.h
    main = np.full(m, 2.0)
    off = np.full(m - 1, -1.0)
    A = 2.0 * (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) / h**2
    direct = np.linalg.solve(A, f.values)
    assert np.max(np.abs(rep.u_star.values - direct)) <= 1e-9

    x = _nodal_x(g)
    exact = x * (1.0 - x) / 2.0
    assert np.max(np.abs(rep.u_star.values - exact)) <= 1e-9


def test_energy_trace_is_strictly_decreasing():
    g = Grid(2, 9)
    mu = WeightField.ramp(g, 1.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f = GridFunction(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    rep = solve_inner(f, mu, e, SolverConfig(tol_grad=1e-6))
    assert rep.converged
    trace = np.asarray(rep.energy_trace)
    assert trace.size == rep.iterations + 1
    assert np.all(np.diff(trace) < 0.0)


def test_energy_trace_never_increases_where_decreases_round_away():
    # Near convergence the certified decrease drops below the rounding of J,
    # so consecutive trace values can repeat (seven do here); none may rise.
    g = Grid(2, 9)
    mu = WeightField.from_nodal(
        g, GridFunction.from_callable(g, lambda x, y: 2.0 * np.maximum(0.0, 2.0 * x - 1.0))
    )
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4, strict_sobolev=True)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f = GridFunction(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    rep = solve_inner(f, mu, e, SolverConfig(tol_grad=1e-6))
    assert rep.converged
    trace = np.asarray(rep.energy_trace)
    assert trace.size == rep.iterations + 1
    assert np.all(np.diff(trace) <= 0.0)


def test_solution_scales_linearly_in_the_quadratic_case():
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(2)
    f = GridFunction(g, rng.standard_normal(g.shape))
    cfg = SolverConfig(tol_grad=1e-11)
    u1 = solve_inner(f, mu, QUAD_1D, cfg).u_star
    u2 = solve_inner(3.7 * f, mu, QUAD_1D, cfg).u_star
    np.testing.assert_allclose(u2.values, 3.7 * u1.values, atol=1e-9)


def test_non_convergence_is_reported_not_masked():
    g = Grid(1, 31)
    mu = WeightField.constant(g, 1.0)
    f = GridFunction.full(g, 2.0)
    rep = solve_inner(f, mu, QUAD_1D, SolverConfig(tol_grad=1e-13, max_iters=3))
    assert rep.status == "max_iters"
    assert not rep.converged
    assert rep.iterations == 3
    # The certificate is reported for every run and fails to pass here.
    assert rep.weak_check > 1e-13 * g.h


def test_weak_form_certificate_bound():
    g = Grid(2, 7)
    mu = WeightField.ramp(g, 1.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f = GridFunction(g, 2.0 * np.sin(np.pi * x) * y)
    cfg = SolverConfig(tol_grad=1e-7)
    rep = solve_inner(f, mu, e, cfg)
    assert rep.converged
    bound = cfg.tol_grad * g.h**g.n

    def worst_nodal_residual(u):
        worst = 0.0
        probe = np.zeros(g.shape)
        for idx in np.ndindex(g.shape):
            probe[idx] = 1.0
            worst = max(worst, abs(weak_residual(u, f, mu, e, GridFunction(g, probe))))
            probe[idx] = 0.0
        return worst

    assert rep.weak_check <= bound
    assert worst_nodal_residual(rep.u_star) == rep.weak_check

    # A visible perturbation of the minimizer must break the certificate.
    bumped_vals = rep.u_star.values.copy()
    bumped_vals[3, 3] += 1e-3
    assert worst_nodal_residual(GridFunction(g, bumped_vals)) > bound


def test_minimizer_does_not_depend_on_the_start():
    g = Grid(2, 7)
    mu = WeightField.ramp(g, 1.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    f = GridFunction(g, np.sin(np.pi * x) * np.sin(np.pi * y))
    cfg0 = SolverConfig(tol_grad=1e-7)
    rng = np.random.default_rng(7)
    warm = GridFunction(g, 0.1 * rng.standard_normal(g.shape))
    cfg1 = SolverConfig(tol_grad=1e-7, init=warm)
    a = solve_inner(f, mu, e, cfg0)
    b = solve_inner(f, mu, e, cfg1)
    assert a.converged and b.converged
    assert sobolev_norm(a.u_star - b.u_star, e.p) <= 1e-5


def test_midpoint_error_shrinks_at_second_order():
    # With f = 2 the nodal solution is exact, so the whole discretization
    # error sits in the piecewise-linear reconstruction between nodes:
    # h**2/8 at cell midpoints, quartering per refinement.
    errs = []
    for m in (15, 31):
        g = Grid(1, m)
        mu = WeightField.constant(g, 1.0)
        f = GridFunction.full(g, 2.0)
        rep = solve_inner(f, mu, QUAD_1D, SolverConfig(tol_grad=1e-10))
        assert rep.converged
        v = np.concatenate([[0.0], rep.u_star.values, [0.0]])
        mids = (np.arange(m + 1) + 0.5) * g.h
        lin = 0.5 * (v[:-1] + v[1:])
        errs.append(np.max(np.abs(lin - mids * (1.0 - mids) / 2.0)))
        assert errs[-1] == pytest.approx(g.h**2 / 8.0, rel=1e-6)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-3)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(armijo_c=1.0)
    with pytest.raises(ValueError):
        SolverConfig(backtrack=0.0)


def test_init_must_live_on_the_same_grid():
    g = Grid(1, 7)
    mu = WeightField.constant(g, 1.0)
    bad = SolverConfig(init=GridFunction.zeros(Grid(1, 9)))
    with pytest.raises(ValueError, match="grid"):
        solve_inner(GridFunction.zeros(g), mu, QUAD_1D, bad)
