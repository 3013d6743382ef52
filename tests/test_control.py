"""Solution operator, reduced gradient, and outer-loop control tests."""

import importlib
import inspect
import math
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudophase import (
    CGBreakdownError,
    ControlConfig,
    Exponents,
    Grid,
    GridFunction,
    InnerSolveError,
    Objective,
    SolutionOperator,
    SingularLinearizationError,
    SolverConfig,
    WeightField,
    gateaux_derivative,
    hessian_apply,
    optimize_control,
    reduced_gradient,
    solve_inner,
    tracking_objective,
    validate_exponents,
)
from pseudophase import control, solver
from pseudophase.control import _hessian_solve
from pseudophase.grid import inner_product
from pseudophase.solver import _cg

# The package exports the function `energy`, which shadows its module.
energy_module = importlib.import_module("pseudophase.energy")

QUAD = Exponents(2.0, 2.0, 1, 0.0)
TWO_PHASE = Exponents(4.0, 4.0 / 3.0, 1, 1e-4)


def _tight_inner():
    return SolverConfig(tol_grad=1e-10, max_iters=400_000)


def _cfg(**kw):
    return ControlConfig(inner=_tight_inner(), **kw)


def _operator(mu, e):
    return SolutionOperator(mu, e, SolverConfig())


def _record(u, mu, e):
    """The stencil record of the Hessian at u, as the control loop builds it."""
    return _operator(mu, e).linearization(u)


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


def test_probe_fields_are_fixed_distinct_and_in_the_half_open_unit_interval():
    for g, count in ((Grid(1, 1), 12), (Grid(1, 7), 12), (Grid(2, 7), 4)):
        fields = control._probe_fields(g, count)
        assert fields.shape == (count, *g.shape)
        assert np.array_equal(fields, control._probe_fields(g, count))
        assert np.all(fields >= -1.0) and np.all(fields < 1.0) and np.all(fields != 0.0)
        assert len({field.tobytes() for field in fields}) == count


def test_probe_fields_are_splitmix64_of_the_entry_counter():
    gamma = 0x9E3779B97F4A7C15

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    # The published first output of splitmix64 seeded with 1234567.
    assert mix((1234567 + gamma) % 2**64) == 6457827717110365317
    g = Grid(2, 3)
    counter = range(1, 2 * g.n_nodes + 1)
    expected = [(mix(k * gamma % 2**64) >> 11) * 2.0**-52 - 1.0 for k in counter]
    assert control._probe_fields(g, 2).reshape(-1).tolist() == expected


def test_self_test_draws_f_u_and_the_two_directions_in_order():
    g = Grid(2, 4)
    seen = []
    good = tracking_objective(GridFunction.zeros(g), alpha=0.5)

    def grad(which):
        def record(f, u):
            seen.append((which, f.values.copy(), u.values.copy()))
            return getattr(good, "grad_" + which)(f, u)

        return record

    spy = Objective(evaluate=good.evaluate, grad_u=grad("u"), grad_f=grad("f"))
    spy.self_test(g)
    fields = control._probe_fields(g, 12)
    assert [which for which, _, _ in seen] == ["u", "f"] * 3
    for k, (_, f, u) in enumerate(seen):
        probe = 4 * (k // 2)
        assert np.array_equal(f, fields[probe]) and np.array_equal(u, fields[probe + 1])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", range(1, 10))
def test_self_test_passes_the_tracking_objective(n, m):
    g = Grid(n, m)
    u_d = GridFunction(g, np.cos(np.arange(g.n_nodes, dtype=float)).reshape(g.shape))
    assert tracking_objective(u_d, alpha=1e-3).self_test(g) <= 1e-6


def _tampered(g, grad_u=None, grad_f=None):
    u_d = GridFunction(g, np.sin(np.arange(g.n_nodes, dtype=float)).reshape(g.shape))
    good = tracking_objective(u_d, alpha=0.1)
    return Objective(
        evaluate=good.evaluate,
        grad_u=grad_u(good) if grad_u else good.grad_u,
        grad_f=grad_f(good) if grad_f else good.grad_f,
    )


@pytest.mark.parametrize("g", [Grid(1, 7), Grid(2, 7)])
def test_self_test_rejects_a_grad_f_wrong_at_one_interior_node(g):
    node = tuple(k // 2 for k in g.shape)

    def wrong(good):
        def grad_f(f, u):
            values = good.grad_f(f, u).values.copy()
            values[node] += 1e-3
            return GridFunction(g, values)

        return grad_f

    with pytest.raises(ValueError, match="relative error"):
        _tampered(g, grad_f=wrong).self_test(g)


@pytest.mark.parametrize("g", [Grid(1, 7), Grid(2, 7)])
def test_self_test_rejects_a_grad_u_scaled_by_one_plus_1e_4(g):
    scaled = lambda good: lambda f, u: (1.0 + 1e-4) * good.grad_u(f, u)
    with pytest.raises(ValueError, match="relative error"):
        _tampered(g, grad_u=scaled).self_test(g)


@pytest.mark.parametrize("which", ["u", "f"])
def test_self_test_rejects_a_gradient_error_that_sums_to_zero(which):
    # A constant direction pairs to 0 with this error and would miss it.
    g = Grid(2, 5)
    error = np.zeros(g.shape)
    error[1, 2], error[3, 2] = 1e-2, -1e-2

    def wrong(good):
        return lambda f, u: getattr(good, "grad_" + which)(f, u) + GridFunction(g, error)

    with pytest.raises(ValueError, match="relative error"):
        _tampered(g, **{"grad_" + which: wrong}).self_test(g)


def test_self_test_rejects_gradients_right_only_where_u_equals_f():
    # E = 0.5 |u - f|^2 claims zero gradients: true exactly where u == f.
    g = Grid(2, 5)
    zero = lambda f, u: GridFunction.zeros(g)
    evaluate = lambda f, u: 0.5 * inner_product(u - f, u - f)
    obj = Objective(evaluate=evaluate, grad_u=zero, grad_f=zero)
    with pytest.raises(ValueError, match="relative error"):
        obj.self_test(g)


def test_tracking_objective_rejects_negative_alpha():
    g = Grid(1, 3)
    with pytest.raises(ValueError, match="alpha"):
        tracking_objective(GridFunction.zeros(g), alpha=-0.5)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_non_finite_alpha_is_rejected(alpha):
    g = Grid(1, 3)
    with pytest.raises(ValueError, match="alpha must be finite"):
        tracking_objective(GridFunction.zeros(g), alpha=alpha)


def test_solution_operator_is_linear_for_quadratic_exponents():
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(1)
    f1 = GridFunction(g, rng.standard_normal(g.shape))
    f2 = GridFunction(g, rng.standard_normal(g.shape))
    cfg = SolverConfig(tol_grad=1e-11)
    a = SolutionOperator(mu, QUAD, cfg)(f1 + f2)
    b = SolutionOperator(mu, QUAD, cfg)(f1) + SolutionOperator(mu, QUAD, cfg)(f2)
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


def test_solution_operator_keeps_only_the_last_solve(monkeypatch):
    real = control.solve_inner
    calls = []

    def counting(f, *args):
        calls.append(f)
        return real(f, *args)

    monkeypatch.setattr(control, "solve_inner", counting)
    g = Grid(1, 9)
    op = SolutionOperator(WeightField.constant(g, 1.0), QUAD, SolverConfig(tol_grad=1e-9))
    f1 = GridFunction(g, np.linspace(-1.0, 1.0, 9))
    f2 = GridFunction(g, np.linspace(1.0, -1.0, 9))
    reports = [op.report(f) for f in (f1, f2, f2, f1)]
    # f2 again replays the last solve; f1 again was evicted by f2.
    assert len(calls) == 3
    assert reports[2] is reports[1]
    assert reports[3] is not reports[0]
    assert np.array_equal(reports[3].u_star.values, reports[0].u_star.values)


def test_solution_operator_replays_only_a_solve_at_least_as_tight(monkeypatch):
    real = control.solve_inner
    tols = []

    def counting(f, mu, e, cfg, init=None):
        tols.append(cfg.tol_grad)
        return real(f, mu, e, cfg, init)

    monkeypatch.setattr(control, "solve_inner", counting)
    g = Grid(1, 9)
    op = SolutionOperator(WeightField.constant(g, 1.0), TWO_PHASE, SolverConfig(tol_grad=1e-6))
    f = GridFunction(g, np.linspace(-1.0, 1.0, 9))
    tight = op.report(f, tol=1e-10)
    assert op.report(f) is tight  # the default 1e-6 is looser
    assert op.report(f, tol=1e-10) is tight
    finer = op.report(f, tol=1e-11)
    assert finer is not tight and finer.final_grad_norm <= 1e-11
    assert tols == [1e-10, 1e-11]
    assert op.solves == 2


def test_unconverged_inner_solve_raises_instead_of_returning():
    g = Grid(1, 31)
    mu = WeightField.constant(g, 1.0)
    f = GridFunction.full(g, 2.0)
    with pytest.raises(InnerSolveError, match="did not converge"):
        SolutionOperator(mu, QUAD, SolverConfig(tol_grad=1e-14, max_iters=2))(f)


def test_gateaux_derivative_of_zero_direction_is_zero():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    f = GridFunction(g, np.linspace(0.0, 1.0, 9))
    cfg = _cfg()
    w = gateaux_derivative(f, GridFunction.zeros(g), SolutionOperator(mu, QUAD, cfg.inner), cfg)
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
    w = gateaux_derivative(f, h, SolutionOperator(mu, QUAD, cfg.inner), cfg)
    psi_h = SolutionOperator(mu, QUAD, cfg.inner)(h)
    np.testing.assert_allclose(w.values, psi_h.values, atol=1e-9)


def test_gateaux_derivative_matches_central_differences():
    g = Grid(1, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(11)
    f = GridFunction(g, 0.3 * rng.standard_normal(g.shape))
    h = GridFunction(g, rng.standard_normal(g.shape))
    cfg = _cfg(cg_tol=1e-12)
    w = gateaux_derivative(f, h, SolutionOperator(mu, TWO_PHASE, cfg.inner), cfg)
    t = 1e-3
    up = SolutionOperator(mu, TWO_PHASE, cfg.inner)(f + t * h)
    dn = SolutionOperator(mu, TWO_PHASE, cfg.inner)(f - t * h)
    fd = (up.values - dn.values) / (2.0 * t)
    rel = np.linalg.norm(fd - w.values) / np.linalg.norm(fd)
    assert rel <= 1e-3


def test_cg_guard_raises_on_negative_curvature(monkeypatch):
    b = np.ones(4)
    x, reason, _ = _cg(lambda x: -x, b, tol=1e-10, max_iters=10)
    assert reason == "curvature"
    # The first direction failed, so CG hands back b, the steepest descent.
    assert np.array_equal(x, b)

    g = Grid(1, 7)
    mu = WeightField.constant(g, 1.0)
    u = GridFunction(g, np.sin(np.pi * g.node_coords()[0]))
    real = control._hessian_product
    monkeypatch.setattr(control, "_hessian_product", lambda lin, w: -real(lin, w))
    with pytest.raises(CGBreakdownError, match="curvature"):
        _hessian_solve(
            _record(u, mu, TWO_PHASE), GridFunction.full(g, 1.0), _cfg(), _operator(mu, TWO_PHASE)
        )


def test_cg_raises_when_iterations_run_out(monkeypatch):
    A = np.diag(np.arange(1.0, 9.0))
    x, reason, _ = _cg(lambda x: A @ x, np.ones(8), tol=1e-14, max_iters=2)
    assert reason == "max_iters"
    assert np.all(np.isfinite(x)) and x.any()

    g = Grid(1, 8)
    mu = WeightField.constant(g, 1.0)
    u = GridFunction(g, np.sin(np.pi * g.node_coords()[0]))
    rhs = GridFunction(g, np.arange(1.0, 9.0))
    # Jacobi CG solves this system in 8 products, so only a shrunken budget
    # reaches the "did not reach" branch.
    psi = SolutionOperator(mu, TWO_PHASE, SolverConfig())
    _hessian_solve(_record(u, mu, TWO_PHASE), rhs, _cfg(cg_tol=1e-14), psi)
    assert 0 < psi.adjoint_matvecs <= 10 * g.n_nodes
    monkeypatch.setattr(control, "_CG_PRODUCTS_PER_NODE", 0)
    with pytest.raises(CGBreakdownError, match="did not reach tol=1.0e-14 within 0 iterations"):
        _hessian_solve(_record(u, mu, TWO_PHASE), rhs, _cfg(cg_tol=1e-14), psi)


def _indicator_diagonal(u, mu, e):
    """hessian_apply(u, e_k)[k] for every node k, one public product per node."""
    grid = u.grid
    diag = np.empty(grid.shape)
    probe = np.zeros(grid.shape)
    for idx in np.ndindex(grid.shape):
        probe[idx] = 1.0
        diag[idx] = hessian_apply(u, GridFunction(grid, probe), mu, e).values[idx]
        probe[idx] = 0.0
    return diag


def _reference_hessian_solve(u, rhs, mu, e, cfg):
    """The adjoint CG over public hessian_apply products: (solution, reason, products).

    Preconditioned by the Jacobi diagonal read off hessian_apply on the
    nodal indicators, which the solve must reproduce bit for bit.
    """
    grid = u.grid
    cg_max = 10 * grid.n_nodes
    inv_diag = (1.0 / _indicator_diagonal(u, mu, e)).ravel()
    products = 0

    def apply_h(values):
        nonlocal products
        products += 1
        return hessian_apply(u, GridFunction(grid, values), mu, e).values

    def jacobi(r, out):
        np.multiply(r, inv_diag, out=out)

    solution, reason, _ = _cg(apply_h, np.asarray(rhs.values), cfg.cg_tol, cg_max, precondition=jacobi)
    return solution, reason, products


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(2, 12),
    pq=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (4.0, 4.0 / 3.0), (3.0, 1.5)]),
    eps_reg=st.sampled_from([1e-4, 1e-2, 1.0]),
    weight=st.sampled_from(["constant", "ramp"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_solve_equals_the_hessian_apply_reference(n, m, pq, eps_reg, weight, seed):
    g = Grid(n, m)
    e = Exponents(pq[0], pq[1], n, eps_reg)
    mu = WeightField.constant(g, 0.7) if weight == "constant" else WeightField.ramp(g, 2.0)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, 0.3 * rng.standard_normal(g.shape))
    rhs = GridFunction(g, rng.standard_normal(g.shape))
    cfg = _cfg()
    expected, reason, products = _reference_hessian_solve(u, rhs, mu, e, cfg)
    with mock.patch.object(control, "_hessian_product", wraps=control._hessian_product) as spy:
        if reason == "converged":
            got = _hessian_solve(_record(u, mu, e), rhs, cfg, _operator(mu, e))
            assert np.array_equal(got.values, expected)
        else:
            with pytest.raises(CGBreakdownError):
                _hessian_solve(_record(u, mu, e), rhs, cfg, _operator(mu, e))
    assert spy.call_count == products


def test_one_adjoint_solve_builds_the_linearization_once(monkeypatch):
    g = Grid(2, 7)
    mu = WeightField.ramp(g, 2.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    rng = np.random.default_rng(5)
    u = GridFunction(g, 0.3 * rng.standard_normal(g.shape))
    real = energy_module._hessian_coeff
    built = []
    monkeypatch.setattr(
        energy_module, "_hessian_coeff", lambda *args: built.append(1) or real(*args)
    )
    spy = mock.Mock(wraps=control._hessian_product)
    monkeypatch.setattr(control, "_hessian_product", spy)
    _hessian_solve(_record(u, mu, e), GridFunction.full(g, 1.0), _cfg(), _operator(mu, e))
    assert spy.call_count > g.n
    assert len(built) == 1


@pytest.mark.filterwarnings("error")
def test_singular_linearization_raises_only_when_cg_needs_a_product(monkeypatch):
    spy = mock.Mock(wraps=control._hessian_product)
    monkeypatch.setattr(control, "_hessian_product", spy)
    for n in (1, 2):
        g = Grid(n, 7)
        mu = WeightField.constant(g, 0.0)
        e = Exponents(3.0, 2.0, n, 0.0)
        zero = GridFunction.zeros(g)
        lin = _record(zero, mu, e)
        assert lin.singular and lin.precondition is None
        psi = SolutionOperator(mu, e, SolverConfig())
        # Every coefficient vanishes at u = 0; a zero rhs makes no product.
        with np.errstate(all="raise"):
            assert not _hessian_solve(lin, zero, _cfg(), psi).values.any()
            assert psi.adjoint_matvecs == 0
            # The check comes before CG, which never runs over the singular
            # record; an rhs whose r.r underflows to 0 raises too.
            for value in (1.0, 1e-170):
                with pytest.raises(SingularLinearizationError, match="eps_reg = 0"):
                    _hessian_solve(lin, GridFunction.full(g, value), _cfg(), psi)
        assert psi.adjoint_matvecs == 0
    assert spy.call_count == 0


def test_operators_for_the_same_weight_and_equal_exponents_give_the_same_gradient():
    g = Grid(1, 7)
    mu = WeightField.constant(g, 0.5)
    cfg = _cfg()
    x = g.node_coords()[0]
    obj = tracking_objective(GridFunction(g, x * (1.0 - x)), 1e-4)
    f = GridFunction(g, np.sin(np.pi * x))
    first = reduced_gradient(f, obj, SolutionOperator(mu, TWO_PHASE, cfg.inner), cfg)
    # Equal exponents in another record give the same bits.
    psi = SolutionOperator(mu, Exponents(4.0, 4.0 / 3.0, 1, 1e-4), cfg.inner)
    assert np.array_equal(reduced_gradient(f, obj, psi, cfg).values, first.values)


def test_reduced_gradient_solves_the_state_to_the_operators_tolerance(monkeypatch):
    # The operator owns the state problem: cfg.inner does not decide the
    # tolerance of the state solve, psi.inner does.
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    x = g.node_coords()[0]
    obj = tracking_objective(GridFunction(g, x * (1.0 - x)), 1e-4)
    f = GridFunction(g, np.sin(np.pi * x))
    cfg = ControlConfig(inner=SolverConfig(tol_grad=1e-12))
    psi = SolutionOperator(mu, TWO_PHASE, SolverConfig(tol_grad=1e-2))
    tolerances = []
    real_solve = control.solve_inner

    def spy_solve(f, mu, e, inner, init=None):
        tolerances.append(inner.tol_grad)
        return real_solve(f, mu, e, inner, init)

    monkeypatch.setattr(control, "solve_inner", spy_solve)
    grad = reduced_gradient(f, obj, psi, cfg)
    assert tolerances == [psi.inner.tol_grad]
    monkeypatch.setattr(control, "solve_inner", real_solve)
    tight = SolutionOperator(mu, TWO_PHASE, cfg.inner)
    assert not np.array_equal(reduced_gradient(f, obj, tight, cfg).values, grad.values)


def test_no_public_control_function_takes_an_operator_and_its_weight_or_exponents():
    def typed(fn):
        hints = typing.get_type_hints(fn)
        return {hints[name] for name in inspect.signature(fn).parameters if name in hints}

    functions = []
    for name in control.__all__:
        obj = getattr(control, name)
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions += [
                member
                for attr, member in vars(obj).items()
                if inspect.isfunction(member) and not attr.startswith("_")
            ]
    assert control.gateaux_derivative in functions and control.reduced_gradient in functions
    for fn in functions:
        types = typed(fn)
        if SolutionOperator in types:
            assert not types & {WeightField, Exponents}, fn.__qualname__


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
    cfg = _cfg()
    got = reduced_gradient(f, obj, SolutionOperator(mu, QUAD, cfg.inner), cfg)
    assert np.array_equal(got.values, alpha * f.values)


def test_reduced_gradient_vanishes_at_a_perfect_fit():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    cfg = _cfg()
    cache = SolutionOperator(mu, TWO_PHASE, cfg.inner)
    f_hat = GridFunction(g, np.sin(np.pi * g.node_coords()[0]))
    u_d = cache(f_hat)
    obj = tracking_objective(u_d, alpha=0.0)
    grad = reduced_gradient(f_hat, obj, cache, cfg)
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
    grad = reduced_gradient(f, obj, cache, cfg)

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
    u_d = SolutionOperator(mu, TWO_PHASE, _tight_inner())(f0)
    obj = tracking_objective(u_d, alpha=0.5)
    rep = optimize_control(obj, f0, mu, TWO_PHASE, _cfg())
    assert rep.converged
    assert rep.outer_iters == 0
    assert len(rep.objective_trace) == 1


def test_optimize_control_drives_the_state_to_the_target():
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    x = g.node_coords()[0]
    f_hat = GridFunction(g, 2.0 * np.sin(np.pi * x))
    inner = _tight_inner()
    u_d = SolutionOperator(mu, QUAD, inner)(f_hat)
    alpha = 1e-4
    obj = tracking_objective(u_d, alpha)
    cfg = _cfg(tol_reduced=1e-7, cg_tol=1e-12)
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
    cfg = _cfg(tol_reduced=1e-4)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, TWO_PHASE, cfg)
    assert rep.converged
    # Stationarity alpha*f + lambda = 0 with bounded lambda pins f near 0.
    assert np.max(np.abs(rep.f_star.values)) <= 1e-4


def test_optimize_control_falls_back_to_the_gradient_for_a_concave_state_term(monkeypatch):
    # E = -0.5 c |u|^2 + 0.5 |f|^2 is bounded below for p = 3 (|u| grows like
    # |f|^(1/2)) but its model operator I - c S S is indefinite near u = 0.
    g = Grid(1, 9)
    mu = WeightField.constant(g, 1.0)
    e = Exponents(3.0, 2.0, 1, 1e-4)
    c = 1e3
    obj = Objective(
        evaluate=lambda f, u: -0.5 * c * inner_product(u, u) + 0.5 * inner_product(f, f),
        grad_u=lambda f, u: -c * u,
        grad_f=lambda f, u: f,
    )
    real = control._gauss_newton_direction
    fallbacks = []

    def direction(f, u, grad, *args):
        d, products = real(f, u, grad, *args)
        fallbacks.append(np.array_equal(d, grad.values))
        return d, products

    monkeypatch.setattr(control, "_gauss_newton_direction", direction)
    f0 = GridFunction(g, 5.0 * np.sin(np.pi * g.node_coords()[0]))
    rep = optimize_control(obj, f0, mu, e, _cfg(tol_reduced=1e-6, max_outer=60))
    assert rep.outer_iters >= 2
    assert np.all(np.diff(np.asarray(rep.objective_trace)) < 0.0)
    assert fallbacks[0]  # the first model direction met negative curvature
    assert rep.converged


def _outlier_case(seed, amplitude, m):
    """Seeded tracking problem that sent Barzilai-Borwein into 1000+ outer steps."""
    rng = np.random.default_rng(seed)
    b, c, d = 0.01 * rng.uniform(-1.0, 1.0, 3)
    g = Grid(2, m)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    mu = WeightField.from_nodal(g, GridFunction(g, 0.5 + 0.5 * x * y))
    e = validate_exponents(4.0 / 3.0, 2, eps_reg=1e-4)
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    target = amplitude * (1.0 + b) * (
        sx * sy + c * np.sin(2 * np.pi * x) * sy + d * sx * np.sin(2 * np.pi * y)
    )
    inner = SolverConfig(tol_grad=1e-8)
    u_d = SolutionOperator(mu, e, inner)(GridFunction(g, target))
    cfg = ControlConfig(inner=inner, tol_reduced=1e-5, cg_tol=1e-10)
    return optimize_control(tracking_objective(u_d, 1e-6), GridFunction.zeros(g), mu, e, cfg)


def test_outer_iterations_stay_near_the_median_on_nearby_inputs():
    typical = [_outlier_case(seed, 22.0, 7) for seed in range(12)]
    assert all(r.converged for r in typical)
    median = float(np.median([r.outer_iters for r in typical]))
    cases = [_outlier_case(seed, 22.0, 7) for seed in (12, 58)]
    cases += [_outlier_case(seed, 15.0, 5) for seed in range(3)]
    for rep in typical + cases:
        assert rep.converged
        assert rep.outer_iters <= 3.0 * median


def _dense_hessian(u, mu, e):
    """Columns of hessian_apply at u on every nodal indicator."""
    g = u.grid
    columns = []
    for k in range(g.n_nodes):
        indicator = np.zeros(g.n_nodes)
        indicator[k] = 1.0
        w = GridFunction(g, indicator.reshape(g.shape))
        columns.append(hessian_apply(u, w, mu, e).values.ravel())
    return np.column_stack(columns)


def _dense_stationarity(f, u, u_d, alpha, mu, e):
    """max|alpha f + lambda| with lambda from a dense solve of H(u) lambda = u - u_d.

    Also returns the bound on its distance from the CG-based figure for a
    relative CG residual of 1: |gap|_2 / s_min(H), and the round-off floor.
    """
    hess = _dense_hessian(u, mu, e)
    gap = (u.values - u_d.values).ravel()
    lam = np.linalg.solve(hess, gap)
    stat = float(np.max(np.abs(alpha * f.values.ravel() + lam)))
    s_min = float(np.linalg.svd(hess, compute_uv=False).min())
    roundoff = 64.0 * np.linalg.cond(hess) * np.finfo(float).eps * float(np.linalg.norm(lam))
    return stat, float(np.linalg.norm(gap)) / s_min, roundoff


@pytest.mark.parametrize("n, m", [(1, 9), (2, 5)])
def test_control_result_meets_the_optimality_system_by_a_dense_solve(monkeypatch, n, m):
    g = Grid(n, m)
    mu = WeightField.constant(g, 0.5)
    e = Exponents(4.0, 4.0 / 3.0, n, 1e-4)
    coords = np.meshgrid(*g.node_coords(), indexing="ij")
    shape = 20.0 * np.sin(np.pi * coords[0]) * (coords[1] if n == 2 else 1.0)
    inner = _tight_inner()
    u_d = SolutionOperator(mu, e, inner)(GridFunction(g, shape))
    alpha = 1e-4
    cfg = ControlConfig(inner=inner, tol_reduced=1e-6, cg_tol=1e-11)
    rep = optimize_control(tracking_objective(u_d, alpha), GridFunction.zeros(g), mu, e, cfg)
    assert rep.converged and rep.outer_iters >= 1
    f_off = 1.01 * rep.f_star
    u_off = SolutionOperator(mu, e, inner)(f_off)

    def broken(*args, **kwargs):
        raise AssertionError("the oracle must not use the program's CG")

    for module, name in ((control, "_hessian_solve"), (control, "_cg"), (solver, "_cg")):
        monkeypatch.setattr(module, name, broken)
    stat, scale, roundoff = _dense_stationarity(rep.f_star, rep.u_star, u_d, alpha, mu, e)
    assert abs(stat - rep.stationarity) <= 4.0 * cfg.cg_tol * scale + roundoff
    assert stat <= cfg.tol_reduced
    off, _, _ = _dense_stationarity(f_off, u_off, u_d, alpha, mu, e)
    assert off > 10.0 * cfg.tol_reduced


@pytest.mark.parametrize("alpha, inner_iters, max_outer", [(1e-2, 50_000, 10_000), (1e-4, 4, 5)])
def test_control_report_counts_every_newton_and_adjoint_product(
    monkeypatch, alpha, inner_iters, max_outer
):
    # With 4 Newton steps per solve some trial solves fail; their products count too.
    g = Grid(2, 5)
    mu = WeightField.constant(g, 0.5)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    u_d = SolutionOperator(mu, e, _tight_inner())(GridFunction(g, 20.0 * np.sin(np.pi * x) * y))
    obj = tracking_objective(u_d, alpha)
    inner = SolverConfig(tol_grad=1e-9, max_iters=inner_iters)
    cfg = ControlConfig(inner=inner, tol_reduced=1e-6, max_outer=max_outer)
    inner_reports = []
    real_solve = control.solve_inner
    warm_starts = []

    def spy_solve(f, mu, e, cfg, init=None):
        warm_starts.append(init is not None)
        inner_reports.append(real_solve(f, mu, e, cfg, init))
        return inner_reports[-1]

    monkeypatch.setattr(control, "solve_inner", spy_solve)
    spy = mock.Mock(wraps=control._hessian_product)
    monkeypatch.setattr(control, "_hessian_product", spy)
    solves = mock.Mock(wraps=control._hessian_solve)
    monkeypatch.setattr(control, "_hessian_solve", solves)
    real_direction = control._gauss_newton_direction
    model_products = []

    def direction(*args):
        psi = args[-1]
        before = psi.adjoint_matvecs
        out = real_direction(*args)
        model_products.append(psi.adjoint_matvecs - before)
        return out

    monkeypatch.setattr(control, "_gauss_newton_direction", direction)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, e, cfg)
    assert rep.outer_iters >= 1
    assert rep.converged == (inner_iters > 4)
    assert all(r.converged for r in inner_reports) == (inner_iters > 4)
    assert rep.matvecs == sum(r.matvecs for r in inner_reports) > 0
    assert rep.adjoint_matvecs == spy.call_count > 0
    # Only the first solve, at f0, is cold; every other one is a trial.
    assert warm_starts[0] is False
    assert rep.trial_solves == sum(warm_starts) == len(inner_reports) - 1 >= rep.outer_iters
    # One adjoint solve per accepted iterate and two per model product.
    assert solves.call_count == 1 + rep.outer_iters + 2 * rep.model_cg_iters
    assert rep.model_cg_iters >= rep.outer_iters
    # The model's S solves are a part of the adjoint products.
    assert rep.model_matvecs == sum(model_products)
    assert rep.model_cg_iters <= rep.model_matvecs < rep.adjoint_matvecs


def _tracking_case():
    """2-D m = 5 strict tracking problem whose outer loop takes a few steps."""
    g = Grid(2, 5)
    mu = WeightField.constant(g, 0.5)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    u_d = SolutionOperator(mu, e, _tight_inner())(GridFunction(g, 20.0 * np.sin(np.pi * x) * y))
    cfg = ControlConfig(inner=SolverConfig(tol_grad=1e-9), tol_reduced=1e-6)
    return tracking_objective(u_d, 1e-4), g, mu, e, cfg


def test_model_s_solves_run_at_a_fraction_of_the_model_tolerance(monkeypatch):
    obj, g, mu, e, cfg = _tracking_case()
    real = control._cg
    calls = []  # [tol, rhs norm, tolerances of the calls nested in this one]
    depth = []

    def spy(apply_A, b, tol, *args, **kwargs):
        record = [tol, math.sqrt(float(np.dot(b.flatten(), b.flatten()))), []]
        (calls[-1][2] if depth else calls).append(record)
        depth.append(1)
        try:
            return real(apply_A, b, tol, *args, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(control, "_cg", spy)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, e, cfg)
    assert rep.converged and rep.outer_iters >= 1
    models = [c for c in calls if c[2]]
    adjoints = [c for c in calls if not c[2]]
    assert len(models) == rep.outer_iters
    # One gradient adjoint per accepted iterate, at cg_tol.
    assert len(adjoints) == 1 + rep.outer_iters
    assert all(tol == cfg.cg_tol for tol, _, _ in adjoints)
    for tol, g_norm, nested in models:
        assert tol == min(0.5, math.sqrt(g_norm))
        # Two S solves per model product.
        assert len(nested) >= 2 and len(nested) % 2 == 0
        assert all(s_tol == max(cfg.cg_tol, 0.1 * tol) for s_tol, _, _ in nested)
        assert all(s_tol > cfg.cg_tol for s_tol, _, _ in nested)


def test_solution_operator_builds_one_record_per_state_object(monkeypatch):
    obj, g, mu, e, cfg = _tracking_case()
    psi = SolutionOperator(mu, e, cfg.inner)
    u = psi(GridFunction.zeros(g))
    real = control._linearization
    built = []
    monkeypatch.setattr(control, "_linearization", lambda *args: built.append(real(*args)) or built[-1])
    lin = psi.linearization(u)
    assert psi.linearization(u) is lin and built == [lin]
    copy = GridFunction(g, u.values.copy())
    assert psi.linearization(copy) is not lin and len(built) == 2
    np.testing.assert_array_equal(built[1].diag, lin.diag)


def test_gauss_newton_direction_runs_every_s_solve_over_the_record_of_its_state(monkeypatch):
    obj, g, mu, e, cfg = _tracking_case()
    psi = SolutionOperator(mu, e, cfg.inner)
    f = GridFunction.zeros(g)
    u = psi(f)
    grad = reduced_gradient(f, obj, psi, cfg)
    lin = psi.linearization(u)
    real = control._linearization
    built = []
    monkeypatch.setattr(control, "_linearization", lambda *args: built.append(real(*args)) or built[-1])
    solves = mock.Mock(wraps=control._hessian_solve)
    monkeypatch.setattr(control, "_hessian_solve", solves)
    _, products = control._gauss_newton_direction(f, u, grad, obj, cfg, psi)
    assert not built
    assert solves.call_count == 2 * products > 0
    assert all(call.args[0] is lin for call in solves.call_args_list)


def test_optimize_control_builds_one_record_and_one_gradient_per_accepted_state(monkeypatch):
    # The public gradient at each accepted state builds that state's record,
    # and the next direction, taken at that very state, reuses it: psi
    # replays u_trial.
    obj, g, mu, e, cfg = _tracking_case()
    real_linearization = control._linearization
    records = []
    monkeypatch.setattr(
        control,
        "_linearization",
        lambda *args: records.append(real_linearization(*args)) or records[-1],
    )
    real_gradient = control.reduced_gradient
    built_per_gradient = []

    def gradient(*args, **kwargs):
        before = len(records)
        out = real_gradient(*args, **kwargs)
        built_per_gradient.append(len(records) - before)
        return out

    monkeypatch.setattr(control, "reduced_gradient", gradient)
    real_solve = control._hessian_solve
    stale = []

    def solve(lin, *args):
        stale.append(lin is not records[-1])
        return real_solve(lin, *args)

    monkeypatch.setattr(control, "_hessian_solve", solve)
    real_direction = control._gauss_newton_direction
    reused = []

    def direction(f, u, grad, obj, cfg, psi):
        before = len(records)
        reused.append(psi.linearization(u) is records[-1] and len(records) == before)
        return real_direction(f, u, grad, obj, cfg, psi)

    monkeypatch.setattr(control, "_gauss_newton_direction", direction)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, e, cfg)
    assert rep.converged and rep.outer_iters >= 1
    # One public gradient, and one record, at f0 and at every accepted state.
    assert built_per_gradient == [1] * (1 + rep.outer_iters)
    assert len(records) == 1 + rep.outer_iters
    assert reused == [True] * rep.outer_iters
    # Every adjoint and model S solve runs over the newest state's record.
    assert stale and not any(stale)


class _ProductBudgetExceeded(Exception):
    """A run made more Hessian products than its test allows."""


def _limit_hessian_products(monkeypatch, budget):
    """Count the Newton and adjoint products; raise past budget of them."""
    count = [0]
    for module in (solver, control):

        def counted(lin, w, real=module._hessian_product):
            count[0] += 1
            if count[0] > budget:
                raise _ProductBudgetExceeded(f"more than {budget} hessian products")
            return real(lin, w)

        monkeypatch.setattr(module, "_hessian_product", counted)
    return count


@pytest.mark.xfail(
    strict=True,
    raises=_ProductBudgetExceeded,
    reason="where the weight vanishes, Newton creeps by gradient steps (ROADMAP open item 1)",
)
def test_ramp_control_at_small_eps_finishes_within_a_product_budget(monkeypatch):
    # The control command with grid.n = 2, grid.m = 3, strict q = 4/3,
    # exponents.epsilon = 1e-6, weight.kind = ramp, weight.mu1 = 4,
    # forcing.preset = bump and solver.tol = 1e-6 was still running when
    # killed after 20 s.
    g = Grid(2, 3)
    e = validate_exponents(4.0 / 3.0, 2, eps_reg=1e-6)
    mu = WeightField.ramp(g, 4.0)
    inner = SolverConfig(tol_grad=1e-6)
    bump = GridFunction.from_callable(g, lambda x, y: x * (1.0 - x) * y * (1.0 - y))
    products = _limit_hessian_products(monkeypatch, 1000)
    target = solve_inner(bump, mu, e, inner)
    assert target.converged and 0 < products[0] <= 1000
    obj = tracking_objective(target.u_star, 1e-6)
    rep = optimize_control(obj, GridFunction.zeros(g), mu, e, ControlConfig(inner=inner))
    assert rep.converged


def test_control_config_validation():
    inner = SolverConfig()
    with pytest.raises(ValueError, match="cg_tol must be below"):
        ControlConfig(inner=inner, tol_reduced=1e-10, cg_tol=1e-8)
    with pytest.raises(ValueError, match="tol_reduced"):
        ControlConfig(inner=inner, tol_reduced=0.0)
    with pytest.raises(ValueError, match="max_outer"):
        ControlConfig(inner=inner, max_outer=0)
