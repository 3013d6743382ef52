"""Descent solver and weak-form certificate tests."""

import importlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudophase import (
    Exponents,
    Grid,
    GridFunction,
    SingularLinearizationError,
    SolverConfig,
    WeightField,
    hessian_apply,
    sobolev_norm,
    solve_inner,
    weak_residual,
)
from pseudophase.solver import _cg, _nodal_weak_residuals

# The package exports the function `energy`, which shadows its module.
energy_module = importlib.import_module("pseudophase.energy")
grid_module = importlib.import_module("pseudophase.grid")
solver_module = importlib.import_module("pseudophase.solver")

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
    # Near convergence the certified decrease can drop below the rounding of
    # J, so consecutive trace values may repeat (none do here: Newton reaches
    # the tolerance in about nine steps); none may rise.
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
    # A quadratic problem is one Newton system, so it would converge within
    # the cap; the two-phase one needs about ten steps.
    g = Grid(2, 7)
    mu = WeightField.ramp(g, 2.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4, strict_sobolev=True)
    f = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    rep = solve_inner(f, mu, e, SolverConfig(tol_grad=1e-13, max_iters=3))
    assert rep.status == "max_iters"
    assert not rep.converged
    assert rep.iterations == 3
    # The certificate is reported for every run and fails to pass here.
    assert rep.weak_check > 1e-13 * g.h


@pytest.mark.parametrize("n, m", [(1, 63), (2, 15)])
@pytest.mark.parametrize("p, weight", [(3.0, "ramp"), (4.0, "zero")])
def test_unregularized_problems_with_a_singular_hessian_converge(n, m, p, weight):
    # With eps_reg = 0 and q = 2 the Hessian coefficient at u = 0 is mu, so H
    # is singular wherever mu = 0; Newton-CG must fall back to descent there
    # instead of dividing by null curvature.
    g = Grid(n, m)
    mu = WeightField.ramp(g, 2.0) if weight == "ramp" else WeightField.constant(g, 0.0)
    e = Exponents(p, 2.0, n, 0.0)
    f = GridFunction.from_callable(g, lambda *x: np.prod(np.sin(np.pi * np.array(x)), axis=0))
    zero = GridFunction.zeros(g)
    with pytest.raises(SingularLinearizationError):
        hessian_apply(zero, f, mu, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve_inner(f, mu, e, SolverConfig(tol_grad=1e-6))
    assert rep.converged
    assert rep.iterations > 0 and rep.matvecs > 0
    assert rep.weak_check <= 1e-6 * g.h**n


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


def test_one_newton_step_builds_the_linearization_once(monkeypatch):
    g = Grid(2, 7)
    mu = WeightField.ramp(g, 2.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    f = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    real = energy_module._hessian_coeff
    built = []
    monkeypatch.setattr(
        energy_module, "_hessian_coeff", lambda *args: built.append(1) or real(*args)
    )
    rep = solve_inner(f, mu, e, SolverConfig(max_iters=1))
    assert rep.iterations == 1
    assert rep.matvecs > g.n
    assert len(built) == g.n


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_grad=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_init_must_live_on_the_same_grid():
    g = Grid(1, 7)
    mu = WeightField.constant(g, 1.0)
    bad = SolverConfig(init=GridFunction.zeros(Grid(1, 9)))
    with pytest.raises(ValueError, match="grid"):
        solve_inner(GridFunction.zeros(g), mu, QUAD_1D, bad)


def test_cg_truncates_at_null_curvature_with_its_current_iterate():
    # The second direction lies in the near-null eigenspace: CG keeps the
    # first iterate, the minimizer of the model along b, instead of dividing
    # by the tiny curvature.
    A = np.diag([1.0, 1e-20])
    b = np.array([1.0, 1.0])
    x, reason, _ = _cg(lambda v: A @ v, b, tol=1e-12, max_iters=10, curvature_floor=1e-12)
    assert reason == "curvature"
    step = (b @ b) / (b @ A @ b)
    assert np.array_equal(x, step * b)
    x, reason, _ = _cg(lambda v: A @ v, b, tol=1e-12, max_iters=10)
    assert reason == "converged"
    assert np.max(np.abs(x)) > 1e19


def _flat_dot(a, b):
    """The reduction _cg makes: np.dot of flat copies."""
    return float(np.dot(a.flatten(), b.flatten()))


def _frozen_cg(apply_A, b, tol, max_iters, curvature_floor=0.0):
    """_cg as it was before the Jacobi preconditioner, kept as the oracle.

    Its reductions moved from np.sum to the flat dot _cg makes.
    """
    x = np.zeros_like(b)
    b_norm = float(np.sqrt(_flat_dot(b, b)))
    if b_norm == 0.0:
        return x, "converged"
    r = b.copy()
    p = r.copy()
    rs = _flat_dot(r, r)
    for k in range(max_iters):
        Ap = apply_A(p)
        pAp = _flat_dot(p, Ap)
        if pAp <= curvature_floor * _flat_dot(p, p):
            return (b if k == 0 else x), "curvature"
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = _flat_dot(r, r)
        if np.sqrt(rs_new) <= tol * b_norm:
            return x, "converged"
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, "max_iters"


def _cg_case(kind, size, seed):
    """(A, b): SPD with a wide spectrum, indefinite, or with a near-null eigenvalue."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    spectrum = 10.0 ** rng.uniform(-3.0, 3.0, size)
    if kind == "indefinite":
        spectrum *= rng.choice([-1.0, 1.0], size)
    elif kind == "near-null":
        spectrum[rng.integers(size)] = 1e-20
    return (q * spectrum) @ q.T, rng.standard_normal(size)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["spd", "indefinite", "near-null"]),
    size=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-2, 1e-6, 1e-12]),
    max_iters=st.integers(1, 40),
    floor=st.sampled_from([0.0, 1e-12]),
)
def test_cg_without_a_preconditioner_repeats_the_frozen_iterates(
    kind, size, seed, tol, max_iters, floor
):
    A, b = _cg_case(kind, size, seed)
    expected, why = _frozen_cg(lambda v: A @ v, b, tol, max_iters, floor)
    for inv_diag in (None, np.ones(size)):
        calls = []
        x, reason, products = _cg(
            lambda v: calls.append(1) or A @ v, b, tol, max_iters, floor, inv_diag
        )
        assert reason == why
        assert np.array_equal(x, expected)
        assert products == len(calls)


def test_cg_with_the_frozen_curvature_cases_and_a_unit_diagonal():
    A = np.diag([1.0, 1e-20])
    b = np.array([1.0, 1.0])
    for floor in (0.0, 1e-12):
        expected = _frozen_cg(lambda v: A @ v, b, 1e-12, 10, floor)
        got = _cg(lambda v: A @ v, b, 1e-12, 10, floor, np.ones(2))
        assert got[1] == expected[1] and np.array_equal(got[0], expected[0])
    x, reason, products = _cg(lambda v: -v, np.ones(4), 1e-10, 10, inv_diag=np.ones(4))
    assert reason == "curvature" and np.array_equal(x, np.ones(4)) and products == 1


def _frozen_jacobi_cg(apply_A, b, tol, max_iters, curvature_floor, inv_diag):
    """Jacobi-preconditioned _cg as it was with fresh arrays per update, kept as the oracle.

    Its reductions moved from np.sum to the flat dot _cg makes.
    """
    x = np.zeros_like(b)
    b_norm = float(np.sqrt(_flat_dot(b, b)))
    if b_norm == 0.0:
        return x, "converged"
    r = b.copy()
    z = r * inv_diag
    p = z.copy()
    rz = _flat_dot(r, z)
    for k in range(max_iters):
        Ap = apply_A(p)
        pAp = _flat_dot(p, Ap)
        if pAp <= curvature_floor * _flat_dot(p, p):
            return (b if k == 0 else x), "curvature"
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rr = _flat_dot(r, r)
        if np.sqrt(rr) <= tol * b_norm:
            return x, "converged"
        z = r * inv_diag
        rz_new = _flat_dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, "max_iters"


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["spd", "indefinite", "near-null"]),
    size=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([1e-2, 1e-6, 1e-12]),
    max_iters=st.integers(1, 40),
    floor=st.sampled_from([0.0, 1e-12]),
)
def test_jacobi_cg_repeats_the_frozen_iterates(kind, size, seed, tol, max_iters, floor):
    # In-place updates and the p.p skipped without a floor change no rounding.
    A, b = _cg_case(kind, size, seed)
    inv_diag = 10.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0, size)
    expected, why = _frozen_jacobi_cg(lambda v: A @ v, b, tol, max_iters, floor, inv_diag)
    calls = []
    x, reason, products = _cg(
        lambda v: calls.append(1) or A @ v, b, tol, max_iters, floor, inv_diag
    )
    assert reason == why
    assert np.array_equal(x, expected)
    assert products == len(calls)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1,), (8,), (64,), (7, 7), (8, 7), (63, 64)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cheaper_reductions_equal_the_np_sum_expressions(shape, seed):
    # The energy decrease replaced these np.sum forms.
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    assert float(np.add.reduce(a, axis=None)) == float(np.sum(a))
    assert float(np.add.reduce(b * a, axis=None)) == float(np.sum(b * a))


def _placed(values, offset):
    """A copy of values that starts offset elements into a larger buffer."""
    buffer = np.full(values.size + 8, np.nan)
    buffer[offset : offset + values.size] = values
    return buffer[offset : offset + values.size]


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 65_025), seed=st.integers(0, 2**32 - 1))
@example(size=1, seed=0)
@example(size=3_969, seed=1)
@example(size=16_129, seed=2)
@example(size=65_025, seed=3)
def test_dot_is_the_flat_blas_dot_wherever_its_operands_sit(size, seed):
    # The Krylov loops, the gradient norms and the slopes all reduce through
    # _dot; its bits must not depend on the alignment of either operand.
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(size)
    b = rng.standard_normal(size)
    expected = float(np.dot(a.flatten(), b.flatten()))
    assert solver_module._dot(a, b) == expected
    placed_b = [_placed(b, offset) for offset in range(8)]
    for offset_a in range(8):
        placed_a = _placed(a, offset_a)
        for offset_b, view_b in enumerate(placed_b):
            assert solver_module._dot(placed_a, view_b) == expected, (offset_a, offset_b)
    if size == 3_969:
        assert solver_module._dot(a.reshape(63, 63), b.reshape(63, 63)) == expected


def test_jacobi_cg_stops_on_the_unpreconditioned_residual():
    # A badly scaled SPD matrix D K D: Jacobi undoes D, plain CG cannot.
    rng = np.random.default_rng(3)
    size = 40
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    scale = 10.0 ** rng.uniform(-1.5, 1.5, size)
    A = scale[:, None] * ((q * rng.uniform(1.0, 4.0, size)) @ q.T) * scale[None, :]
    b = rng.standard_normal(size)
    counts = {}
    for name, inv_diag in (("plain", None), ("jacobi", 1.0 / np.diag(A))):
        x, reason, counts[name] = _cg(lambda v: A @ v, b, 1e-8, 10 * size, 0.0, inv_diag)
        assert reason == "converged"
        assert np.linalg.norm(b - A @ x) <= 2e-8 * np.linalg.norm(b)
    assert counts["jacobi"] < counts["plain"]


def _ramp_sine_problem(m):
    """2-D strict p = 4 with a weight vanishing on half the box and sine forcing."""
    g = Grid(2, m)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4, strict_sobolev=True)
    mu = WeightField.ramp(g, 2.0)
    f = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    return f, mu, e


@pytest.mark.parametrize("m, budget", [(31, 400), (63, 1000)])
def test_jacobi_newton_stays_within_its_matvec_budget(m, budget):
    # Unpreconditioned, these solves took 6 678 and 25 081 products.
    rep = solve_inner(*_ramp_sine_problem(m), SolverConfig(tol_grad=1e-6))
    assert rep.converged
    assert rep.matvecs <= budget


def test_jacobi_and_plain_newton_agree_to_the_tolerance(monkeypatch):
    f, mu, e = _ramp_sine_problem(31)
    cfg = SolverConfig(tol_grad=1e-8)
    jacobi = solve_inner(f, mu, e, cfg)
    real = solver_module._linearization
    monkeypatch.setattr(
        solver_module, "_linearization", lambda *args: replace(real(*args), inv_diag=None)
    )
    plain = solve_inner(f, mu, e, cfg)
    assert jacobi.converged and plain.converged
    assert plain.matvecs > 10 * jacobi.matvecs
    assert np.max(np.abs(jacobi.u_star.values - plain.u_star.values)) <= 1e-10


def test_the_report_counts_the_newton_steps_whose_cg_met_null_curvature(monkeypatch):
    # On this problem the first CG ends on the curvature test and hands
    # back the gradient; the later ones converge.
    real = solver_module._cg
    reasons = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        reasons.append(out[1])
        return out

    monkeypatch.setattr(solver_module, "_cg", spy)
    rep = solve_inner(*_ramp_sine_problem(31), SolverConfig(tol_grad=1e-6))
    assert rep.converged
    assert len(reasons) == rep.iterations
    assert reasons[0] == "curvature"
    assert rep.cg_curvature_stops == reasons.count("curvature") >= 1


def test_a_solve_repeats_its_bits_wherever_its_inputs_sit_in_memory():
    f, mu, e = _ramp_sine_problem(31)
    runs = []
    for offset in range(4):
        forcing = _placed(f.values.ravel(), offset).reshape(f.grid.shape)
        weights = tuple(
            _placed(w.ravel(), 7 - offset - axis).reshape(w.shape)
            for axis, w in enumerate(mu.per_axis)
        )
        placed_mu = WeightField(mu.grid, weights, mu.mu_max)
        rep = solve_inner(GridFunction(f.grid, forcing), placed_mu, e, SolverConfig(tol_grad=1e-6))
        runs.append(
            (
                rep.u_star.values.tobytes(),
                rep.iterations,
                rep.matvecs,
                rep.cg_curvature_stops,
                rep.final_grad_norm,
                rep.energy_trace,
                rep.weak_check,
                rep.status,
            )
        )
    assert runs[0][-1] == "converged"
    assert all(run == runs[0] for run in runs[1:])


def test_jacobi_cg_holds_five_vectors_beyond_what_its_products_allocate():
    # x, r, z, p and one scratch vector, next to the one product the loop
    # holds: an alpha*p or alpha*Ap temporary, or the last product kept
    # while the next one is made, would add a sixth node-sized vector.
    f, mu, e = _ramp_sine_problem(63)
    h = f.grid.h
    lin = energy_module._linearization(grid_module._diffs(0.01 * f.values, h), mu.per_axis, e, h)
    inv_diag = lin.inv_diag
    vector = 8 * f.values.size

    def traced_peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def product(w):
        return energy_module._hessian_product(lin, w)

    def solve():
        return _cg(product, f.values, 1e-8, 40, 0.0, inv_diag)

    assert solve()[1] == "max_iters"
    product_peak = traced_peak(lambda: product(f.values))
    assert product_peak <= vector + 1024
    assert traced_peak(solve) <= 5 * vector + product_peak + 1024


def _indicator_loop(u, f, mu, e):
    """weak_residual against the indicator of every node, one call per node."""
    out = np.empty(u.grid.shape)
    probe = np.zeros(u.grid.shape)
    for idx in np.ndindex(u.grid.shape):
        probe[idx] = 1.0
        out[idx] = weak_residual(u, f, mu, e, GridFunction(u.grid, probe))
        probe[idx] = 0.0
    return out


def _loop_certificate(u, f, mu, e):
    """The certificate as one weak_residual call per node: the oracle."""
    worst = 0.0
    for r in _indicator_loop(u, f, mu, e).flat:
        worst = max(worst, abs(r))
    return worst


def _certificate(u, f, mu, e):
    """weak_check as solve_inner computes it."""
    return float(np.max(np.abs(_nodal_weak_residuals(u, f, mu, e))))


def _certificate_exponents(n):
    cases = [
        Exponents(3.0, 1.5, n, 1e-4),
        Exponents(3.0, 2.0, n, 0.0),
        Exponents(4.0, 2.5, n, 0.0),
        Exponents(2.5, 2.0, n, 1e-2),
    ]
    if n == 2:
        cases.append(Exponents(4.0, 4.0 / 3.0, 2, 1e-4, strict_sobolev=True))
    return cases


def _certificate_case(n, m, seed, which):
    """A random state with zero edges, on a weight that vanishes in places."""
    g = Grid(n, m)
    rng = np.random.default_rng(seed)
    cases = _certificate_exponents(n)
    e = cases[which % len(cases)]
    kind = rng.integers(3)
    if kind == 0:
        mu = WeightField.from_edge_values(
            g, [np.maximum(0.0, rng.standard_normal(g.edge_shape(a))) for a in range(n)]
        )
    else:
        mu = WeightField.ramp(g, 2.0) if kind == 1 else WeightField.constant(g, 0.0)
    vals = 10.0 ** rng.uniform(-4.0, 1.0) * rng.standard_normal(g.shape)
    vals[rng.random(g.shape) < 0.3] = 0.0
    u = GridFunction(g, vals)
    f = GridFunction(g, 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(g.shape))
    return u, f, mu, e


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2), st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_one_pass_certificate_equals_the_indicator_loop(n, m, seed, which):
    u, f, mu, e = _certificate_case(n, m, seed, which)
    assert np.array_equal(_nodal_weak_residuals(u, f, mu, e), _indicator_loop(u, f, mu, e))
    assert _certificate(u, f, mu, e) == _loop_certificate(u, f, mu, e)


@pytest.mark.parametrize("n, m, seed", [(1, 31, 1), (2, 9, 2), (2, 16, 3)])
def test_nodal_residuals_pair_with_smooth_test_fields(n, m, seed):
    # Summation by parts: the weak residual against any phi is the nodal
    # residual array paired with phi.
    u, f, mu, e = _certificate_case(n, m, seed, seed)
    rng = np.random.default_rng(seed)
    residuals = _nodal_weak_residuals(u, f, mu, e)
    coords = np.meshgrid(*u.grid.node_coords(), indexing="ij")
    for _ in range(4):
        modes = rng.integers(1, 4, size=n)
        smooth = np.prod([np.sin(np.pi * k * x) for k, x in zip(modes, coords)], axis=0)
        phi = GridFunction(u.grid, rng.uniform(0.5, 2.0) * smooth)
        paired = residuals * phi.values
        assert weak_residual(u, f, mu, e, phi) == pytest.approx(
            float(np.sum(paired)), rel=1e-12, abs=1e-13 * float(np.sum(np.abs(paired)))
        )


def test_certificate_needs_no_divergence_kernel_and_no_per_node_call(monkeypatch):
    # With every gradient kernel and weak_residual raising, the certificate
    # still reproduces the loop: it is independent of the gradient Newton
    # drives to zero, and it cannot be a per-node loop over weak_residual.
    u, f, mu, e = _certificate_case(2, 63, 5, 1)
    expected = _loop_certificate(u, f, mu, e)

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate called a gradient kernel")

    for module, name in [
        (grid_module, "_neg_div"),
        (grid_module, "_neg_div_sum"),
        (energy_module, "_neg_div_sum"),
        (energy_module, "_pseudo_operator"),
        (energy_module, "weak_residual"),
        (solver_module, "_pseudo_operator"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    assert _certificate(u, f, mu, e) == expected


@pytest.mark.parametrize("where", ["forcing", "initial iterate"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_inner_rejects_non_finite_forcing_or_start(where, bad):
    g = Grid(2, 5)
    mu = WeightField.constant(g, 1.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4, strict_sobolev=True)
    f = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    vals = np.zeros(g.shape)
    vals[2, 2] = bad
    cfg = SolverConfig(max_iters=5)
    if where == "forcing":
        f = GridFunction(g, f.values + vals)
    else:
        cfg = SolverConfig(max_iters=5, init=GridFunction(g, vals))
    with pytest.raises(ValueError, match=f"{where} values must be finite"):
        solve_inner(f, mu, e, cfg)


def test_a_nan_residual_is_not_certified_as_zero():
    # A finite start large enough that the fluxes on both sides of the middle
    # node overflow to +inf: its residual is inf - inf = nan.  The indicator
    # loop reads max(0.0, nan) as 0.0, a perfect certificate.
    g = Grid(2, 5)
    mu = WeightField.constant(g, 1.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4, strict_sobolev=True)
    f = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    vals = np.zeros(g.shape)
    vals[1:4, 2] = [1e200, 2e200, 3e200]
    start = GridFunction(g, vals)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _loop_certificate(start, f, mu, e) == 0.0
        assert np.isnan(_certificate(start, f, mu, e))
        rep = solve_inner(f, mu, e, SolverConfig(max_iters=5, init=start))
    assert not rep.converged
    assert np.isnan(rep.final_grad_norm)
    assert np.isnan(rep.weak_check)
