"""Tests of the independent checker: slice form against dense form, and each
check on a case with a known answer.

    python3 -m pytest perfbench/test_checker.py
"""

import numpy as np
import pytest

import checker

P, Q, EPS_REG = 4.0, 4.0 / 3.0, 1e-4


def _mesh(m):
    axis = checker.spacing(m) * np.arange(1, m + 1, dtype=float)
    return np.meshgrid(axis, axis, indexing="ij")


def _problem(m=5, q=Q, p=P, floor=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x, y = _mesh(m)
    weight = floor + 2.0 * np.maximum(0.0, x - 0.5) + floor * x * y
    f = np.sin(np.pi * x) * np.sin(np.pi * y) + 0.1 * rng.standard_normal((m, m))
    return checker.Problem(p, q, EPS_REG, checker.edge_weights(weight), f)


def test_edge_weights_follow_the_documented_convention():
    nodal = np.array([[1.0, 2.0], [3.0, 5.0]])
    w0, w1 = checker.edge_weights(nodal)
    # Axis 0: boundary edges copy the nearest node, the interior edge averages.
    np.testing.assert_array_equal(w0, [[1.0, 2.0], [2.0, 3.5], [3.0, 5.0]])
    np.testing.assert_array_equal(w1, [[1.0, 1.5, 2.0], [3.0, 4.0, 5.0]])


def test_slice_form_matches_dense_form():
    prob = _problem()
    u = np.random.default_rng(1).standard_normal((5, 5))
    d = checker.difference_matrices(5, 2)
    for axis, g in enumerate(checker.diffs(u, prob.h)):
        np.testing.assert_allclose(g.ravel(), d[axis] @ u.ravel(), rtol=1e-13, atol=1e-12)
        flux = np.random.default_rng(axis).standard_normal(g.shape)
        np.testing.assert_allclose(
            checker.neg_div(flux, axis, prob.h).ravel(), d[axis].T @ flux.ravel(), rtol=1e-12, atol=1e-10
        )
    np.testing.assert_allclose(prob.operator(u), prob.dense_operator(u), rtol=1e-12, atol=1e-9)


def test_residual_is_the_energy_gradient_and_hessian_its_derivative():
    prob = _problem()
    rng = np.random.default_rng(2)
    u = 0.3 * rng.standard_normal((5, 5))
    w = rng.standard_normal((5, 5))
    step = 1e-6
    fd = (prob.energy(u + step * w) - prob.energy(u - step * w)) / (2 * step)
    claimed = prob.cell * float(np.sum(prob.residual(u) * w))
    assert abs(fd - claimed) <= 1e-6 * abs(claimed)
    fd_op = (prob.operator(u + step * w) - prob.operator(u - step * w)) / (2 * step)
    hw = (prob.dense_hessian(u) @ w.ravel()).reshape(u.shape)
    np.testing.assert_allclose(hw, fd_op, rtol=1e-5, atol=1e-5 * np.abs(hw).max())


def test_laplacian_min_eigenvalue_matches_dense():
    for m, n in ((6, 1), (5, 2)):
        lap = sum(d.T @ d for d in checker.difference_matrices(m, n))
        assert checker.laplacian_min_eigenvalue(m, n) == pytest.approx(np.linalg.eigvalsh(lap)[0], rel=1e-12)


def test_newton_recovers_a_manufactured_solution():
    prob = _problem(floor=0.5)
    x, y = _mesh(5)
    u_exact = 0.2 * np.sin(np.pi * x) * np.sin(2 * np.pi * y)
    prob.f = prob.operator(u_exact)
    u = prob.newton()
    np.testing.assert_allclose(u, u_exact, atol=1e-12)
    assert np.max(np.abs(prob.residual(u))) < 1e-9


def _solve_case():
    prob = _problem(floor=0.5, q=2.0, p=3.0)
    x, y = _mesh(5)
    u_exact = 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
    prob.f = prob.operator(u_exact)
    u = u_exact + 1e-9 * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
    res = float(np.max(np.abs(prob.residual(u))))
    report = {
        "status": "converged", "converged": "true", "iterations": "2",
        "weak_check": repr(prob.cell * res), "energy_total": repr(prob.energy(u)),
    }
    trace = [prob.energy(np.zeros_like(u)), prob.energy(0.5 * u), prob.energy(u)]
    return prob, u, u_exact, report, trace


def test_check_solve_accepts_a_known_solution_and_flags_each_fault():
    prob, u, u_exact, report, trace = _solve_case()
    tol = 1e-6
    assert checker.check_solve(prob, tol, report, u, trace, u_exact=u_exact) == []

    far = u + 1e-3 * np.ones_like(u)
    assert any("max|A(u)-f|" in p for p in checker.check_solve(prob, tol, report, far, None))
    assert any("weak_check" in p for p in checker.check_solve(prob, tol, dict(report, weak_check="1.0"), u, None))
    wrong_j = dict(report, energy_total=repr(prob.energy(u) * (1 + 1e-9)))
    assert any("energy_total" in p for p in checker.check_solve(prob, tol, wrong_j, u, None))
    rising = [trace[0], trace[2], trace[1]]
    assert any("rises" in p for p in checker.check_solve(prob, tol, report, u, rising))
    assert checker.check_solve(prob, tol, dict(report, status="stalled", converged="false"), u, None)


def test_manufactured_bound_holds_and_catches_a_wrong_solution():
    prob, u, u_exact, report, _ = _solve_case()
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = u_exact + 1e-3 * rng.standard_normal(u.shape)
        assert checker._check_manufactured(prob, v, u_exact) == []
    assert checker._check_manufactured(prob, u, 2.0 * u_exact) != []


def _control_case():
    prob = _problem(floor=0.5)
    prob.f = 60.0 * prob.f
    alpha = 1e-6
    u_d = prob.newton()
    # A state and control that are not optimal, with the report the program
    # would write for them.
    f_star = 0.9 * prob.f
    state = checker.Problem(prob.p, prob.q, prob.eps, prob.mu, f_star)
    u_star = state.newton()
    lam = np.linalg.solve(prob.dense_hessian(u_star), (u_star - u_d).ravel())
    stat = float(np.max(np.abs(alpha * f_star.ravel() + lam)))
    obj = 0.5 * prob.cell * float(np.sum((u_star - u_d) ** 2)) + 0.5 * alpha * prob.cell * float(np.sum(f_star**2))
    report = {
        "status": "converged", "converged": "true", "outer_iters": "3",
        "stationarity": repr(stat), "objective": repr(obj),
    }
    return prob, alpha, report, f_star, u_star


def test_check_control_accepts_dense_figures_and_flags_each_fault():
    prob, alpha, report, f_star, u_star = _control_case()
    args = (prob, alpha, 1e-8, 1e-10)
    assert checker.check_control(*args, report, f_star, u_star) == []
    assert checker.check_control(*args, dict(report, outer_iters="0"), f_star, u_star)
    bad_stat = dict(report, stationarity=repr(1.01 * float(report["stationarity"])))
    assert any("stationarity" in p for p in checker.check_control(*args, bad_stat, f_star, u_star))
    bad_obj = dict(report, objective=repr(1.001 * float(report["objective"])))
    assert any("objective" in p for p in checker.check_control(*args, bad_obj, f_star, u_star))
    assert any("state residual" in p for p in checker.check_control(*args, report, f_star, 1.01 * u_star))


def test_quartic_gap_floor_gives_the_one_over_32_modulus():
    rng = np.random.default_rng(4)
    theta = np.concatenate([rng.uniform(0, 1, 100_000), [1e-6, 0.5, 1 - 1e-6]])
    a = rng.standard_normal(theta.size) * 10.0 ** rng.uniform(-2, 2, theta.size)
    b = rng.standard_normal(theta.size) * 10.0 ** rng.uniform(-2, 2, theta.size)
    gap = theta * a**4 + (1 - theta) * b**4 - (theta * a + (1 - theta) * b) ** 4
    floor = checker.quartic_gap_floor(theta, a, b)
    scale = theta * a**4 + (1 - theta) * b**4 + (theta * a + (1 - theta) * b) ** 4
    assert np.all(gap >= floor - 1e-12 * scale)
    # (1/4) * floor >= (1/32) * min(theta, 1 - theta) * (a - b)^4
    assert np.all(floor / 4.0 >= checker.QUARTIC_MODULUS * np.minimum(theta, 1 - theta) * (a - b) ** 4 * (1 - 1e-12))


def test_check_convexity_records():
    good = {"N": "2000", "failures": "0", "gamma": "4", "worst_defect": "0.0", "c_estimate": "0.09"}
    assert checker.check_convexity(good, 2000, 1e-6) == []
    assert checker.check_convexity(dict(good, N="1999"), 2000, 1e-6)
    assert checker.check_convexity(dict(good, failures="1"), 2000, 1e-6)
    assert checker.check_convexity(dict(good, gamma="3"), 2000, 1e-6)
    assert checker.check_convexity(dict(good, worst_defect="-1e-9"), 2000, 1e-6)
    assert checker.check_convexity(dict(good, c_estimate="0.03"), 2000, 1e-6)


def test_nodal_csv_round_trips_exactly(tmp_path):
    values = np.random.default_rng(5).standard_normal((4, 4))
    path = str(tmp_path / "field.csv")
    checker.write_nodal_csv(path, values)
    np.testing.assert_array_equal(checker.read_nodal_csv(path, 4, 2), values)
