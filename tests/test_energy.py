"""Energy, flux operators, weak residual, and linearization tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudophase import (
    EnergyBreakdown,
    Exponents,
    Grid,
    GridFunction,
    SingularLinearizationError,
    WeightField,
    apply_divergence_operator,
    apply_pseudo_operator,
    energy,
    energy_gradient,
    forward_diff,
    hessian_apply,
    inner_product,
    validate_exponents,
    weak_residual,
)
from pseudophase.energy import (
    _check_nonsingular,
    _hessian_product,
    _jacobi_diagonal,
    _linearization,
    _raw_energy_decrease,
)
from pseudophase.grid import _diff, _diffs, _neg_div_sum

QUAD = Exponents(p=2.0, q=2.0, n=1, eps_reg=0.0)
TWO_PHASE_2D = Exponents(p=4.0, q=4.0 / 3.0, n=2, eps_reg=1e-6)


def _random_problem(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    u = GridFunction(grid, scale * rng.standard_normal(grid.shape))
    f = GridFunction(grid, rng.standard_normal(grid.shape))
    return u, f


def test_breakdown_hand_example():
    g = Grid(1, 1)
    u = GridFunction(g, np.array([1.0]))
    f = GridFunction.zeros(g)
    mu = WeightField.constant(g, 1.0)
    b = energy(u, f, mu, QUAD)
    assert b.p_term == 2.0
    assert b.q_term == 2.0
    assert b.load_term == 0.0
    assert b.total == 4.0


def test_breakdown_with_load():
    g = Grid(1, 1)
    u = GridFunction(g, np.array([1.0]))
    f = GridFunction(g, np.array([3.0]))
    b = energy(u, f, WeightField.constant(g, 1.0), QUAD)
    assert b.load_term == 1.5
    assert b.total == 2.5


def test_breakdown_total_is_consistent():
    b = EnergyBreakdown(p_term=1.25, q_term=0.5, load_term=0.75)
    assert b.total == 1.25 + 0.5 - 0.75


def test_energy_zero_field_vanishes():
    g = Grid(2, 4)
    _, f = _random_problem(g, 0)
    b = energy(GridFunction.zeros(g), f, WeightField.constant(g, 1.0), Exponents(2.0, 2.0, 2, 0.0))
    assert b.total == 0.0


def test_mu_zero_switches_q_phase_off():
    g = Grid(2, 5)
    u, f = _random_problem(g, 1)
    b = energy(u, f, WeightField.constant(g, 0.0), TWO_PHASE_2D)
    assert b.q_term == 0.0
    assert b.p_term > 0.0


def test_gradient_matches_central_differences():
    g = Grid(2, 3)
    u, f = _random_problem(g, 0)
    mu = WeightField.constant(g, 1.0)
    grad = energy_gradient(u, f, mu, TWO_PHASE_2D)
    t = 1e-6
    cell = g.h**g.n
    fd = np.zeros(g.shape)
    for idx in np.ndindex(g.shape):
        bump = np.zeros(g.shape)
        bump[idx] = 1.0
        up = GridFunction(u.grid, u.values + t * bump)
        dn = GridFunction(u.grid, u.values - t * bump)
        jp = energy(up, f, mu, TWO_PHASE_2D).total
        jm = energy(dn, f, mu, TWO_PHASE_2D).total
        fd[idx] = (jp - jm) / (2.0 * t * cell)
    rel = np.linalg.norm(fd - grad.values) / np.linalg.norm(fd)
    assert rel <= 1e-6


def test_gradient_is_directional_derivative():
    g = Grid(2, 6)
    u, f = _random_problem(g, 4)
    mu = WeightField.ramp(g, 0.7)
    rng = np.random.default_rng(5)
    grad = energy_gradient(u, f, mu, TWO_PHASE_2D)
    for _ in range(5):
        w = GridFunction(g, rng.standard_normal(g.shape))
        t = 1e-6
        jp = energy(u + t * w, f, mu, TWO_PHASE_2D).total
        jm = energy(u - t * w, f, mu, TWO_PHASE_2D).total
        fd = (jp - jm) / (2.0 * t)
        assert inner_product(grad, w) == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradient_zero_at_origin_without_load():
    g = Grid(2, 4)
    z = GridFunction.zeros(g)
    grad = energy_gradient(z, z, WeightField.constant(g, 1.0), TWO_PHASE_2D)
    assert not grad.values.any()


def test_operators_coincide_in_1d():
    g = Grid(1, 9)
    u, _ = _random_problem(g, 2)
    mu = WeightField.ramp(g, 1.5)
    e = Exponents(4.0, 4.0 / 3.0, 1, 1e-6)
    a = apply_pseudo_operator(u, mu, e)
    b = apply_divergence_operator(u, mu, e)
    assert np.array_equal(a.values, b.values)


def test_operators_coincide_for_quadratic_exponents():
    g = Grid(2, 6)
    u, _ = _random_problem(g, 3)
    mu = WeightField.constant(g, 1.0)
    e = Exponents(2.0, 2.0, 2, 0.0)
    a = apply_pseudo_operator(u, mu, e)
    b = apply_divergence_operator(u, mu, e)
    assert np.array_equal(a.values, b.values)


def test_quadratic_operator_is_twice_the_laplacian():
    # p = q = 2 with mu = 1 doubles the five-point stencil.
    g = Grid(2, 6)
    u, _ = _random_problem(g, 6)
    e = Exponents(2.0, 2.0, 2, 0.0)
    a = apply_pseudo_operator(u, e_mu := WeightField.constant(g, 1.0), e)
    padded = np.pad(u.values, 1)
    lap = (
        4.0 * padded[1:-1, 1:-1]
        - padded[:-2, 1:-1]
        - padded[2:, 1:-1]
        - padded[1:-1, :-2]
        - padded[1:-1, 2:]
    ) / g.h**2
    np.testing.assert_allclose(a.values, 2.0 * lap, rtol=1e-12, atol=1e-12)
    del e_mu


def test_operator_forms_disagree_for_two_phase_exponents():
    # Anisotropic profile where the axiswise and full-gradient fluxes split.
    g = Grid(2, 7)
    x, y = np.meshgrid(*g.node_coords(), indexing="ij")
    u = GridFunction(g, x * (1.0 - x) * np.sin(np.pi * y))
    mu = WeightField.constant(g, 1.0)
    a = apply_pseudo_operator(u, mu, TWO_PHASE_2D)
    b = apply_divergence_operator(u, mu, TWO_PHASE_2D)
    rel = np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values)
    assert rel >= 0.01
    assert rel == pytest.approx(0.392390, rel=1e-4)


def test_weak_residual_zero_test_field():
    g = Grid(2, 4)
    u, f = _random_problem(g, 7)
    mu = WeightField.constant(g, 1.0)
    assert weak_residual(u, f, mu, TWO_PHASE_2D, GridFunction.zeros(g)) == 0.0


def test_weak_residual_pairs_with_gradient():
    g = Grid(2, 5)
    u, f = _random_problem(g, 8)
    mu = WeightField.ramp(g, 1.0)
    grad = energy_gradient(u, f, mu, TWO_PHASE_2D)
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = GridFunction(g, rng.standard_normal(g.shape))
        lhs = weak_residual(u, f, mu, TWO_PHASE_2D, phi)
        rhs = inner_product(grad, phi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_weak_residual_indicator_recovers_gradient_component():
    g = Grid(1, 7)
    u, f = _random_problem(g, 10)
    mu = WeightField.constant(g, 0.5)
    e = Exponents(2.5, 1.5, 1, 1e-4)
    grad = energy_gradient(u, f, mu, e)
    phi_vals = np.zeros(g.shape)
    phi_vals[3] = 1.0
    r = weak_residual(u, f, mu, e, GridFunction(g, phi_vals))
    assert r / g.h == pytest.approx(grad.values[3], rel=1e-12)


def _stencil_scale(lin, w):
    """|diag*w| + sum_i off_i*(|w_prev| + |w_next|): the size of the product's terms."""
    a = np.abs(w)
    scale = np.abs(lin.diag) * a
    flat, a = scale.ravel(), a.ravel()
    for off, s, _ in lin.legs:
        flat[:-s] += off * a[s:]
        flat[s:] += off * a[:-s]
    return scale


#: The fused product and the flux composition differ by at most this many
#: ulps of _stencil_scale (2.8 was the worst of 3 000 random cases).
_PRODUCT_ULPS = 8.0


def test_hessian_quadratic_case_is_the_operator_itself():
    # Mathematically equal; the stencil and the flux composition round differently.
    g = Grid(2, 5)
    u, _ = _random_problem(g, 11)
    w, _ = _random_problem(g, 12)
    mu = WeightField.constant(g, 1.0)
    e = Exponents(2.0, 2.0, 2, 0.0)
    hw = hessian_apply(u, w, mu, e)
    aw = apply_pseudo_operator(w, mu, e)
    lin = _linearization(_diffs(u.values, g.h), mu.per_axis, e, g.h)
    bound = _PRODUCT_ULPS * np.finfo(float).eps * _stencil_scale(lin, w.values)
    assert np.all(np.abs(hw.values - aw.values) <= bound)


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 12),
    pq=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (4.0, 4.0 / 3.0), (3.0, 1.5)]),
    eps_reg=st.sampled_from([1e-4, 1e-2, 1.0]),
    weight=st.sampled_from(["constant", "ramp"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_product_equals_the_flux_composition_to_a_few_ulps(n, m, pq, eps_reg, weight, seed):
    g = Grid(n, m)
    e = Exponents(pq[0], pq[1], n, eps_reg)
    mu = WeightField.constant(g, 0.7) if weight == "constant" else WeightField.ramp(g, 2.0)
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-4.0, 1.0) * rng.standard_normal(g.shape)
    vals[rng.random(g.shape) < 0.3] = 0.0
    w = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(g.shape)
    lin = _linearization(_diffs(vals, g.h), mu.per_axis, e, g.h)
    fused = _hessian_product(lin, w)
    # The product as it was: sum_i neg_div_i(a_i * d_i w).
    composed = _neg_div_sum([c * _diff(w, axis, g.h) for axis, c in enumerate(lin.coeffs)], g.h)
    bound = _PRODUCT_ULPS * np.finfo(float).eps * _stencil_scale(lin, w)
    assert np.all(np.abs(fused - composed) <= bound)
    # A fresh array each call, and the scratch buffers carry nothing over.
    again = _hessian_product(lin, w)
    assert again is not fused and np.array_equal(again, fused)


def _slice_product(coeffs, h, w):
    """The stencil product as it was, per axis over lo/hi slices of the nodal array.

    A frozen copy of the record's construction (diag, off) and of its
    product before the couplings were stored flat.
    """
    inv_h2 = 1.0 / (h * h)
    diag = 0.0
    legs = []
    for axis, c in enumerate(coeffs):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        scaled = c * inv_h2
        diag = diag + (scaled[lo] + scaled[hi])
        off = scaled[hi][lo]
        legs.append((off, lo, hi, np.empty(off.shape)))
    out = diag * w
    for off, lo, hi, tmp in legs:
        below, above = out[lo], out[hi]
        np.multiply(off, w[hi], out=tmp)
        np.subtract(below, tmp, out=below)
        np.multiply(off, w[lo], out=tmp)
        np.subtract(above, tmp, out=above)
    return diag, out


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 12),
    pq=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (4.0, 4.0 / 3.0), (3.0, 1.5)]),
    eps_reg=st.sampled_from([1e-4, 1e-8, 0.0]),
    weight=st.sampled_from(["constant", "ramp"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_product_is_the_slice_product_bit_for_bit(n, m, pq, eps_reg, weight, seed):
    # eps_reg = 0 is admitted only for exponents >= 2, and there the state
    # has no vanishing difference, so every coefficient is positive.
    assume(eps_reg > 0.0 or min(pq) >= 2.0)
    g = Grid(n, m)
    e = Exponents(pq[0], pq[1], n, eps_reg)
    mu = WeightField.constant(g, 0.7) if weight == "constant" else WeightField.ramp(g, 2.0)
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-4.0, 1.0) * rng.standard_normal(g.shape)
    if eps_reg > 0.0:
        vals[rng.random(g.shape) < 0.3] = 0.0
    w = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(g.shape)
    w[rng.random(g.shape) < 0.2] = 0.0
    lin = _linearization(_diffs(vals, g.h), mu.per_axis, e, g.h)
    _check_nonsingular(lin)
    diag, expected = _slice_product(lin.coeffs, g.h, w)
    assert _same_bits(lin.diag, diag)
    assert _same_bits(_hessian_product(lin, w), expected)
    # The couplings are two flat diagonals; a pair across a row end is 0.0.
    assert [s for _, s, _ in lin.legs] == ([1] if n == 1 else [m, 1])
    if n == 2:
        assert lin.legs[1][0].size == m * m - 1
        assert not lin.legs[1][0][m - 1 :: m].any()


def test_flat_product_reads_any_memory_layout():
    g = Grid(2, 6)
    u, _ = _random_problem(g, 31)
    mu = WeightField.ramp(g, 2.0)
    w = np.random.default_rng(32).standard_normal(g.shape)
    expected = hessian_apply(u, GridFunction(g, w), mu, TWO_PHASE_2D).values
    for layout in (np.asfortranarray(w), w.T.copy().T, np.repeat(w, 2, axis=1)[:, ::2]):
        got = hessian_apply(u, GridFunction(g, layout), mu, TWO_PHASE_2D).values
        assert _same_bits(got, expected)
        lin = _linearization(_diffs(u.values, g.h), mu.per_axis, TWO_PHASE_2D, g.h)
        assert _same_bits(_hessian_product(lin, layout), expected)


def test_a_padded_pair_changes_only_the_sign_of_a_zero():
    # Node (0, 1) ends a row.  Its pad subtracts 0.0 * w[1, 0] = -0.0 from
    # the -0.0 it holds, which gives +0.0; the slice product never made
    # that subtraction.  Every value still agrees.
    g = Grid(2, 2)
    mu = WeightField.constant(g, 0.5)
    lin = _linearization(_diffs(np.ones(g.shape), g.h), mu.per_axis, TWO_PHASE_2D, g.h)
    w = np.array([[0.0, -0.0], [-1.0, 0.0]])
    got = _hessian_product(lin, w)
    _, expected = _slice_product(lin.coeffs, g.h, w)
    assert np.array_equal(got, expected)
    assert np.signbit(expected[0, 1]) and not np.signbit(got[0, 1])


def test_hessian_is_symmetric():
    g = Grid(2, 6)
    u, _ = _random_problem(g, 13)
    mu = WeightField.ramp(g, 2.0)
    rng = np.random.default_rng(14)
    for _ in range(5):
        w = GridFunction(g, rng.standard_normal(g.shape))
        v = GridFunction(g, rng.standard_normal(g.shape))
        lhs = inner_product(hessian_apply(u, w, mu, TWO_PHASE_2D), v)
        rhs = inner_product(w, hessian_apply(u, v, mu, TWO_PHASE_2D))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_hessian_is_positive_semidefinite():
    g = Grid(2, 5)
    u, _ = _random_problem(g, 15)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(16)
    for _ in range(10):
        w = GridFunction(g, rng.standard_normal(g.shape))
        assert inner_product(hessian_apply(u, w, mu, TWO_PHASE_2D), w) >= 0.0


def _tilted_smooth_fields(grid, rng, count, min_edge_slope=0.05):
    """Smooth fields whose edge gradients stay away from the flux kink.

    Near-zero edge gradients make the third derivative of the regularized
    flux blow up like eps^(q-4), which would dominate a finite-difference
    probe of the linearization.  A linear tilt plus rejection keeps every
    edge slope above the cutoff.
    """
    coords = np.meshgrid(*grid.node_coords(), indexing="ij")
    kept = []
    attempts = 0
    while len(kept) < count and attempts < 200:
        attempts += 1
        vals = 0.8 * coords[0] + 0.5 * coords[-1]
        for k in (1, 2, 3):
            amp = rng.standard_normal() / (8.0 * k)
            term = np.sin(k * np.pi * coords[0])
            if grid.n == 2:
                term = term * np.sin(k * np.pi * coords[1])
            vals = vals + amp * term
        u = GridFunction(grid, vals)
        slopes = [np.abs(forward_diff(u, a).values).min() for a in range(grid.n)]
        if min(slopes) >= min_edge_slope:
            kept.append(u)
    return kept


def test_hessian_matches_forward_gateaux_quotient():
    g = Grid(2, 7)
    mu = WeightField.constant(g, 1.0)
    rng = np.random.default_rng(5)
    fields = _tilted_smooth_fields(g, rng, 3)
    assert len(fields) == 3
    f0 = GridFunction.zeros(g)
    t = 1e-6
    for u in fields:
        w = GridFunction(g, rng.standard_normal(g.shape))
        hw = hessian_apply(u, w, mu, TWO_PHASE_2D)
        gp = energy_gradient(u + t * w, f0, mu, TWO_PHASE_2D)
        g0 = energy_gradient(u, f0, mu, TWO_PHASE_2D)
        quot = (gp.values - g0.values) / t
        rel = np.linalg.norm(quot - hw.values) / np.linalg.norm(hw.values)
        assert rel <= 1e-5


def test_hessian_singular_without_regularization():
    g = Grid(1, 3)
    e = Exponents(4.0, 2.0, 1, 0.0)
    mu = WeightField.constant(g, 0.0)
    z = GridFunction.zeros(g)
    with pytest.raises(SingularLinearizationError):
        hessian_apply(z, z, mu, e)


def _indicator_diagonal(u, mu, e):
    """hessian_apply(u, e_k)[k] for every node k: the diagonal as the product makes it."""
    grid = u.grid
    diag = np.empty(grid.shape)
    probe = np.zeros(grid.shape)
    for idx in np.ndindex(grid.shape):
        probe[idx] = 1.0
        diag[idx] = hessian_apply(u, GridFunction(grid, probe), mu, e).values[idx]
        probe[idx] = 0.0
    return diag


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 12),
    pq=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (4.0, 4.0 / 3.0), (3.0, 1.5)]),
    eps_reg=st.sampled_from([1e-4, 1e-2, 1.0]),
    weight=st.sampled_from(["constant", "ramp"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobi_diagonal_equals_hessian_apply_on_the_indicators(n, m, pq, eps_reg, weight, seed):
    g = Grid(n, m)
    e = Exponents(pq[0], pq[1], n, eps_reg)
    mu = WeightField.constant(g, 0.7) if weight == "constant" else WeightField.ramp(g, 2.0)
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-4.0, 1.0) * rng.standard_normal(g.shape)
    vals[rng.random(g.shape) < 0.3] = 0.0
    u = GridFunction(g, vals)
    diag = _jacobi_diagonal(_linearization(_diffs(u.values, g.h), mu.per_axis, e, g.h))
    assert np.array_equal(diag, _indicator_diagonal(u, mu, e))


@pytest.mark.parametrize("weight", ["zero", "ramp"])
def test_jacobi_diagonal_is_none_where_a_node_loses_every_coefficient(weight):
    # At u = 0 with eps_reg = 0 and q = 2 the coefficients are mu, so every
    # node where mu = 0 on all adjacent edges has a zero diagonal entry.
    g = Grid(2, 6)
    e = Exponents(3.0, 2.0, 2, 0.0)
    mu = WeightField.constant(g, 0.0) if weight == "zero" else WeightField.ramp(g, 2.0)
    with np.errstate(all="raise"):
        lin = _linearization(_diffs(np.zeros(g.shape), g.h), mu.per_axis, e, g.h)
        assert _jacobi_diagonal(lin) is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=4.0, q=4.0 / 3.0, n=3, eps_reg=1e-6),
        dict(p=4.0, q=1.0, n=2, eps_reg=1e-6),
        dict(p=1.0, q=0.5, n=1, eps_reg=1e-6),
        dict(p=2.0, q=3.0, n=2, eps_reg=1e-6),
        dict(p=4.0, q=4.0 / 3.0, n=2, eps_reg=-1e-8),
        dict(p=4.0, q=4.0 / 3.0, n=2, eps_reg=0.0),
        dict(p=4.0, q=4.0 / 3.0, n=2, eps_reg=1e-6, strict_sobolev=True, q_override=1.5),
        dict(p=float("inf"), q=4.0 / 3.0, n=2, eps_reg=1e-6),
        dict(p=4.0, q=4.0 / 3.0, n=2, eps_reg=float("nan")),
        dict(p=4.0, q=4.0 / 3.0, n=2, eps_reg=float("inf")),
    ],
)
def test_exponents_validation_rejections(kwargs):
    q = kwargs.pop("q_override", None)
    if q is not None:
        kwargs["q"] = q
    with pytest.raises(ValueError):
        Exponents(**kwargs)


def test_exponents_strict_coupling_holds():
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-6, strict_sobolev=True)
    assert e.p == 4.0
    with pytest.raises(ValueError):
        Exponents(3.9, 4.0 / 3.0, 2, 1e-6, strict_sobolev=True)


def test_validate_exponents_strict_derives_p():
    e = validate_exponents(4.0 / 3.0, 2)
    assert e.p == 4.0
    assert e.strict_sobolev


def test_validate_exponents_strict_needs_room_below_n():
    with pytest.raises(ValueError, match="q < n"):
        validate_exponents(2.0, 2, mode="strict")
    with pytest.raises(ValueError):
        validate_exponents(1.5, 1, mode="strict")


def test_validate_exponents_override_consistency():
    e = validate_exponents(4.0 / 3.0, 2, mode="strict", p_override=4.0)
    assert e.p == 4.0
    with pytest.raises(ValueError, match="contradicts"):
        validate_exponents(4.0 / 3.0, 2, mode="strict", p_override=3.9)


def test_validate_exponents_relaxed():
    e = validate_exponents(1.2, 1, mode="relaxed", p_override=3.0)
    assert e.p == 3.0 and not e.strict_sobolev
    with pytest.raises(ValueError, match="requires q < p"):
        validate_exponents(2.0, 1, mode="relaxed", p_override=2.0)
    with pytest.raises(ValueError, match="explicit p"):
        validate_exponents(1.2, 1, mode="relaxed")
    with pytest.raises(ValueError, match="mode"):
        validate_exponents(1.2, 1, mode="loose", p_override=3.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (
            (_NAN, 2),
            {},
            "strict coupling requires q < n (got q=nan, n=2); "
            "1/p = 1/q - 1/n has no admissible p otherwise",
        ),
        ((1.0, 2), {}, "q must exceed 1, got 1.0"),
        ((0.0, 2), {}, "q must exceed 1, got 0.0"),
        ((-1.0, 2), {}, "q must exceed 1, got -1.0"),
        ((4.0 / 3.0, 2, "strict", _NAN), {}, "p must be finite, got nan"),
        ((4.0 / 3.0, 2, "strict", _INF), {}, "p must be finite, got inf"),
        ((4.0 / 3.0, 2, "relaxed", _NAN), {}, "p must be finite, got nan"),
        ((4.0 / 3.0, 2, "relaxed", _INF), {}, "p must be finite, got inf"),
        ((4.0 / 3.0, 3, "strict"), {}, "dimension must be 1 or 2, got 3"),
        ((4.0 / 3.0, 3, "relaxed", 4.0), {}, "dimension must be 1 or 2, got 3"),
        ((4.0 / 3.0, 2, "strict"), {"eps_reg": -1.0}, "eps_reg must be >= 0, got -1.0"),
        (
            (4.0 / 3.0, 2, "strict"),
            {"eps_reg": 1e200},
            "eps_reg**2 must be finite, got eps_reg=1e+200",
        ),
        ((4.0 / 3.0, 2, "relaxed", 4.0), {"eps_reg": -1.0}, "eps_reg must be >= 0, got -1.0"),
        (
            (4.0 / 3.0, 2, "relaxed", 4.0),
            {"eps_reg": 1e200},
            "eps_reg**2 must be finite, got eps_reg=1e+200",
        ),
    ],
)
def test_validate_exponents_messages_are_pinned(args, kwargs, message):
    # The CLI prints these after "exponents: "; each names the bad input.
    with pytest.raises(ValueError) as err:
        validate_exponents(*args, **kwargs)
    assert str(err.value) == message


def test_weight_field_bounds_enforced():
    g = Grid(1, 3)
    with pytest.raises(ValueError):
        WeightField(g, (np.array([-0.1, 0.0, 0.0, 0.0]),), 1.0)
    with pytest.raises(ValueError):
        WeightField(g, (np.array([0.0, 0.0, 0.0, 2.0]),), 1.0)
    with pytest.raises(ValueError):
        WeightField(g, (np.zeros(4),), 0.0)
    with pytest.raises(ValueError):
        WeightField(g, (np.zeros(5),), 1.0)


def test_weight_ramp_profile():
    g = Grid(1, 3)
    mu = WeightField.ramp(g, 2.0)
    np.testing.assert_allclose(mu.per_axis[0], [0.0, 0.0, 0.5, 1.5])


def test_weight_from_nodal_averages_edges():
    g = Grid(1, 3)
    mu = WeightField.from_nodal(g, GridFunction(g, np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(mu.per_axis[0], [1.0, 1.5, 2.5, 3.0])


def _ramp_from_edge_midpoints(grid, mu_max):
    # The meshgrid of every edge midpoint's coordinates, its x column ramped.
    h, arrays = grid.h, []
    for axis in range(grid.n):
        coords = [
            h * (np.arange(grid.m + 1, dtype=float) + 0.5)
            if a == axis
            else h * np.arange(1, grid.m + 1, dtype=float)
            for a in range(grid.n)
        ]
        x = np.meshgrid(*coords, indexing="ij")[0]
        arrays.append(mu_max * np.maximum(0.0, 2.0 * x - 1.0))
    return arrays


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mu_max", [0.7, 1.0, 2.0, 1e3])
def test_weight_ramp_is_bit_identical_to_the_edge_midpoint_meshgrid(n, mu_max):
    for m in range(1, 128):
        g = Grid(n, m)
        mu = WeightField.ramp(g, mu_max)
        for axis, (got, want) in enumerate(zip(mu.per_axis, _ramp_from_edge_midpoints(g, mu_max))):
            assert got.shape == g.edge_shape(axis) == want.shape
            assert got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (m, axis)


def test_energy_is_convex_along_segments():
    g = Grid(2, 5)
    mu = WeightField.ramp(g, 1.0)
    rng = np.random.default_rng(21)
    f = GridFunction(g, rng.standard_normal(g.shape))
    for _ in range(15):
        x = GridFunction(g, 2.0 * rng.standard_normal(g.shape))
        y = GridFunction(g, 2.0 * rng.standard_normal(g.shape))
        theta = rng.uniform(0.05, 0.95)
        lhs = energy(theta * x + (1.0 - theta) * y, f, mu, TWO_PHASE_2D).total
        rhs = theta * energy(x, f, mu, TWO_PHASE_2D).total
        rhs += (1.0 - theta) * energy(y, f, mu, TWO_PHASE_2D).total
        assert lhs <= rhs + 1e-11 * max(1.0, abs(rhs))


# The np.pad formulations that the slice kernels replaced, kept as bit-exact
# references: every number the package produced before must be reproduced.


def _pad_diffs(vals, h):
    out = []
    for axis in range(vals.ndim):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(vals.ndim)]
        out.append(np.diff(np.pad(vals, pad), axis=axis) / h)
    return out


def _pad_gradient(u, f, mu, e):
    h, eps2 = u.grid.h, e.eps_reg**2
    acc = np.zeros(u.grid.shape)
    for axis, g in enumerate(_pad_diffs(u.values, h)):
        s2 = g * g + eps2
        flux = s2 ** ((e.p - 2.0) / 2.0) * g + mu.per_axis[axis] * s2 ** ((e.q - 2.0) / 2.0) * g
        acc = acc + (-np.diff(flux, axis=axis) / h)
    return acc - f.values


def _pad_from_nodal(nodal):
    arrays = []
    n = nodal.ndim
    for axis in range(n):
        pad = [(1, 1) if a == axis else (0, 0) for a in range(n)]
        padded = np.pad(nodal, pad, mode="edge")
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        arrays.append(0.5 * (padded[tuple(lo)] + padded[tuple(hi)]))
    return arrays


def _pad_transverse_sq(u, axis):
    grid = u.grid
    if grid.n == 1:
        return np.zeros(grid.edge_shape(axis))
    other = 1 - axis
    pad = [(0, 0), (0, 0)]
    pad[axis] = (1, 1)
    padded = np.pad(_pad_diffs(u.values, grid.h)[other], pad)
    lo = [slice(None)] * 2
    hi = [slice(None)] * 2
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    a = padded[tuple(lo)]
    b = padded[tuple(hi)]
    lo2 = [slice(None)] * 2
    hi2 = [slice(None)] * 2
    lo2[other] = slice(0, -1)
    hi2[other] = slice(1, None)
    avg = 0.25 * (a[tuple(lo2)] + a[tuple(hi2)] + b[tuple(lo2)] + b[tuple(hi2)])
    return avg * avg


def _pad_divergence_operator(u, mu, e):
    h, eps2 = u.grid.h, e.eps_reg**2
    acc = np.zeros(u.grid.shape)
    for axis, g in enumerate(_pad_diffs(u.values, h)):
        mag2 = g * g + _pad_transverse_sq(u, axis) + eps2
        flux = mag2 ** ((e.p - 2.0) / 2.0) * g + mu.per_axis[axis] * mag2 ** ((e.q - 2.0) / 2.0) * g
        acc = acc + (-np.diff(flux, axis=axis) / h)
    return acc


_REFERENCE_EXPONENTS = {
    1: (Exponents(3.0, 1.5, 1, 1e-4), Exponents(2.0, 2.0, 1, 0.0)),
    2: (TWO_PHASE_2D, Exponents(3.0, 2.0, 2, 1e-4), Exponents(2.0, 2.0, 2, 0.0)),
}


def _reference_case(n, m, seed, which):
    """Grid, nodal weight samples (zero on part of the box), u, f, exponents."""
    g = Grid(n, m)
    rng = np.random.default_rng(seed)
    nodal = np.maximum(0.0, rng.uniform(-1.0, 2.0, g.shape))
    u, f = _random_problem(g, seed, scale=10.0 ** rng.integers(-2, 3))
    exps = _REFERENCE_EXPONENTS[n]
    return g, nodal, u, f, exps[which % len(exps)]


_CASES = (st.integers(1, 2), st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(0, 2))


@settings(max_examples=40)
@given(*_CASES)
def test_from_nodal_matches_the_pad_formula_bitwise(n, m, seed, which):
    g, nodal, _, _, _ = _reference_case(n, m, seed, which)
    mu = WeightField.from_nodal(g, GridFunction(g, nodal))
    for got, want in zip(mu.per_axis, _pad_from_nodal(nodal)):
        assert np.array_equal(got, want)


@settings(max_examples=40)
@given(*_CASES)
def test_energy_gradient_matches_the_pad_formula_bitwise(n, m, seed, which):
    g, nodal, u, f, e = _reference_case(n, m, seed, which)
    mu = WeightField.from_nodal(g, GridFunction(g, nodal))
    assert np.array_equal(energy_gradient(u, f, mu, e).values, _pad_gradient(u, f, mu, e))


@settings(max_examples=40)
@given(*_CASES)
def test_divergence_operator_matches_the_pad_formula_bitwise(n, m, seed, which):
    g, nodal, u, _, e = _reference_case(n, m, seed, which)
    mu = WeightField.from_nodal(g, GridFunction(g, nodal))
    got = apply_divergence_operator(u, mu, e).values
    assert np.array_equal(got, _pad_divergence_operator(u, mu, e))


def test_raw_energy_decrease_matches_energy_difference():
    g = Grid(2, 6)
    u, f = _random_problem(g, 23)
    mu = WeightField.ramp(g, 1.0)
    e = TWO_PHASE_2D
    d, _ = _random_problem(g, 24)
    cell = g.h**g.n
    diffs = _diffs(u.values, g.h)
    dir_diffs = _diffs(d.values, g.h)
    f_dot = cell * float(np.sum(f.values * d.values))
    j0 = energy(u, f, mu, e).total
    decrease = _raw_energy_decrease(
        diffs, dir_diffs, f_dot, mu.per_axis, e.p, e.q, e.eps_reg**2, cell
    )
    for t in (1e-1, 1e-3, 1e-6):
        dj = decrease(t)
        jt = energy(u - t * d, f, mu, e).total
        assert dj == pytest.approx(jt - j0, rel=1e-7, abs=1e-13)


def test_raw_energy_decrease_handles_vanishing_edges_without_eps():
    # An edge whose gradient passes exactly through zero exercises the
    # log1p fallback branch.
    g = Grid(1, 2)
    e = Exponents(2.0, 2.0, 1, 0.0)
    mu = WeightField.constant(g, 1.0)
    u = GridFunction(g, np.array([1.0, 1.0]))
    d = GridFunction(g, np.array([1.0, -1.0]))
    f = GridFunction.zeros(g)
    cell = g.h
    diffs = _diffs(u.values, g.h)
    dir_diffs = _diffs(d.values, g.h)
    t = 0.25
    dj = _raw_energy_decrease(diffs, dir_diffs, 0.0, mu.per_axis, 2.0, 2.0, 0.0, cell)(t)
    j0 = energy(u, f, mu, e).total
    jt = energy(u - t * d, f, mu, e).total
    assert dj == pytest.approx(jt - j0, rel=1e-12, abs=1e-14)


def test_dimension_mismatch_between_grid_and_exponents():
    g = Grid(1, 4)
    u = GridFunction.zeros(g)
    mu = WeightField.constant(g, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        apply_pseudo_operator(u, mu, TWO_PHASE_2D)
