"""Lattice, calculus, and I/O tests for the grid module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudophase import (
    EdgeField,
    Grid,
    GridFunction,
    forward_diff,
    inner_product,
    neg_divergence,
    quadrature,
    read_grid_function,
    sobolev_norm,
    write_grid_function,
)


def test_grid_smallest():
    g = Grid(1, 1)
    assert g.h == 0.5
    assert g.shape == (1,)
    assert g.n_nodes == 1


def test_grid_2d_arithmetic():
    g = Grid(2, 3)
    assert g.h == 0.25
    assert g.n_nodes == 9
    assert g.shape == (3, 3)


def test_grid_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        Grid(3, 4)
    with pytest.raises(ValueError):
        Grid(1, 0)


def test_forward_diff_hand_example():
    g = Grid(1, 1)
    u = GridFunction(g, np.array([1.0]))
    d = forward_diff(u, 0)
    assert d.values.tolist() == [2.0, -2.0]


def test_forward_diff_zero_field():
    g = Grid(2, 4)
    d = forward_diff(GridFunction.zeros(g), 1)
    assert not d.values.any()


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_forward_diff_linearity(c):
    g = Grid(1, 5)
    v = GridFunction(g, np.linspace(-1.0, 2.0, 5))
    lhs = forward_diff(c * v, 0).values
    rhs = c * forward_diff(v, 0).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def _pad_forward_diff(vals, axis, h):
    """forward_diff as written with np.pad before the slice kernel."""
    pad = [(1, 1) if a == axis else (0, 0) for a in range(vals.ndim)]
    return np.diff(np.pad(vals, pad), axis=axis) / h


@settings(max_examples=50)
@given(st.integers(1, 2), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_difference_kernels_match_the_pad_formulas_bitwise(n, m, seed):
    g = Grid(n, m)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, g.shape)
    u = GridFunction(g, scale * rng.standard_normal(g.shape))
    for axis in range(n):
        d = forward_diff(u, axis).values
        assert np.array_equal(d, _pad_forward_diff(u.values, axis, g.h))
        assert np.array_equal(neg_divergence(EdgeField(g, axis, d)).values, -np.diff(d, axis=axis) / g.h)


def test_quadrature_ones_2d():
    g = Grid(2, 3)
    assert quadrature(GridFunction.full(g, 1.0)) == 0.5625


def test_quadrature_zero():
    assert quadrature(GridFunction.zeros(Grid(1, 9))) == 0.0


@given(st.floats(-100.0, 100.0, allow_nan=False))
def test_quadrature_scaling(c):
    g = Grid(1, 7)
    e = EdgeField(g, 0, np.arange(8.0))
    scaled = EdgeField(g, 0, c * e.values)
    assert quadrature(scaled) == pytest.approx(c * quadrature(e), rel=1e-13, abs=1e-12)


@settings(max_examples=30)
@given(st.integers(1, 9), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_summation_by_parts_adjoint(m, axis, seed):
    """quadrature(F * d_i w) == <neg_div F, w>_h for every edge flux F."""
    g = Grid(2, m)
    rng = np.random.default_rng(seed)
    w = GridFunction(g, rng.standard_normal(g.shape))
    flux = EdgeField(g, axis, rng.standard_normal(g.edge_shape(axis)))
    lhs = quadrature(EdgeField(g, axis, flux.values * forward_diff(w, axis).values))
    rhs = inner_product(neg_divergence(flux), w)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_sobolev_norm_hand_example():
    g = Grid(1, 1)
    u = GridFunction(g, np.array([1.0]))
    assert sobolev_norm(u, 2.0) == 2.0


@given(st.floats(-20.0, 20.0, allow_nan=False))
def test_sobolev_norm_homogeneity(c):
    g = Grid(2, 4)
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.standard_normal(g.shape))
    assert sobolev_norm(c * u, 3.0) == pytest.approx(
        abs(c) * sobolev_norm(u, 3.0), rel=1e-12, abs=1e-12
    )


def test_sobolev_norm_zero_and_validation():
    g = Grid(1, 4)
    assert sobolev_norm(GridFunction.zeros(g), 2.0) == 0.0
    with pytest.raises(ValueError):
        sobolev_norm(GridFunction.zeros(g), 0.5)


def test_sobolev_norm_triangle_inequality():
    g = Grid(2, 6)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = GridFunction(g, rng.standard_normal(g.shape))
        v = GridFunction(g, rng.standard_normal(g.shape))
        lhs = sobolev_norm(u + v, 2.5)
        rhs = sobolev_norm(u, 2.5) + sobolev_norm(v, 2.5)
        assert lhs <= rhs + 1e-12 * rhs


def test_sobolev_norm_refinement_converges():
    # ||sin(pi x)'||_L2 = pi / sqrt(2); the staggered norm should approach it
    # from one refinement to the next.
    target = np.pi / np.sqrt(2.0)
    errs = []
    for m in (7, 15, 31, 63):
        g = Grid(1, m)
        u = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x))
        errs.append(abs(sobolev_norm(u, 2.0) - target))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_value_at_includes_boundary_zeros():
    g = Grid(1, 3)
    u = GridFunction(g, np.array([1.0, 2.0, 3.0]))
    assert u.value_at(0) == 0.0
    assert u.value_at(4) == 0.0
    assert u.value_at(2) == 2.0


def test_grid_function_arithmetic():
    g = Grid(1, 3)
    u = GridFunction(g, np.array([1.0, 2.0, 3.0]))
    v = GridFunction(g, np.array([1.0, 1.0, 1.0]))
    assert (u + v).values.tolist() == [2.0, 3.0, 4.0]
    assert (u - v).values.tolist() == [0.0, 1.0, 2.0]
    assert (2.0 * u).values.tolist() == [2.0, 4.0, 6.0]
    assert (-u).values.tolist() == [-1.0, -2.0, -3.0]


def test_grid_function_values_are_frozen():
    g = Grid(1, 2)
    u = GridFunction(g, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        u.values[0] = 9.0


def test_grid_mismatch_rejected():
    u = GridFunction.zeros(Grid(1, 3))
    v = GridFunction.zeros(Grid(1, 4))
    with pytest.raises(ValueError):
        _ = u + v


@pytest.mark.parametrize("n,m", [(1, 5), (2, 4)])
def test_csv_round_trip_is_exact(tmp_path, n, m):
    g = Grid(n, m)
    rng = np.random.default_rng(17)
    u = GridFunction(g, rng.standard_normal(g.shape) * 1e3)
    path = tmp_path / "u.csv"
    write_grid_function(u, str(path))
    back = read_grid_function(str(path))
    assert back.grid == g
    assert np.array_equal(back.values, u.values)


def test_read_grid_function_checks_expected_grid(tmp_path):
    g = Grid(1, 5)
    path = tmp_path / "u.csv"
    write_grid_function(GridFunction.zeros(g), str(path))
    with pytest.raises(ValueError):
        read_grid_function(str(path), Grid(1, 6))


def test_read_grid_function_rejects_off_lattice_coords(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.1,1.0\n0.9,2.0\n")
    with pytest.raises(ValueError):
        read_grid_function(str(path))
