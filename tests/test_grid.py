"""Lattice, calculus, and I/O tests for the grid module."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from pseudophase.energy import Exponents, WeightField, _energy_terms
from pseudophase.grid import (
    _diff,
    _diffs,
    _edge_axes,
    _neg_div,
    _neg_div_sum,
    _sobolev_norms,
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


def _swapaxes_diff(vals, axis, h):
    """_diff as it stood before the padded flat kernel: the bit oracle."""
    shape = list(vals.shape)
    shape[axis] += 1
    out = np.empty(shape)
    o = out.swapaxes(0, axis)
    v = vals.swapaxes(0, axis)
    o[:1] = v[:1]
    np.subtract(v[1:], v[:-1], out=o[1:-1])
    np.subtract(0.0, v[-1:], out=o[-1:])
    out /= h
    return out


#: Values where a kernel could round, overflow or sign differently.
_KERNEL_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


def _kernel_input(rng, shape, layout):
    """Scaled normal values with specials sprinkled in, as a C, transposed or strided array."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    flat = vals.reshape(-1)
    spots = rng.integers(0, flat.size, rng.integers(0, 2 * len(_KERNEL_SPECIALS) + 1))
    flat[spots] = rng.choice(_KERNEL_SPECIALS, len(spots))
    if layout == "transposed":
        return np.ascontiguousarray(vals.T).T
    if layout == "strided":
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = vals
        return wide[..., ::2]
    return vals


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 40),
    stack=st.sampled_from([0, 1, 3]),
    layout=st.sampled_from(["c", "transposed", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
# m = 30 and 62: 1/h is not exact there, so a multiply by it would round differently.
@example(n=2, m=30, stack=0, layout="c", seed=0)
@example(n=1, m=62, stack=3, layout="transposed", seed=2)
@example(n=2, m=31, stack=3, layout="strided", seed=1)
def test_diff_matches_the_swapaxes_oracle_bit_for_bit(n, m, stack, layout, seed):
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    h = Grid(n, m).h
    vals = _kernel_input(rng, lead + (m,) * n, layout)
    for axis in range(len(lead), vals.ndim):
        with np.errstate(over="ignore", invalid="ignore"):
            d = _diff(vals, axis, h)
            want = _swapaxes_diff(vals, axis, h)
        assert d.shape == want.shape and d.tobytes() == want.tobytes()


def _swapaxes_neg_div(flux, axis, h):
    """_neg_div as it stood before the flat kernel: the bit oracle."""
    shape = list(flux.shape)
    shape[axis] -= 1
    out = np.empty(shape)
    f = flux.swapaxes(0, axis)
    np.subtract(f[1:], f[:-1], out=out.swapaxes(0, axis))
    out /= -h
    return out


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 40),
    stack=st.sampled_from([0, 1, 3]),
    layout=st.sampled_from(["c", "transposed", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, m=30, stack=0, layout="c", seed=0)
@example(n=2, m=63, stack=0, layout="transposed", seed=3)
def test_neg_div_matches_the_swapaxes_oracle_bit_for_bit(n, m, stack, layout, seed):
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    h = Grid(n, m).h
    for axis in range(len(lead), len(lead) + n):
        shape = list(lead + (m,) * n)
        shape[axis] += 1
        flux = _kernel_input(rng, tuple(shape), layout)
        with np.errstate(over="ignore", invalid="ignore"):
            d = _neg_div(flux, axis, h)
            want = _swapaxes_neg_div(flux, axis, h)
        assert d.shape == want.shape and d.flags.c_contiguous and d.tobytes() == want.tobytes()


def _traced_peak(fn):
    """Peak bytes traced by tracemalloc over one call of fn, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lab_kernels_hold_at_most_two_edge_stacks():
    # A strided difference or an extra stack-sized temporary breaks these bounds.
    g = Grid(2, 31)
    k = 16
    stack = np.random.default_rng(5).standard_normal((k,) + g.shape)
    edge_stack = k * 32 * 31 * 8
    mu = WeightField.ramp(g, 2.0)
    e = Exponents(4.0, 4.0 / 3.0, 2, 1e-4)
    assert _traced_peak(lambda: _energy_terms(stack, mu, e)) <= 2.1 * edge_stack
    assert _traced_peak(lambda: _sobolev_norms(stack, g, 4.0)) <= 2.1 * edge_stack
    row = np.empty(edge_stack // 8)
    for axis, inner in ((1, 31), (2, 1)):
        padded = edge_stack + inner * 8
        assert _traced_peak(lambda: _diff(stack, axis, g.h)) <= padded + edge_stack + 1024
        # Given out, only the padded buffer is allocated, and out holds the edges.
        assert _traced_peak(lambda: _diff(stack, axis, g.h, out=row)) <= padded + 1024
        assert row.tobytes() == _diff(stack, axis, g.h).tobytes()


def test_neg_div_holds_its_differences_and_its_result():
    # The strided swapaxes subtraction traced 96.9 KB along the last axis at
    # m = 63: a 31.8 KB result plus numpy's iterator buffers.
    g = Grid(2, 63)
    for axis in range(2):
        flux = np.random.default_rng(axis).standard_normal(g.edge_shape(axis))
        result = 63 * 63 * 8
        assert _traced_peak(lambda: _neg_div(flux, axis, g.h)) <= flux.nbytes + result + 1024


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 7, 31])
def test_edge_array_rows_are_the_per_axis_differences_bit_for_bit(n, m):
    g = Grid(n, m)
    rng = np.random.default_rng(10 * m + n)
    vals = rng.standard_normal(g.shape)
    vals[rng.random(g.shape) < 0.3] = -0.0
    edges = _diffs(vals, g.h)
    assert edges.shape == (n, m ** (n - 1) * (m + 1))
    for axis, view in enumerate(_edge_axes(edges)):
        expected = _swapaxes_diff(vals, axis, g.h)
        assert view.shape == expected.shape == g.edge_shape(axis)
        assert np.shares_memory(view, edges)
        assert edges[axis].tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 7, 31])
def test_edge_array_divergence_is_the_per_axis_sum_bit_for_bit(n, m):
    # The sum over axes of _neg_div, from +0.0 up, signed zeros included.
    g = Grid(n, m)
    rng = np.random.default_rng(20 * m + n)
    fluxes = rng.standard_normal((n, m ** (n - 1) * (m + 1)))
    fluxes[rng.random(fluxes.shape) < 0.3] = -0.0
    expected = sum(_swapaxes_neg_div(flux, axis, g.h) for axis, flux in enumerate(_edge_axes(fluxes)))
    assert _neg_div_sum(fluxes, g.h).tobytes() == expected.tobytes()


def _signed_zero_input(rng, shape):
    """Scaled normal values with about a third of them -0.0 and some +0.0."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    vals[rng.random(shape) < 0.3] = -0.0
    vals[rng.random(shape) < 0.1] = 0.0
    return vals


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 40),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_the_swapaxes_oracles_on_drawn_stacks(n, m, k, seed):
    g = Grid(n, m)
    rng = np.random.default_rng(seed)
    stack = _signed_zero_input(rng, (k,) + g.shape)
    fluxes = _signed_zero_input(rng, (k, n, m ** (n - 1) * (m + 1)))
    for axis in range(n):
        want = _swapaxes_diff(stack, axis + 1, g.h)
        assert _diff(stack, axis + 1, g.h).tobytes() == want.tobytes()
        flux = np.stack([_edge_axes(f)[axis] for f in fluxes])
        want = _swapaxes_neg_div(flux, axis + 1, g.h)
        assert _neg_div(flux, axis + 1, g.h).tobytes() == want.tobytes()
    for vals, flux in zip(stack, fluxes):
        edges = _diffs(vals, g.h)
        total = 0.0
        for axis, (row, view) in enumerate(zip(edges, _edge_axes(flux))):
            assert row.tobytes() == _swapaxes_diff(vals, axis, g.h).tobytes()
            total = total + _swapaxes_neg_div(view, axis, g.h)
        assert _neg_div_sum(flux, g.h).tobytes() == total.tobytes()
        # Summation by parts through the public API, to 1e-12 of the paired terms' size.
        w = GridFunction(g, vals)
        for axis, view in enumerate(_edge_axes(flux)):
            F = EdgeField(g, axis, view)
            paired = F.values * forward_diff(w, axis).values
            lhs = quadrature(EdgeField(g, axis, paired))
            rhs = inner_product(neg_divergence(F), w)
            assert abs(lhs - rhs) <= 1e-12 * quadrature(EdgeField(g, axis, np.abs(paired)))


def test_records_holding_arrays_compare_by_identity():
    g = Grid(2, 3)
    pairs = [
        (WeightField.constant(g, 1.0), WeightField.constant(g, 1.0)),
        (GridFunction.full(g, 1.0), GridFunction.full(g, 1.0)),
        (EdgeField(g, 1, np.ones(g.edge_shape(1))), EdgeField(g, 1, np.ones(g.edge_shape(1)))),
    ]
    for a, b in pairs:
        assert a != b and not a == b
        assert a == a and not a != a
        assert {a: "a", b: "b"}[a] == "a" and len({a, b, a}) == 2


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


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_sobolev_norm_rejects_a_non_finite_exponent(p):
    with pytest.raises(ValueError, match="exponent p"):
        sobolev_norm(GridFunction.full(Grid(2, 3), 1.0), p)


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


def _per_row_csv(u):
    """The CSV writer as it was, one formatted row at a time: the byte oracle."""
    grid = u.grid
    coords = grid.node_coords()
    lines = ["x,value" if grid.n == 1 else "x,y,value"]
    if grid.n == 1:
        rows = [((x,), float(u.values[i])) for i, x in enumerate(coords[0])]
    else:
        rows = [
            ((x, y), float(u.values[i, j]))
            for i, x in enumerate(coords[0])
            for j, y in enumerate(coords[1])
        ]
    for point, value in rows:
        coord_part = ",".join(f"{c:.17g}" for c in point)
        lines.append(f"{coord_part},{value:.17g}")
    return ("\n".join(lines) + "\n").encode("ascii")


_EDGE_VALUES = [
    -0.0,
    0.0,
    5e-324,
    -2.2250738585072014e-308 / 3.0,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("nan"),
    float("inf"),
    -float("inf"),
    1.0 / 3.0,
]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 10), (1, 63), (2, 1), (2, 4), (2, 31)])
def test_csv_writer_matches_the_per_row_writer_byte_for_byte(tmp_path, n, m):
    g = Grid(n, m)
    rng = np.random.default_rng(100 * n + m)
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-300.0, 300.0, g.shape)
    flat = vals.reshape(-1)
    flat[: len(_EDGE_VALUES)] = _EDGE_VALUES[: flat.size]
    for layout in (vals, np.asfortranarray(vals)):
        u = GridFunction(g, layout)
        path = tmp_path / "u.csv"
        write_grid_function(u, str(path))
        assert path.read_bytes() == _per_row_csv(u)


def test_csv_reader_parses_every_token_as_float_does(tmp_path):
    g = Grid(2, 3)
    vals = np.array(
        [[-0.0, 5e-324, 1.7976931348623157e308], [1.0 / 3.0, -1e-310, 2.0], [0.1, -7.0, 1e300]]
    )
    path = tmp_path / "u.csv"
    write_grid_function(GridFunction(g, vals), str(path))
    back = read_grid_function(str(path)).values
    tokens = [line.split(",")[-1] for line in path.read_text().splitlines()[1:]]
    expected = np.array([float(tok) for tok in tokens]).reshape(g.shape)
    assert np.array_equal(back, expected) and np.array_equal(np.signbit(back), np.signbit(expected))


def test_csv_reader_names_the_line_of_a_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    # Line 3 is blank and still counted; line 5 has one field too few.
    path.write_text("x,y,value\n0.25,0.25,1\n\n0.25,0.5,2\n0.5,3\n0.5,0.5,4\n")
    with pytest.raises(ValueError, match=r"ragged\.csv: line 5: expected 3 fields, got 2"):
        read_grid_function(str(path))


def test_csv_reader_names_the_line_of_a_bad_token(tmp_path):
    path = tmp_path / "token.csv"
    path.write_text("x,value\n0.25,1\n0.5,abc\n0.75,3\n")
    message = r"token\.csv: line 3: could not convert string to float: 'abc'"
    with pytest.raises(ValueError, match=message):
        read_grid_function(str(path))


def test_csv_reader_refuses_a_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,value\n\n")
    with pytest.raises(ValueError, match=r"empty\.csv: malformed rows"):
        read_grid_function(str(path))


def _nested_parse(path):
    """The reader's former parse, one list per row: the oracle for the flat one."""
    lines = [line.strip() for line in open(path, encoding="ascii") if line.strip()]
    return np.array([line.split(",") for line in lines[1:]], dtype=float)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (2, 1), (2, 6)])
def test_csv_reader_matches_the_nested_row_parse_bit_for_bit(tmp_path, n, m):
    g = Grid(n, m)
    rng = np.random.default_rng(10 * n + m)
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-300.0, 300.0, g.shape)
    finite = [v for v in _EDGE_VALUES if np.isfinite(v)]  # the reader refuses the rest
    flat = vals.reshape(-1)
    flat[: len(finite)] = finite[: flat.size]
    path = tmp_path / "u.csv"
    write_grid_function(GridFunction(g, vals), str(path))
    expected = _nested_parse(path)[:, -1].reshape(g.shape)
    back = read_grid_function(str(path)).values
    assert back.tobytes() == expected.tobytes()
