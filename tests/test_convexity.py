"""Hyperconvexity trial and certificate tests."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudophase import (
    ConvexityCertificate,
    Exponents,
    Grid,
    GridFunction,
    SamplerConfig,
    WeightField,
    check_sum_lemma,
    energy,
    estimate_modulus,
    forward_diff,
    grid_function_space,
    real_line_space,
    sobolev_norm,
)
import pseudophase.convexity as lab
from pseudophase.energy import _energy_terms


def square(x):
    return x * x


def stacked_energy(mu, e):
    """J at zero forcing on a stack of nodal arrays, one total per point."""

    def J(points):
        p_term, q_term = _energy_terms(points, mu, e)
        return p_term + q_term

    return J


def run_one_trial(F, x, y, theta, gamma, c):
    """check_sum_lemma's verdict on the single real-line trial (x, y, theta).

    h's certificate carries the modulus c at gamma; g's only has to pass
    below gamma.  worst_defect is the trial's defect, failures its verdict.
    """
    xs = np.array([x], dtype=float)
    ys = np.array([y], dtype=float)
    parts = lab._trial_parts(F, xs, ys, np.array([theta]), gamma, np.abs(xs - ys))
    h_cert = ConvexityCertificate(1, 0, c, 0, gamma, 0.0)
    g_cert = ConvexityCertificate(1, 0, 1.0, 0, 1.0, 0.0)
    cfg = SamplerConfig(seed=0, trials=1, space=real_line_space())
    with mock.patch.object(lab, "_sample_triples", lambda config, g, fn: parts):
        return check_sum_lemma(h_cert, g_cert, F, cfg)


def test_run_trial_boundary_case_passes_exactly():
    # x**2 is 2-hyperconvex with modulus exactly 1/2; theta = 1/2 attains it.
    t = run_one_trial(square, 0.0, 2.0, theta=0.5, gamma=2.0, c=0.5)
    assert t.worst_defect == 0.0
    assert t.passed


def test_run_trial_coincident_points_pass():
    # x == y zeroes the penalty, so only round-off in the gap remains.
    t = run_one_trial(square, 1.5, 1.5, theta=0.3, gamma=2.0, c=100.0)
    assert abs(t.worst_defect) <= lab.TRIAL_TOL_REL * 3 * 1.5**2
    assert t.passed


def test_run_trial_small_theta_probe():
    t = run_one_trial(square, -1.0, 3.0, theta=0.01, gamma=2.0, c=0.5)
    assert t.worst_defect > 0.0
    assert t.passed


def test_run_trial_linear_function_fails():
    t = run_one_trial(lambda x: 3.0 * x + 1.0, 0.0, 1.0, theta=0.25, gamma=2.0, c=1.0)
    assert not t.passed
    assert t.worst_defect < 0.0


def test_run_trial_requires_positive_modulus():
    with pytest.raises(ValueError, match="must pass"):
        run_one_trial(square, 0.0, 1.0, theta=0.5, gamma=2.0, c=0.0)
    with pytest.raises(ValueError, match="must pass"):
        run_one_trial(square, 0.0, 1.0, theta=0.5, gamma=2.0, c=-1.0)


def test_run_trial_rejects_sublinear_gamma():
    cfg = SamplerConfig(seed=0, trials=1, space=real_line_space())
    with pytest.raises(ValueError, match="gamma"):
        estimate_modulus(square, 0.5, cfg)


@given(
    st.floats(0.01, 0.99),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
)
def test_run_trial_weight_swap_symmetry(theta, x, y):
    a = run_one_trial(square, x, y, theta, 2.0, 0.25)
    b = run_one_trial(square, y, x, 1.0 - theta, 2.0, 0.25)
    assert a.worst_defect == pytest.approx(b.worst_defect, rel=1e-9, abs=1e-12)


@given(st.floats(0.05, 0.5), st.floats(0.6, 2.0))
def test_run_trial_defect_decreases_with_modulus(c1, c2):
    a = run_one_trial(square, -1.0, 2.0, 0.3, 2.0, c1)
    b = run_one_trial(square, -1.0, 2.0, 0.3, 2.0, c2)
    basis = min(0.3, 0.7) * abs(-1.0 - 2.0) ** 2.0
    assert b.worst_defect == pytest.approx(a.worst_defect - (c2 - c1) * basis, rel=1e-12)


def test_estimate_modulus_is_deterministic():
    cfg = SamplerConfig(seed=42, trials=200, space=real_line_space())
    a = estimate_modulus(square, 2.0, cfg)
    b = estimate_modulus(square, 2.0, cfg)
    assert a.c_estimate == b.c_estimate
    assert a.worst_defect == b.worst_defect
    assert a.failures == b.failures


def test_estimate_modulus_square_recovers_half():
    # The theta = 1/2 probe pins the ratio at exactly 1/2, so the strict
    # bisection must land just below it.
    cfg = SamplerConfig(seed=0, trials=600, space=real_line_space())
    cert = estimate_modulus(square, 2.0, cfg)
    assert cert.failures == 0
    assert 0.49 <= cert.c_estimate <= 0.5
    assert cert.passed
    assert cert.worst_defect >= 0.0


def test_estimate_modulus_identity_yields_zero():
    cfg = SamplerConfig(seed=3, trials=100, space=real_line_space())
    cert = estimate_modulus(lambda x: x, 2.0, cfg)
    assert cert.c_estimate == 0.0
    assert cert.failures == 0
    assert not cert.passed


def test_estimate_modulus_concave_function_records_failures():
    cfg = SamplerConfig(seed=4, trials=100, space=real_line_space())
    cert = estimate_modulus(lambda x: -x * x, 2.0, cfg)
    assert cert.failures > 0
    assert cert.c_estimate == 0.0


def test_estimate_modulus_rejects_sublinear_gamma():
    cfg = SamplerConfig(seed=0, trials=10, space=real_line_space())
    with pytest.raises(ValueError, match="gamma"):
        estimate_modulus(square, 0.9, cfg)


def test_sampler_config_requires_trials():
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, trials=0, space=real_line_space())


def test_real_line_space_scale_validation():
    with pytest.raises(ValueError):
        real_line_space(0.0)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
def test_real_line_space_rejects_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match="scale"):
        real_line_space(scale)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_grid_function_space_rejects_a_bad_norm_exponent(p):
    with pytest.raises(ValueError, match="exponent p"):
        grid_function_space(Grid(2, 3), p)


def test_grid_function_space_respects_norm_band():
    g = Grid(1, 5)
    space = grid_function_space(g, 4.0)
    points = space.sample([np.random.default_rng([9, k]) for k in range(25)])
    assert points.shape == (25, 5)
    norms = space.norm(points)
    assert norms.shape == (25,)
    assert np.all(0.1 * (1.0 - 1e-9) <= norms)
    assert np.all(norms <= 10.0 * (1.0 + 1e-9))
    for point, r in zip(points, norms):
        assert sobolev_norm(GridFunction(g, point), 4.0) == r


def test_energy_modulus_on_grid_functions():
    g = Grid(1, 5)
    e = Exponents(4.0, 4.0 / 3.0, 1, 1e-6)
    mu = WeightField.constant(g, 1.0)
    J = stacked_energy(mu, e)
    cfg = SamplerConfig(seed=0, trials=1000, space=grid_function_space(g, 4.0))
    cert = estimate_modulus(J, 4.0, cfg)
    assert cert.failures == 0
    assert cert.c_estimate == pytest.approx(0.04285854378881589, rel=1e-12)
    assert cert.passed


def test_sum_lemma_certifies_the_p_exponent():
    g = Grid(1, 5)
    space = grid_function_space(g, 4.0)
    cfg = SamplerConfig(seed=0, trials=1000, space=space)

    norm_q = grid_function_space(g, 4.0 / 3.0).norm

    def H(u):
        return space.norm(u) ** 4 / 4.0

    def G(u):
        return norm_q(u) ** (4.0 / 3.0) / (4.0 / 3.0)

    h_cert = estimate_modulus(H, 4.0, cfg)
    g_cert = estimate_modulus(G, 4.0 / 3.0, cfg)
    assert h_cert.passed
    assert g_cert.passed
    assert h_cert.c_estimate == pytest.approx(0.034468046515925686, rel=1e-12)
    assert g_cert.c_estimate == pytest.approx(0.03882323537591974, rel=1e-12)

    total = check_sum_lemma(h_cert, g_cert, lambda u: H(u) + G(u), cfg)
    assert total.failures == 0
    assert total.c_estimate == h_cert.c_estimate
    assert total.gamma == 4.0


@pytest.mark.parametrize("shortfall, failures", [(0.5, 0), (2.0, 1)])
def test_sum_lemma_forgives_round_off_of_the_functional_values_only(shortfall, failures):
    # Defect gap - c * basis = -shortfall * TRIAL_TOL_REL * scale on the one trial.
    h_cert = ConvexityCertificate(1, 0, 0.5, 0, 2.0, 0.0)
    g_cert = ConvexityCertificate(1, 0, 0.1, 0, 1.5, 0.0)
    cfg = SamplerConfig(seed=0, trials=1, space=real_line_space())
    slack = lab.TRIAL_TOL_REL * 4.0
    triples = (np.array([1.0 - shortfall * slack]), np.array([2.0]), np.array([4.0]))
    with mock.patch.object(lab, "_sample_triples", lambda config, g, fn: triples):
        total = check_sum_lemma(h_cert, g_cert, square, cfg)
    assert total.failures == failures
    assert total.c_estimate == (0.5 if failures == 0 else 0.0)
    assert total.worst_defect == pytest.approx(-shortfall * slack, rel=1e-6)


def test_sum_lemma_rejects_degenerate_inputs():
    cfg = SamplerConfig(seed=1, trials=50, space=real_line_space())
    good = estimate_modulus(square, 2.0, cfg)
    flat = estimate_modulus(lambda x: x, 2.0, cfg)
    assert good.passed and not flat.passed
    with pytest.raises(ValueError, match="strictly positive"):
        check_sum_lemma(good, flat, square, cfg)
    with pytest.raises(ValueError, match="must pass"):
        check_sum_lemma(flat, good, square, cfg)
    with pytest.raises(ValueError, match="below"):
        check_sum_lemma(good, good, square, cfg)


def test_overflowing_basis_raises_naming_gamma():
    cfg = SamplerConfig(seed=0, trials=20, space=grid_function_space(Grid(1, 5), 4.0))
    norm = cfg.space.norm
    with pytest.raises(ValueError, match="gamma = 1e\\+300.*penalty basis"):
        estimate_modulus(lambda u: norm(u) ** 4, 1e300, cfg)


def test_non_finite_functional_raises_naming_gamma():
    cfg = SamplerConfig(seed=0, trials=20, space=real_line_space())
    with pytest.raises(ValueError, match="gamma = 2.*functional is not finite"):
        estimate_modulus(lambda v: np.where(v > 1.0, np.nan, v * v), 2.0, cfg)
    good = estimate_modulus(square, 2.0, cfg)
    quartic = estimate_modulus(lambda v: v**4 + v * v, 1.5, cfg)
    assert good.passed and quartic.passed
    with pytest.raises(ValueError, match="gamma = 2.*functional is not finite"):
        check_sum_lemma(good, quartic, lambda v: np.where(v > 1.0, np.inf, v * v), cfg)


# ---------------------------------------------------------------------------
# Oracle: the one-trial-at-a-time lab on GridFunction points, as it stood
# before trials were drawn and evaluated in chunks.  The chunked lab must
# reproduce its gaps, bases and scales bit for bit.
# ---------------------------------------------------------------------------


def reference_norm(u, p):
    grid = u.grid
    total = 0.0
    for axis in range(grid.n):
        g = forward_diff(u, axis).values
        total += float(((g * g) ** (p / 2)).sum() * grid.h**grid.n)
    return total ** (1.0 / p)


def reference_energy(u, f, mu, e):
    grid = u.grid
    cell = grid.h**grid.n
    eps2 = e.eps_reg**2
    p_term = 0.0
    q_term = 0.0
    for axis in range(grid.n):
        g = forward_diff(u, axis).values
        s2 = g * g + eps2
        p_term += float(np.sum(s2 ** (e.p / 2.0))) * cell / e.p
        q_term += float(np.sum(mu.per_axis[axis] * s2 ** (e.q / 2.0))) * cell / e.q
    load = float(np.sum(f.values * u.values)) * cell
    return p_term + q_term - load


def reference_grid_sample(grid, p, norm_low=0.1, norm_high=10.0):
    def sample(rng):
        values = rng.standard_normal(grid.shape)
        u = GridFunction(grid, values)
        base = reference_norm(u, p)
        while base == 0.0:  # pragma: no cover - measure-zero draw
            values = rng.standard_normal(grid.shape)
            u = GridFunction(grid, values)
            base = reference_norm(u, p)
        target = float(np.exp(rng.uniform(np.log(norm_low), np.log(norm_high))))
        return u * (target / base)

    return sample


def reference_parts(F, x, y, theta, gamma, norm):
    fx = float(F(x))
    fy = float(F(y))
    fc = float(F(theta * x + (1.0 - theta) * y))
    gap = theta * fx + (1.0 - theta) * fy - fc
    basis = min(theta, 1.0 - theta) * norm(x - y) ** gamma
    scale = abs(fx) + abs(fy) + abs(fc)
    return gap, basis, scale


def trial_rng(seed, index):
    """numpy's own generator for trial `index`: the stream the lab must draw from."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def reference_triples(seed, trials, gamma, F, sample, norm):
    gaps = np.empty(trials)
    bases = np.empty(trials)
    scales = np.empty(trials)
    for i in range(trials):
        rng = trial_rng(seed, i)
        theta = (
            lab._THETA_PROBES[i]
            if i < len(lab._THETA_PROBES)
            else float(rng.uniform(1e-3, 1.0 - 1e-3))
        )
        x = sample(rng)
        y = sample(rng)
        attempts = 0
        while norm(x - y) == 0.0:
            y = sample(rng)
            attempts += 1
            if attempts > 100:
                raise RuntimeError("sampler keeps producing coincident points")
        gaps[i], bases[i], scales[i] = reference_parts(F, x, y, theta, gamma, norm)
    return gaps, bases, scales


def assert_matches_reference(cfg, gamma, F, reference):
    triples = lab._sample_triples(cfg, gamma, F)
    for got, want in zip(triples, reference):
        assert got.tolist() == want.tolist()
    with mock.patch.object(lab, "_sample_triples", lambda config, g, fn: reference):
        want_cert = estimate_modulus(F, gamma, cfg)
    assert estimate_modulus(F, gamma, cfg) == want_cert


CHUNK_EDGES = st.sampled_from([lab._CHUNK - 1, lab._CHUNK, lab._CHUNK + 1, 2 * lab._CHUNK + 1])
EXPONENTS = st.sampled_from([(4.0, 4.0 / 3.0), (3.0, 2.0), (2.5, 1.5)])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    trials=CHUNK_EDGES,
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 6),
    gamma=st.floats(1.0, 6.0),
    exponents=EXPONENTS,
    ramp=st.booleans(),
)
def test_chunked_lab_reproduces_the_per_trial_loop(seed, trials, n, m, gamma, exponents, ramp):
    g = Grid(n, m)
    p, q = exponents
    e = Exponents(p, q, n, 1e-6)
    mu = WeightField.ramp(g, 2.0) if ramp else WeightField.constant(g, 1.0)
    f = GridFunction.zeros(g)
    cfg = SamplerConfig(seed=seed, trials=trials, space=grid_function_space(g, p))
    reference = reference_triples(
        seed,
        trials,
        gamma,
        lambda u: reference_energy(u, f, mu, e),
        reference_grid_sample(g, p),
        lambda u: reference_norm(u, p),
    )
    assert_matches_reference(cfg, gamma, stacked_energy(mu, e), reference)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63), trials=CHUNK_EDGES, gamma=st.floats(1.0, 4.0))
def test_chunked_lab_reproduces_the_per_trial_loop_on_the_line(seed, trials, gamma):
    cfg = SamplerConfig(seed=seed, trials=trials, space=real_line_space(2.0))
    reference = reference_triples(
        seed, trials, gamma, square, lambda rng: float(rng.normal(0.0, 2.0)), abs
    )
    assert_matches_reference(cfg, gamma, square, reference)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63), trials=CHUNK_EDGES)
def test_chunked_lab_redraws_coincident_points_like_the_per_trial_loop(seed, trials):
    # Points in {0, 1}: half the trials draw y == x and must redraw y
    # from their own stream, in the per-trial loop's order.
    space = lab.SampledSpace(
        sample=lambda rngs: np.array([float(rng.integers(0, 2)) for rng in rngs]), norm=np.abs
    )
    cfg = SamplerConfig(seed=seed, trials=trials, space=space)
    reference = reference_triples(
        seed, trials, 2.0, square, lambda rng: float(rng.integers(0, 2)), abs
    )
    assert_matches_reference(cfg, 2.0, square, reference)


# ---------------------------------------------------------------------------
# Bulk seeding: the lab computes each trial's PCG64 state itself; numpy's
# SeedSequence and PCG64 are the reference.
# ---------------------------------------------------------------------------

SEED_EDGES = st.sampled_from([0, lab._CHUNK, lab._SEED_BLOCK, 2 * lab._SEED_BLOCK])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    edge=SEED_EDGES,
    offset=st.integers(-lab._CHUNK - 1, lab._CHUNK + 1),
    length=st.integers(1, 2 * lab._CHUNK + 3),
)
def test_bulk_seeder_gives_numpys_pcg64_state_for_every_trial(seed, edge, offset, length):
    window = range(max(edge + offset, 0), max(edge + offset, 0) + length)
    want = []
    for i in window:
        state = trial_rng(seed, i).bit_generator.state["state"]
        want.append((state["state"], state["inc"]))
    assert lab._pcg64_states(seed, window) == want


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**70 + 3])
def test_lab_streams_draw_what_numpys_generators_draw(seed):
    # Every point draws 1000 normals and then one uniform from its trial's
    # stream; trials past the probes draw theta first.
    trials = lab._CHUNK + 3
    drawn = []

    def sample(rngs):
        points = [(rng.standard_normal(1000).tolist(), rng.uniform()) for rng in rngs]
        drawn.extend(points)
        return np.array([uniform for _, uniform in points])

    space = lab.SampledSpace(sample=sample, norm=np.abs)
    estimate_modulus(square, 2.0, SamplerConfig(seed=seed, trials=trials, space=space))
    want = {}
    for i in range(trials):
        rng = trial_rng(seed, i)
        if i >= len(lab._THETA_PROBES):
            rng.uniform(1e-3, 1.0 - 1e-3)
        want[i] = [(rng.standard_normal(1000).tolist(), rng.uniform()) for _ in range(2)]
    chunks = [range(start, min(start + lab._CHUNK, trials)) for start in range(0, trials, lab._CHUNK)]
    order = [want[i][point] for chunk in chunks for point in (0, 1) for i in chunk]
    assert drawn == order


def test_lab_streams_cross_a_seed_block_like_the_per_trial_loop():
    trials = 2 * lab._SEED_BLOCK + lab._CHUNK // 2
    cfg = SamplerConfig(seed=2**40 + 5, trials=trials, space=real_line_space(2.0))
    reference = reference_triples(
        cfg.seed, trials, 2.0, square, lambda rng: float(rng.normal(0.0, 2.0)), abs
    )
    assert_matches_reference(cfg, 2.0, square, reference)


def test_the_lab_builds_no_seed_sequence(monkeypatch):
    # The per-trial SeedSequence construction the bulk seeder replaced.
    def forbidden(*args, **kwargs):
        raise AssertionError("the lab built a SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    cert = estimate_modulus(square, 2.0, SamplerConfig(seed=7, trials=40, space=real_line_space()))
    assert cert.trials == 40 and cert.passed


def test_a_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        estimate_modulus(square, 2.0, SamplerConfig(seed=-1, trials=1, space=real_line_space()))


def test_sampler_that_only_repeats_its_point_is_rejected():
    space = lab.SampledSpace(sample=lambda rngs: np.zeros(len(rngs)), norm=np.abs)
    with pytest.raises(RuntimeError, match="coincident"):
        estimate_modulus(square, 2.0, SamplerConfig(seed=0, trials=3, space=space))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    n=st.sampled_from([1, 2]),
    m=st.integers(1, 9),
    points=st.integers(1, 5),
    exponents=EXPONENTS,
    ramp=st.booleans(),
)
def test_stacked_kernels_reproduce_the_one_field_loops(seed, n, m, points, exponents, ramp):
    g = Grid(n, m)
    p, q = exponents
    e = Exponents(p, q, n, 1e-6)
    mu = WeightField.ramp(g, 2.0) if ramp else WeightField.constant(g, 1.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.standard_normal(g.shape))
    stack = rng.standard_normal((points, *g.shape)) * 10.0 ** rng.uniform(-3, 3, points).reshape(
        (-1,) + (1,) * n
    )
    fields = [GridFunction(g, u) for u in stack]
    assert grid_function_space(g, p).norm(stack).tolist() == [
        reference_norm(u, p) for u in fields
    ]
    # The stacked terms leave out the load: J at zero forcing, bit for bit.
    assert stacked_energy(mu, e)(stack).tolist() == [
        reference_energy(u, GridFunction.zeros(g), mu, e) for u in fields
    ]
    for u in fields:
        assert sobolev_norm(u, p) == reference_norm(u, p)
        assert energy(u, f, mu, e).total == reference_energy(u, f, mu, e)


# ---------------------------------------------------------------------------
# The norm's arithmetic: |d_i u|^p as (d_i u * d_i u) ** (p/2).
# ---------------------------------------------------------------------------


def abs_power_norm(u, p):
    """The norm as it stood before the squaring: |g| ** p."""
    grid = u.grid
    total = 0.0
    for axis in range(grid.n):
        g = forward_diff(u, axis).values
        total += float((np.abs(g) ** p).sum() * grid.h**grid.n)
    return total ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0])
def test_norm_by_squaring_stays_within_4e16_of_the_abs_power(p):
    rng = np.random.default_rng(1600)
    for _ in range(300):
        g = Grid(int(rng.integers(1, 3)), int(rng.integers(1, 32)))
        u = GridFunction(g, rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-3, 3))
        old = abs_power_norm(u, p)
        assert abs(sobolev_norm(u, p) - old) <= 4e-16 * old


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_norm_overflows_once_a_difference_squares_to_inf(p):
    # On Grid(1, 1) the differences of u = [v] are +-2v.  Above
    # sqrt(DBL_MAX) ~ 1.34e154 their square is inf, for p < 2 too.
    g = Grid(1, 1)
    with np.errstate(over="ignore"):
        assert sobolev_norm(GridFunction(g, [0.68e154]), p) == math.inf
        if p < 2.0:
            assert math.isfinite(sobolev_norm(GridFunction(g, [0.66e154]), p))
