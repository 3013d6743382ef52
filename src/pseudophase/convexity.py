"""Sampling lab for gamma-hyperconvexity certificates.

A functional F on a normed space is gamma-hyperconvex with modulus c > 0
when for all points x, y and weights theta in (0,1)

    theta*F(x) + (1-theta)*F(y) - F(theta*x + (1-theta)*y)
        >= c * min(theta, 1-theta) * ||x - y||**gamma.

The lab falsifies by sampling: it cannot prove the inequality, only fail
to break it over many random triples, so every certificate it emits is
evidence rather than proof.  Strict positivity of c is enforced at the API
boundary; c = 0 is plain convexity and deliberately not accepted.

Points are bare arrays, and the lab works on stacks of them: a leading
trial axis over the point's own shape (a stack of scalars is a 1-D array,
a stack of nodal fields has shape (k, *grid.shape)).  A space's sampler
takes one generator per point and returns the stacked points; its norm and
every functional F take a stack and return one value per point.  Trials
are drawn from their own per-trial streams, seeded in bulk by _pcg64_states,
and evaluated _CHUNK at a time with the per-point arithmetic of a one-point
evaluation, so a certificate does not depend on how the trials are grouped.

Two estimate conventions coexist on purpose.  run_trial reports pass/fail
with a round-off allowance (tol_trial), so exact boundary cases read as
passes.  The bisection inside estimate_modulus scores trials with no
allowance at all, so the certified modulus never overstates what the
samples support.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .grid import Grid, _sobolev_norms

__all__ = [
    "HyperconvexityTrial",
    "ConvexityCertificate",
    "SampledSpace",
    "SamplerConfig",
    "real_line_space",
    "grid_function_space",
    "run_trial",
    "estimate_modulus",
    "check_sum_lemma",
]

#: Relative round-off allowance for the pass/fail verdict of a single trial.
TRIAL_TOL_REL = 1e-10

#: Interpolation weights probed deterministically before the random draws.
_THETA_PROBES = (0.5, 0.01, 0.99)

_BISECTION_ITERS = 40

#: The band of target norms grid_function_space draws from.
_NORM_LOW = 0.1
_NORM_HIGH = 10.0

#: Trials drawn and evaluated together.  A small chunk keeps its edge
#: arrays in cache and the memory flat: on a 31x31 grid, chunks of 16 ran
#: fastest, chunks of 8 about 11% slower and of 4, 32 and 64 about a third.
_CHUNK = 16

#: Trials whose streams are seeded together, a multiple of _CHUNK: the seed
#: arithmetic is vectorised over a block, and memory stays flat at any count.
_SEED_BLOCK = 16 * _CHUNK

#: PCG64's 128-bit LCG multiplier, and its state record with no buffered output.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_FRESH = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}

#: A functional or norm on a stack of points: one value per point.
Stacked = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class HyperconvexityTrial:
    """One evaluated instance of the hyperconvexity inequality."""

    x: Any
    y: Any
    theta: float
    gamma: float
    c: float
    defect: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ConvexityCertificate:
    """Aggregate verdict over a batch of sampled trials."""

    trials: int
    failures: int
    c_estimate: float
    seed: int
    gamma: float
    worst_defect: float

    @property
    def passed(self) -> bool:
        return self.failures == 0 and self.c_estimate > 0.0


@dataclass(frozen=True)
class SampledSpace:
    """Point sampler plus the declared norm of the tested space.

    sample draws one point from each generator and returns them stacked;
    norm maps a stack of points to their norms.
    """

    sample: Callable[[Sequence[np.random.Generator]], np.ndarray]
    norm: Stacked


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: seed, trial count, and the space."""

    seed: int
    trials: int
    space: SampledSpace

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")


def real_line_space(scale: float = 1.0) -> SampledSpace:
    """Scalar points drawn from N(0, scale**2); norm is |.|."""
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")

    def sample(rngs: Sequence[np.random.Generator]) -> np.ndarray:
        return np.array([rng.normal(0.0, scale) for rng in rngs])

    return SampledSpace(sample=sample, norm=np.abs)


def grid_function_space(grid: Grid, p: float) -> SampledSpace:
    """Gaussian nodal arrays rescaled so sobolev_norm(., p) lands in a band.

    The target norm is log-uniform in [_NORM_LOW, _NORM_HIGH], which
    exercises both the small-gradient and the large-gradient regime of the
    two phases.  Each generator draws its point's values, then its target norm.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"norm exponent p must be finite and >= 1, got {p}")
    log_low, log_high = np.log(_NORM_LOW), np.log(_NORM_HIGH)

    def norm(points: np.ndarray) -> np.ndarray:
        return _sobolev_norms(points, grid, p)

    def sample(rngs: Sequence[np.random.Generator]) -> np.ndarray:
        values = np.empty((len(rngs),) + grid.shape)
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=values[k])
        bases = norm(values)
        for k in np.flatnonzero(bases == 0.0):  # pragma: no cover - measure-zero draw
            while bases[k] == 0.0:
                rngs[k].standard_normal(out=values[k])
                bases[k] = norm(values[k][None])[0]
        # np.exp on the array rounds each draw as np.exp on the scalar does.
        targets = np.exp([rng.uniform(log_low, log_high) for rng in rngs])
        values *= (targets / bases).reshape((-1,) + (1,) * grid.n)
        return values

    return SampledSpace(sample=sample, norm=norm)


def _default_norm(points: np.ndarray) -> np.ndarray:
    if points.ndim == 1:
        return np.abs(points)
    raise TypeError(
        "pass the space's norm explicitly for non-scalar points "
        "(e.g. norm=grid_function_space(grid, p).norm)"
    )


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent in Python floats, one at a time; overflow gives inf.

    Python's float power is the C library's pow, which numpy's vector power
    need not match bit for bit; the certificates keep the scalar rounding.
    """
    out = np.empty(len(values))
    for k, v in enumerate(values.tolist()):
        try:
            out[k] = v**exponent
        except OverflowError:
            out[k] = math.inf
    return out


def _trial_parts(
    F: Stacked,
    x: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    gamma: float,
    dist: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convexity gaps, penalty bases, and magnitude scales for a chunk.

    x and y are stacks of points, theta their weights and dist the norms
    of x - y.
    """
    t = theta.reshape((-1,) + (1,) * (x.ndim - 1))
    fx = np.asarray(F(x), dtype=float)
    fy = np.asarray(F(y), dtype=float)
    mix = t * x
    mix += (1.0 - t) * y
    fc = np.asarray(F(mix), dtype=float)
    gap = theta * fx + (1.0 - theta) * fy - fc
    basis = np.minimum(theta, 1.0 - theta) * _powers(dist, gamma)
    scale = np.abs(fx) + np.abs(fy) + np.abs(fc)
    return gap, basis, scale


def run_trial(
    F: Stacked,
    x: Any,
    y: Any,
    theta: float,
    gamma: float,
    c: float,
    norm: Stacked | None = None,
) -> HyperconvexityTrial:
    """Evaluate the hyperconvexity defect for one (x, y, theta) triple.

    x and y are single points; F and norm take stacks of points, and the
    triple is evaluated as a stack of one.  The defect is the inequality's
    left side minus its right side; the trial passes when defect >= -tol
    with tol = 1e-10 times the magnitude of the three functional values, so
    exact boundary cases are not lost to round-off.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if not c > 0.0:
        raise ValueError(f"the modulus must be strictly positive, got c={c}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if norm is None:
        norm = _default_norm
    xs = np.asarray(x, dtype=float)[None]
    ys = np.asarray(y, dtype=float)[None]
    gap, basis, scale = (
        float(part[0])
        for part in _trial_parts(F, xs, ys, np.array([theta]), gamma, norm(xs - ys))
    )
    defect = gap - c * basis
    tol = TRIAL_TOL_REL * scale
    return HyperconvexityTrial(
        x=x,
        y=y,
        theta=theta,
        gamma=gamma,
        c=c,
        defect=defect,
        tol=tol,
        passed=bool(defect >= -tol),
    )


def _pcg64_states(seed: int, indices: range) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of SeedSequence(entropy=seed, spawn_key=(i,)) for i in indices.

    numpy's SeedSequence (frozen by its stream policy, NEP 19) on uint32 arrays:
    the seed's words padded to the pool size 4, then the spawn-key word, hashed
    and mixed into 4 words that yield w0..w3.  PCG64 seeds inc = (w2:w3 << 1) | 1
    and state = (inc + w0:w1) * MULT + inc, both mod 2**128.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(len(indices), w, np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(indices.start, indices.stop, dtype=np.uint32))
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value *= const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = 0xCA01F9DD * x - 0x4973F715 * y
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    const, mult = 0x8B51F9DD, 0x58F38DED
    half = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    w0, w1, w2, w3 = ((half[k] | half[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2))
    incs = [((hi << 64 | lo) << 1 | 1) % 2**128 for hi, lo in zip(w2, w3)]
    starts = [hi << 64 | lo for hi, lo in zip(w0, w1)]
    return [(((inc + s) * _PCG64_MULT + inc) % 2**128, inc) for inc, s in zip(incs, starts)]


def _check_finite(gamma: float, gap: np.ndarray, basis: np.ndarray, scale: np.ndarray) -> None:
    if not np.all(np.isfinite(basis)):
        raise ValueError(f"gamma = {gamma:g}: the penalty basis ||x - y||**gamma is not finite")
    if not (np.all(np.isfinite(gap)) and np.all(np.isfinite(scale))):
        raise ValueError(f"gamma = {gamma:g}: the functional is not finite on a sampled triple")


def _sample_triples(
    config: SamplerConfig, gamma: float, F: Stacked
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaps, penalty bases, and scales over the configured trial batch.

    Trial i draws from its own stream, numpy's PCG64 seeded by
    SeedSequence(entropy=seed, spawn_key=(i,)): theta (past the probes), then
    x, then y, then any redraws of a y that coincides with x.  Raises
    ValueError when a basis or a functional value is not finite.
    """
    space = config.space
    gaps = np.empty(config.trials)
    bases = np.empty(config.trials)
    scales = np.empty(config.trials)
    # Generator slots whose bit generators take each trial's state in turn.
    slots = [np.random.Generator(np.random.PCG64(0)) for _ in range(min(_CHUNK, config.trials))]
    for first in range(0, config.trials, _SEED_BLOCK):
        block = range(first, min(first + _SEED_BLOCK, config.trials))
        states = _pcg64_states(config.seed, block)
        for start in range(0, len(block), _CHUNK):
            chunk = block[start : start + _CHUNK]
            rngs = slots[: len(chunk)]
            for rng, (state, inc) in zip(rngs, states[start : start + _CHUNK]):
                rng.bit_generator.state = dict(_PCG64_FRESH, state={"state": state, "inc": inc})
            theta = np.array(
                [
                    _THETA_PROBES[i] if i < len(_THETA_PROBES) else rng.uniform(1e-3, 1.0 - 1e-3)
                    for i, rng in zip(chunk, rngs)
                ]
            )
            x = space.sample(rngs)
            y = space.sample(rngs)
            dist = space.norm(x - y)
            for k in np.flatnonzero(dist == 0.0):
                for _ in range(100):
                    y[k] = space.sample([rngs[k]])[0]
                    dist[k] = space.norm(x[k : k + 1] - y[k : k + 1])[0]
                    if dist[k] != 0.0:
                        break
                else:
                    raise RuntimeError("sampler keeps producing coincident points")
            parts = _trial_parts(F, x, y, theta, gamma, dist)
            _check_finite(gamma, *parts)
            window = slice(chunk.start, chunk.stop)
            gaps[window], bases[window], scales[window] = parts
    return gaps, bases, scales


def estimate_modulus(F: Stacked, gamma: float, config: SamplerConfig) -> ConvexityCertificate:
    """Estimate the largest modulus the sampled trials support.

    F maps a stack of points to one value per point.  Bisection on c over
    [0, c_hi] with c_hi ten times the largest observed convexity-gap ratio;
    a candidate passes only if every sampled defect is >= 0 with no
    round-off allowance, so the estimate errs low.  failures counts trials
    whose plain convexity gap is negative, i.e. trials no positive modulus
    can satisfy; any such trial pins c_estimate at 0.  Raises ValueError
    when a penalty basis or a functional value is not finite.
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    gaps, bases, _ = _sample_triples(config, gamma, F)
    failures = int(np.count_nonzero(gaps < 0.0))
    ratios = gaps / bases
    c_hi = 10.0 * float(ratios.max(initial=0.0))
    lo = 0.0
    if c_hi > 0.0 and np.all(gaps >= 0.0):
        hi = c_hi
        for _ in range(_BISECTION_ITERS):
            mid = 0.5 * (lo + hi)
            if np.all(gaps - mid * bases >= 0.0):
                lo = mid
            else:
                hi = mid
    worst = float(np.min(gaps - lo * bases))
    return ConvexityCertificate(
        trials=config.trials,
        failures=failures,
        c_estimate=lo,
        seed=config.seed,
        gamma=gamma,
        worst_defect=worst,
    )


def check_sum_lemma(
    h_cert: ConvexityCertificate,
    g_cert: ConvexityCertificate,
    F_sum: Stacked,
    config: SamplerConfig,
) -> ConvexityCertificate:
    """Certify that h + g inherits h's hyperconvexity exponent and modulus.

    Given a passing certificate for h at gamma = p and one for g at
    gamma = q < p with strictly positive modulus, the sum must pass
    p-hyperconvexity trials with h's modulus unchanged: the q-growth term
    only adds a nonnegative amount to every defect.  Run with the same
    sampler config that produced h's certificate so the trials line up.
    F_sum takes a stack of points, as in estimate_modulus, and the same
    non-finite values raise ValueError.
    """
    if not h_cert.passed:
        raise ValueError("h's certificate must pass before the sum can be checked")
    if not (g_cert.passed and g_cert.c_estimate > 0.0):
        raise ValueError(
            "g's certificate must pass with a strictly positive modulus; "
            "a zero modulus is plain convexity and proves nothing here"
        )
    if not g_cert.gamma < h_cert.gamma:
        raise ValueError(
            f"need g's exponent below h's, got gamma_g={g_cert.gamma} "
            f">= gamma_h={h_cert.gamma}"
        )
    c = h_cert.c_estimate
    gaps, bases, scales = _sample_triples(config, h_cert.gamma, F_sum)
    defects = gaps - c * bases
    tols = TRIAL_TOL_REL * scales
    failing = int(np.count_nonzero(defects < -tols))
    return ConvexityCertificate(
        trials=config.trials,
        failures=failing,
        c_estimate=c if failing == 0 else 0.0,
        seed=config.seed,
        gamma=h_cert.gamma,
        worst_defect=float(defects.min()),
    )

