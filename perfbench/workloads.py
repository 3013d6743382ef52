"""Seeded inputs, configs and output checks for the four benchmark workloads.

Each workload turns (seed, index) into one input: a config file plus the
CSV fields it names, written under the run's work directory.  The program
sees only those files.  Seeded variation is kept to about one percent
around a base problem (plus, where the problem is symmetric, a seeded
orientation), so that every input exercises the same mechanism.  The
descent iteration counts still vary by 10-20% between inputs, because the
Barzilai-Borwein step reacts chaotically to small changes; that is why a run
reports medians over several inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checker

STRICT_Q = 4.0 / 3.0  # with n = 2 the strict coupling gives p = 4
EPSILON = 1e-4
PERTURB = 0.01


@dataclass(frozen=True)
class Input:
    command: str
    config: str
    out: str
    check: Callable[[str], list[str]]


def _rng(seed: int, workload: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, index])


def _mesh(m: int) -> tuple[np.ndarray, np.ndarray]:
    axis = checker.spacing(m) * np.arange(1, m + 1, dtype=float)
    return np.meshgrid(axis, axis, indexing="ij")


def _sine_modes(rng: np.random.Generator, x: np.ndarray, y: np.ndarray, modes: int) -> np.ndarray:
    """Smooth zero-boundary field: sum of sin(k pi x) sin(l pi y) / (k l)."""
    out = np.zeros_like(x)
    for k in range(1, modes + 1):
        for l in range(1, modes + 1):
            out += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * x) * np.sin(l * np.pi * y) / (k * l)
    return out


def _ramp_weight(rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-phase weight: zero on one side of a cut near the middle, rising to ~2.

    The side and the axis of the cut are seeded; the problem is symmetric
    under those choices, so they vary the input without changing its cost.
    """
    coord = (x, y, 1.0 - x, 1.0 - y)[int(rng.integers(4))]
    cut = 0.5 + PERTURB * rng.uniform(-1.0, 1.0)
    top = 2.0 * (1.0 + PERTURB * rng.uniform(-1.0, 1.0))
    return top * np.maximum(0.0, coord - cut) / (1.0 - cut)


def _floor_weight(rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weight bounded below by 0.5: 0.5 + a seeded smooth nonnegative bump."""
    a, b = 1.0 + PERTURB * rng.uniform(-1.0, 1.0, size=2)
    return 0.5 + 0.5 * a * x * y + 0.25 * b * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2


def _write_config(path: str, entries: dict[str, object]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def _problem(p: float, q: float, weight: np.ndarray, forcing: np.ndarray) -> checker.Problem:
    return checker.Problem(p, q, EPSILON, checker.edge_weights(weight), forcing)


def _read_trace(path: str) -> list[float]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: iteration column is not 0..N-1")
    return [float(v) for v in data[:, 1]]


def _files(base: str, index: int) -> tuple[str, str]:
    folder = os.path.join(base, f"input{index}")
    os.makedirs(folder, exist_ok=True)
    return folder, os.path.join(folder, "run.cfg")


# ---------------------------------------------------------------------------


def solve_coarse(seed: int, index: int, base: str) -> Input:
    """Strict p = 4 solve on a 7x7 grid; weight zero on part of the box."""
    m, tol = 7, 1e-6
    rng = _rng(seed, 1, index)
    x, y = _mesh(m)
    weight = _ramp_weight(rng, x, y)
    forcing = np.sin(np.pi * x) * np.sin(np.pi * y) + PERTURB * _sine_modes(rng, x, y, 3)
    folder, config = _files(base, index)
    checker.write_nodal_csv(os.path.join(folder, "weight.csv"), weight)
    checker.write_nodal_csv(os.path.join(folder, "forcing.csv"), forcing)
    _write_config(config, {
        "command": "solve", "grid.n": 2, "grid.m": m, "exponents.q": "4/3",
        "exponents.mode": "strict", "exponents.epsilon": EPSILON,
        "weight.kind": "csv", "weight.path": os.path.join(folder, "weight.csv"),
        "forcing.kind": "csv", "forcing.path": os.path.join(folder, "forcing.csv"),
        "solver.tol": tol, "dump_energy_trace": "true", "seed": index,
    })
    prob = _problem(4.0, STRICT_Q, weight, forcing)

    def check(out: str) -> list[str]:
        report = checker.read_record(os.path.join(out, "report.txt"))
        u = checker.read_nodal_csv(os.path.join(out, "u.csv"), m, 2)
        trace = _read_trace(os.path.join(out, "energy_trace.csv"))
        return checker.check_solve(prob, tol, report, u, trace)

    return Input("solve", config, os.path.join(folder, "out"), check)


def solve_fine(seed: int, index: int, base: str) -> Input:
    """Relaxed p = 3, q = 2 solve on a 63x63 grid against a manufactured solution."""
    m, tol = 63, 1e-6
    rng = _rng(seed, 2, index)
    x, y = _mesh(m)
    weight = _floor_weight(rng, x, y)
    u_exact = np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + PERTURB * rng.uniform(-1.0, 1.0) * x)
    u_exact = u_exact + PERTURB * _sine_modes(rng, x, y, 2)
    manufactured = _problem(3.0, 2.0, weight, np.zeros_like(x))
    forcing = manufactured.operator(u_exact)
    folder, config = _files(base, index)
    checker.write_nodal_csv(os.path.join(folder, "weight.csv"), weight)
    checker.write_nodal_csv(os.path.join(folder, "forcing.csv"), forcing)
    _write_config(config, {
        "command": "solve", "grid.n": 2, "grid.m": m, "exponents.q": 2,
        "exponents.p": 3, "exponents.mode": "relaxed", "exponents.epsilon": EPSILON,
        "weight.kind": "csv", "weight.path": os.path.join(folder, "weight.csv"),
        "forcing.kind": "csv", "forcing.path": os.path.join(folder, "forcing.csv"),
        "solver.tol": tol, "seed": index,
    })
    prob = _problem(3.0, 2.0, weight, forcing)

    def check(out: str) -> list[str]:
        report = checker.read_record(os.path.join(out, "report.txt"))
        u = checker.read_nodal_csv(os.path.join(out, "u.csv"), m, 2)
        return checker.check_solve(prob, tol, report, u, None, u_exact=u_exact)

    return Input("solve", config, os.path.join(folder, "out"), check)


def control(seed: int, index: int, base: str) -> Input:
    """Tracking control on a strict 7x7 grid with a weight bounded away from zero.

    The target forcing has amplitude ~60: at that size the outer loop takes
    13 to 17 iterations on every seed tried, while amplitudes near 20 gave
    occasional runs of hundreds of outer iterations.
    """
    m, tol, alpha, tol_reduced, cg_tol = 7, 1e-8, 1e-6, 1e-5, 1e-10
    rng = _rng(seed, 3, index)
    x, y = _mesh(m)
    weight = _floor_weight(rng, x, y)
    b, c, d = PERTURB * rng.uniform(-1.0, 1.0, size=3)
    target = 60.0 * (1.0 + b) * (
        np.sin(np.pi * x) * np.sin(np.pi * y)
        + c * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        + d * np.sin(np.pi * x) * np.sin(2 * np.pi * y)
    )
    folder, config = _files(base, index)
    checker.write_nodal_csv(os.path.join(folder, "weight.csv"), weight)
    checker.write_nodal_csv(os.path.join(folder, "forcing.csv"), target)
    _write_config(config, {
        "command": "control", "grid.n": 2, "grid.m": m, "exponents.q": "4/3",
        "exponents.mode": "strict", "exponents.epsilon": EPSILON,
        "weight.kind": "csv", "weight.path": os.path.join(folder, "weight.csv"),
        "forcing.kind": "csv", "forcing.path": os.path.join(folder, "forcing.csv"),
        "solver.tol": tol, "control.alpha": alpha, "control.tol_reduced": tol_reduced,
        "control.cg_tol": cg_tol, "seed": index,
    })
    prob = _problem(4.0, STRICT_Q, weight, target)

    def check(out: str) -> list[str]:
        report = checker.read_record(os.path.join(out, "report.txt"))
        f_star = checker.read_nodal_csv(os.path.join(out, "f_star.csv"), m, 2)
        u_star = checker.read_nodal_csv(os.path.join(out, "u_star.csv"), m, 2)
        return checker.check_control(prob, alpha, tol, cg_tol, report, f_star, u_star)

    return Input("control", config, os.path.join(folder, "out"), check)


#: Bisection resolution of the certified modulus: the program bisects 40
#: times on [0, c_hi] with c_hi = 10 * (largest sampled gap ratio), so 1e-6
#: covers any c_hi up to about 1e6 (see the README).
CONVEXITY_RESOLUTION = 1e-6


def convexity(seed: int, index: int, base: str) -> Input:
    """Convexity sampling on a strict 31x31 grid with a two-phase weight."""
    m, trials = 31, 2000
    rng = _rng(seed, 4, index)
    x, y = _mesh(m)
    weight = _ramp_weight(rng, x, y)
    folder, config = _files(base, index)
    checker.write_nodal_csv(os.path.join(folder, "weight.csv"), weight)
    _write_config(config, {
        "command": "convexity", "grid.n": 2, "grid.m": m, "exponents.q": "4/3",
        "exponents.mode": "strict", "exponents.epsilon": EPSILON,
        "weight.kind": "csv", "weight.path": os.path.join(folder, "weight.csv"),
        "convexity.trials": trials, "seed": int(rng.integers(2**31)),
    })

    def check(out: str) -> list[str]:
        record = checker.read_record(os.path.join(out, "certificate.txt"))
        return checker.check_convexity(record, trials, CONVEXITY_RESOLUTION)

    return Input("convexity", config, os.path.join(folder, "out"), check)


#: name -> (input builder, distinct inputs per round).  A round runs inputs
#: 0..K-1 and then input 0 again, so every round reruns one input and
#: compares its artifacts byte for byte.
WORKLOADS: dict[str, tuple[Callable[[int, int, str], Input], int]] = {
    "solve-coarse": (solve_coarse, 10),
    "solve-fine": (solve_fine, 4),
    "control": (control, 12),
    "convexity": (convexity, 4),
}
