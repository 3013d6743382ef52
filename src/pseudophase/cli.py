"""Command-line front end: config parsing, dispatch, deterministic artifacts.

Config files are flat ``key = value`` text with dotted section prefixes
(grid.m, exponents.q, ...); command-line flags override file values.
Each key is one row of ``_KEYS`` (type, default, allowed values), and
``_parse`` checks every value, from a file or a flag (``_FLAGS``), against it.
Reports are line-oriented key/value records so acceptance fixtures can be
diffed byte for byte; wall time is echoed to stdout only, never written
into an artifact, to keep reruns bit-identical.
"""

from __future__ import annotations

import argparse
import encodings.ascii  # noqa: F401  the artifacts' codec: loaded here, not by the first write
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .control import ControlConfig, optimize_control, tracking_objective
from .convexity import SamplerConfig, estimate_modulus, grid_function_space
from .energy import (
    DEFAULT_EPS_REG,
    Exponents,
    WeightField,
    apply_divergence_operator,
    apply_pseudo_operator,
    _energy_terms,
    _hessian_coeff,
    energy,
    validate_exponents,
)
from .errors import CGBreakdownError, ConfigError, InnerSolveError, SingularLinearizationError
from .grid import Grid, GridFunction, inner_product, read_grid_function, write_grid_function
from .solver import SolverConfig, solve_inner

__all__ = ["RunConfig", "parse_config", "run", "main"]

@dataclass(frozen=True)
class RunConfig:
    """The records one run needs, plus every key's parsed value by name."""

    grid: Grid
    exponents: Exponents
    solver: SolverConfig
    control: ControlConfig
    keys: Mapping[str, object]

    def __getitem__(self, key: str) -> object:
        return self.keys[key]


def _parse(key: str, value: object) -> object:
    """Check one value against its key's row; file text parses by the key's type."""
    kind, _, choices = _KEYS[key]
    if isinstance(value, str) and kind is not str:
        text = value.strip()
        try:
            if kind is bool:
                value = {"true": True, "false": False}[text.lower()]
            elif kind is int:
                value = int(text)
            else:
                num, slash, den = text.partition("/")
                value = float(num) / float(den) if slash else float(text)
        except (KeyError, ValueError, ZeroDivisionError):
            raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{key}: must be one of {', '.join(choices)}, got {value!r}")
    return value


@contextmanager
def _section(name: str):
    """Re-raise a ValueError, or an input file's OSError, as a ConfigError naming name."""
    try:
        yield
    except (ValueError, OSError) as err:
        raise ConfigError(f"{name}: {err}") from err


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def parse_config(
    path: str | None = None, overrides: dict[str, object] | None = None
) -> RunConfig:
    """Merge file values and overrides into a fully validated RunConfig."""
    given: dict[str, object] = {}
    if path is not None:
        given.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            given[key] = value
    for key in _REQUIRED:
        if key not in given:
            raise ConfigError(f"{key}: required")
    given = {key: _parse(key, value) for key, value in given.items()}
    if "exponents.p" in given and "exponents.mode" not in given:
        given["exponents.mode"] = "relaxed"
    keys = {key: given.get(key, default) for key, (_, default, _) in _KEYS.items()}

    for key, low in _AT_LEAST.items():
        if keys[key] is not None and keys[key] < low:
            raise ConfigError(f"{key}: must be >= {low}, got {keys[key]}")
    for section in ("weight", "forcing"):
        path_key = f"{section}.path"
        if keys[f"{section}.kind"] == "csv":
            if not keys[path_key]:
                raise ConfigError(f"{path_key}: required when {section}.kind = csv")
            # Not opened here: a pipe would be consumed before the run reads it.
            if not os.path.exists(keys[path_key]) or os.path.isdir(keys[path_key]):
                raise ConfigError(f"{path_key}: file not found: {keys[path_key]}")

    with _section("grid"):
        grid = Grid(n=keys["grid.n"], m=keys["grid.m"])
    with _section("exponents"):
        exponents = validate_exponents(
            keys["exponents.q"],
            grid.n,
            keys["exponents.mode"],
            keys["exponents.p"],
            eps_reg=keys["exponents.epsilon"],
        )
    with _section("solver"):
        solver = SolverConfig(tol_grad=keys["solver.tol"], max_iters=keys["solver.max_iters"])
    with _section("control"):
        control = ControlConfig(
            inner=solver,
            tol_reduced=keys["control.tol_reduced"],
            max_outer=keys["control.max_outer"],
            cg_tol=keys["control.cg_tol"],
        )
    return RunConfig(grid, exponents, solver, control, keys)


def _build_weight(config: RunConfig) -> WeightField:
    grid, mu1 = config.grid, config["weight.mu1"]
    with _section("weight"):
        if config["weight.kind"] == "constant":
            return WeightField.constant(grid, config["weight.mu0"], mu1)
        if config["weight.kind"] == "ramp":
            return WeightField.ramp(grid, mu1 if mu1 is not None else 1.0)
        nodal = read_grid_function(config["weight.path"], grid)
        return WeightField.from_nodal(grid, nodal, mu1)


def _build_forcing(config: RunConfig) -> GridFunction:
    grid = config.grid
    with _section("forcing"):
        if config["forcing.kind"] == "constant":
            return GridFunction.full(grid, config["forcing.value"])
        if config["forcing.kind"] == "preset":
            if config["forcing.preset"] == "sine":
                if grid.n == 1:
                    return GridFunction.from_callable(grid, lambda x: np.sin(np.pi * x))
                return GridFunction.from_callable(
                    grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
                )
            if grid.n == 1:
                return GridFunction.from_callable(grid, lambda x: x * (1.0 - x))
            return GridFunction.from_callable(
                grid, lambda x, y: x * (1.0 - x) * y * (1.0 - y)
            )
        return read_grid_function(config["forcing.path"], grid)


#: The weight key that sets the largest edge weight, per weight kind.
_WEIGHT_KEY = {"constant": "weight.mu0", "ramp": "weight.mu1", "csv": "weight.path"}


def _check_attainable(config: RunConfig, mu: WeightField, f: GridFunction) -> None:
    """Reject a solve whose tolerance or Hessian the floats cannot carry.

    Near a solution A(u)_k - f_k is the difference of two floats of size
    |f_k|, so it is known only to about eps_mach |f_k|: a solver.tol below
    eps_mach max|f| cannot be met.  The Hessian coefficient at a zero
    gradient grows with the weight (mu eps^(q-2) for q < 2); at the largest
    edge weight it must be finite.  It names exponents.epsilon instead when
    a unit weight already overflows it.
    """
    size = float(np.abs(f.values).max())
    floor = float(np.finfo(float).eps) * size
    if config["solver.tol"] < floor:
        raise ConfigError(
            f"solver.tol: {config['solver.tol']:g} is below eps_mach x max|f| = {floor:.3g} "
            f"for a forcing of size {size:.3g}; the residual cannot be resolved that finely"
        )
    mu_max = float(mu.edges.max())
    if mu_max > 0.0:
        with np.errstate(all="ignore"):
            unit, top = _hessian_coeff(np.zeros(2), np.array([1.0, mu_max]), config.exponents)
        if not math.isfinite(top):
            key = _WEIGHT_KEY[config["weight.kind"]] if math.isfinite(unit) else "exponents.epsilon"
            raise ConfigError(
                f"{key}: the Hessian coefficient at a zero gradient overflows for the largest "
                f"edge weight {mu_max:g} at epsilon {config.exponents.eps_reg:g}"
            )


def _artifact(config: RunConfig, name: str) -> str:
    """Path of one artifact; the output directory is made when the first is written."""
    try:
        os.makedirs(config["out"], exist_ok=True)
    except OSError as err:
        raise ConfigError(f"out: {err}") from None
    return os.path.join(config["out"], name)


def _write_record(path: str, fields: list[tuple[str, object]]) -> None:
    lines = []
    for key, value in fields:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _probe_field(grid: Grid) -> GridFunction:
    # Anisotropic profile: quadratic along x, sinusoidal along y.
    if grid.n == 1:
        return GridFunction.from_callable(grid, lambda x: x * (1.0 - x))
    return GridFunction.from_callable(
        grid, lambda x, y: x * (1.0 - x) * np.sin(np.pi * y)
    )


def _cmd_exponents(config: RunConfig) -> int:
    e = config.exponents
    _write_record(
        _artifact(config, "exponents.txt"),
        [
            ("command", "exponents"),
            ("n", e.n),
            ("q", e.q),
            ("p", e.p),
            ("mode", "strict" if e.strict_sobolev else "relaxed"),
            ("epsilon", e.eps_reg),
        ],
    )
    return 0


def _cmd_solve(config: RunConfig) -> int:
    mu = _build_weight(config)
    f = _build_forcing(config)
    _check_attainable(config, mu, f)
    report = solve_inner(f, mu, config.exponents, config.solver)
    write_grid_function(report.u_star, _artifact(config, "u.csv"))
    breakdown = energy(report.u_star, f, mu, config.exponents)
    _write_record(
        _artifact(config, "report.txt"),
        [
            ("command", "solve"),
            ("n", config.grid.n),
            ("m", config.grid.m),
            ("p", config.exponents.p),
            ("q", config.exponents.q),
            ("epsilon", config.exponents.eps_reg),
            ("seed", config["seed"]),
            ("converged", report.converged),
            ("status", report.status),
            ("iterations", report.iterations),
            ("matvecs", report.matvecs),
            ("final_grad_norm", report.final_grad_norm),
            ("weak_check", report.weak_check),
            ("energy_total", breakdown.total),
        ],
    )
    if config["dump_energy_trace"]:
        trace_path = _artifact(config, "energy_trace.csv")
        with open(trace_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("iteration,energy\n")
            for i, value in enumerate(report.energy_trace):
                fh.write(f"{i},{value:.17g}\n")
    return 0 if report.converged else 2


def _cmd_compare_ops(config: RunConfig) -> int:
    mu = _build_weight(config)
    u = _probe_field(config.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        a = apply_pseudo_operator(u, mu, config.exponents)
        b = apply_divergence_operator(u, mu, config.exponents)
        diff = a - b
        l2_gap = inner_product(diff, diff) ** 0.5
        l2_ref = inner_product(a, a) ** 0.5
    fields = [
        ("command", "compare-ops"),
        ("n", config.grid.n),
        ("m", config.grid.m),
        ("p", config.exponents.p),
        ("q", config.exponents.q),
        ("l2_gap", l2_gap),
        ("max_gap", float(np.max(np.abs(diff.values)))),
        ("rel_l2_gap", l2_gap / l2_ref if l2_ref > 0.0 else 0.0),
    ]
    for key, value in fields:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"compare-ops: {key} = {value}: the operator values overflow")
    _write_record(_artifact(config, "gap.txt"), fields)
    return 0


def _cmd_convexity(config: RunConfig) -> int:
    mu = _build_weight(config)
    e = config.exponents
    grid = config.grid
    gamma = config["convexity.gamma"] if config["convexity.gamma"] is not None else e.p

    def functional(points: np.ndarray) -> np.ndarray:
        # J at zero forcing: no load term.
        p_term, q_term = _energy_terms(points, mu, e)
        return p_term + q_term

    sampler = SamplerConfig(
        seed=config["seed"],
        trials=config["convexity.trials"],
        space=grid_function_space(grid, e.p),
    )
    with _section("convexity"):
        cert = estimate_modulus(functional, gamma, sampler)
    _write_record(
        _artifact(config, "certificate.txt"),
        [
            ("seed", cert.seed),
            ("N", cert.trials),
            ("gamma", cert.gamma),
            ("c_estimate", cert.c_estimate),
            ("failures", cert.failures),
            ("worst_defect", cert.worst_defect),
        ],
    )
    return 0


def _cmd_control(config: RunConfig) -> int:
    mu = _build_weight(config)
    e = config.exponents
    grid = config.grid
    f_hat = _build_forcing(config)
    _check_attainable(config, mu, f_hat)
    u_d = solve_inner(f_hat, mu, e, config.solver)
    if not u_d.converged:
        print("error: forward solve for the tracking target did not converge", file=sys.stderr)
        return 2
    obj = tracking_objective(u_d.u_star, config["control.alpha"])
    report = optimize_control(obj, GridFunction.zeros(grid), mu, e, config.control)
    write_grid_function(report.f_star, _artifact(config, "f_star.csv"))
    write_grid_function(report.u_star, _artifact(config, "u_star.csv"))
    _write_record(
        _artifact(config, "report.txt"),
        [
            ("command", "control"),
            ("n", grid.n),
            ("m", grid.m),
            ("p", e.p),
            ("q", e.q),
            ("alpha", config["control.alpha"]),
            ("seed", config["seed"]),
            ("converged", report.converged),
            ("status", report.status),
            ("outer_iters", report.outer_iters),
            ("matvecs", report.matvecs),
            ("adjoint_matvecs", report.adjoint_matvecs),
            ("trial_solves", report.trial_solves),
            ("model_cg_iters", report.model_cg_iters),
            ("model_matvecs", report.model_matvecs),
            ("stationarity", report.stationarity),
            ("objective", report.objective_trace[-1]),
        ],
    )
    return 0 if report.converged else 2


#: Each command's function, in the order the choices are listed.
_COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "solve": _cmd_solve,
    "compare-ops": _cmd_compare_ops,
    "convexity": _cmd_convexity,
    "control": _cmd_control,
    "exponents": _cmd_exponents,
}

#: Every config key: (type, default, allowed values or None).  A default of
#: None leaves the key unset; the two keys in _REQUIRED must be given.
_KEYS: dict[str, tuple[type, object, tuple[str, ...] | None]] = {
    "command": (str, None, tuple(_COMMANDS)),
    "seed": (int, 0, None),
    "out": (str, "out", None),
    "dump_energy_trace": (bool, False, None),
    "grid.n": (int, 1, None),
    "grid.m": (int, 15, None),
    "exponents.q": (float, None, None),
    "exponents.p": (float, None, None),
    "exponents.mode": (str, "strict", ("strict", "relaxed")),
    "exponents.epsilon": (float, DEFAULT_EPS_REG, None),
    "weight.kind": (str, "constant", ("constant", "ramp", "csv")),
    "weight.mu0": (float, 1.0, None),
    "weight.mu1": (float, None, None),
    "weight.path": (str, None, None),
    "forcing.kind": (str, "constant", ("constant", "preset", "csv")),
    "forcing.value": (float, 1.0, None),
    "forcing.preset": (str, "sine", ("sine", "bump")),
    "forcing.path": (str, None, None),
    # Looser than SolverConfig's own default tol_grad = 1e-8.
    "solver.tol": (float, 1e-6, None),
    "solver.max_iters": (int, SolverConfig.max_iters, None),
    "control.alpha": (float, 1e-6, None),
    "control.tol_reduced": (float, ControlConfig.tol_reduced, None),
    "control.max_outer": (int, ControlConfig.max_outer, None),
    "control.cg_tol": (float, ControlConfig.cg_tol, None),
    "convexity.trials": (int, 1000, None),
    "convexity.gamma": (float, None, None),
}

_REQUIRED = ("command", "exponents.q")

#: Each value flag and the key it sets; its text parses like a file value.
_FLAGS = {
    "--out": "out",
    "--seed": "seed",
    "--m": "grid.m",
    "--n": "grid.n",
    "--q": "exponents.q",
    "--p": "exponents.p",
    "--epsilon": "exponents.epsilon",
    "--tol": "solver.tol",
    "--max-iters": "solver.max_iters",
    "--mu-const": "weight.mu0",
}

#: Each switch and the key and value it sets.
_SWITCHES = {
    "--strict-sobolev": ("exponents.mode", "strict"),
    "--dump-energy-trace": ("dump_energy_trace", "true"),
}

#: Lower bounds of the keys that no record checks when it is built.
_AT_LEAST = {"seed": 0, "control.alpha": 0.0, "convexity.trials": 1, "convexity.gamma": 1.0}


def run(config: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit status."""
    command = config["command"]
    started = time.perf_counter()
    try:
        status = _COMMANDS[command](config)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        # Input reads map to ConfigError in _section: this is an artifact write.
        print(f"error: out: {err}", file=sys.stderr)
        return 1
    except (InnerSolveError, CGBreakdownError, SingularLinearizationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # Wall time goes to stdout only; artifacts stay byte-stable across reruns.
    print(f"{command}: exit {status}, wall_time_s = {time.perf_counter() - started:.3f}")
    return status


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudophase",
        description="Axiswise double-phase solver, operator lab, and control loop",
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS, help="command to run")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for flag, key in _FLAGS.items():
        parser.add_argument(flag, dest=key, metavar=_KEYS[key][0].__name__.upper(), help=key)
    for flag, (key, value) in _SWITCHES.items():
        parser.add_argument(flag, dest=key, action="store_const", const=value, help=f"{key} = {value}")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Every destination but config is a key; an absent flag leaves None.
    overrides = vars(_build_arg_parser().parse_args(argv))
    path = overrides.pop("config")
    if overrides["weight.mu0"] is not None:
        overrides["weight.kind"] = "constant"
    try:
        config = parse_config(path, overrides)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
