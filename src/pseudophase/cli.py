"""Command-line front end: config parsing, dispatch, deterministic artifacts.

Config files are flat ``key = value`` text with dotted section prefixes
(grid.m, exponents.q, ...); command-line flags override file values.
Reports are line-oriented key/value records so acceptance fixtures can be
diffed byte for byte; wall time is echoed to stdout only, never written
into an artifact, to keep reruns bit-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .control import ControlConfig, optimize_control, tracking_objective
from .convexity import SamplerConfig, certificate_record, estimate_modulus, grid_function_space
from .energy import (
    DEFAULT_EPS_REG,
    Exponents,
    WeightField,
    apply_divergence_operator,
    apply_pseudo_operator,
    energy,
    validate_exponents,
)
from .errors import CGBreakdownError, ConfigError, InnerSolveError
from .grid import Grid, GridFunction, quadrature, read_grid_function, write_grid_function
from .solver import SolverConfig, solve_inner

__all__ = ["RunConfig", "parse_config", "run", "main"]

_COMMANDS = ("solve", "compare-ops", "convexity", "control", "exponents")

_KNOWN_KEYS = {
    "command",
    "seed",
    "out",
    "dump_energy_trace",
    "grid.n",
    "grid.m",
    "exponents.q",
    "exponents.p",
    "exponents.mode",
    "exponents.epsilon",
    "weight.kind",
    "weight.mu0",
    "weight.mu1",
    "weight.path",
    "forcing.kind",
    "forcing.value",
    "forcing.preset",
    "forcing.path",
    "solver.tol",
    "solver.max_iters",
    "solver.armijo",
    "solver.backtrack",
    "control.alpha",
    "control.tol_reduced",
    "control.max_outer",
    "control.cg_tol",
    "control.cg_max",
    "convexity.trials",
    "convexity.gamma",
}

_PRESETS = ("sine", "bump")


@dataclass(frozen=True)
class _WeightSpec:
    kind: str = "constant"
    mu0: float = 1.0
    mu1: float | None = None
    path: str | None = None


@dataclass(frozen=True)
class _ForcingSpec:
    kind: str = "constant"
    value: float = 1.0
    preset: str = "sine"
    path: str | None = None


@dataclass(frozen=True)
class _ControlSpec:
    alpha: float = 1e-6
    tol_reduced: float = 1e-5
    max_outer: int = 10_000
    cg_tol: float = 1e-10
    cg_max: int = 0


@dataclass(frozen=True)
class _ConvexitySpec:
    trials: int = 1000
    gamma: float | None = None


@dataclass(frozen=True)
class RunConfig:
    command: str
    grid: Grid
    exponents: Exponents
    weight: _WeightSpec = _WeightSpec()
    forcing: _ForcingSpec = _ForcingSpec()
    solver_tol: float | None = None
    solver_max_iters: int = 50_000
    solver_armijo: float = 1e-4
    solver_backtrack: float = 0.5
    control: _ControlSpec = _ControlSpec()
    convexity: _ConvexitySpec = _ConvexitySpec()
    seed: int = 0
    out: str = "out"
    dump_energy_trace: bool = False

    def solver_config(self) -> SolverConfig:
        tol = self.solver_tol
        if tol is None:
            tol = 1e-8 if self.exponents.is_quadratic else 1e-6
        return SolverConfig(
            tol_grad=tol,
            max_iters=self.solver_max_iters,
            armijo_c=self.solver_armijo,
            backtrack=self.solver_backtrack,
        )


def _parse_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            pass
    return text


def _read_config_file(path: str) -> dict[str, object]:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_scalar(value)
    return values


def _require(kv: dict[str, object], key: str, kind: type, default=None):
    if key not in kv:
        if default is not None:
            return default
        raise ConfigError(f"{key}: required")
    value = kv[key]
    if kind is float and isinstance(value, (int, bool)) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    if not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def _require_finite(key: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {value}")


def parse_config(
    path: str | None = None, overrides: dict[str, object] | None = None
) -> RunConfig:
    """Merge file values and overrides into a fully validated RunConfig."""
    kv: dict[str, object] = {}
    if path is not None:
        kv.update(_read_config_file(path))
    for key, value in (overrides or {}).items():
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            kv[key] = value

    command = _require(kv, "command", str)
    if command not in _COMMANDS:
        raise ConfigError(f"command: must be one of {', '.join(_COMMANDS)}, got {command!r}")

    n = _require(kv, "grid.n", int, default=1)
    m = _require(kv, "grid.m", int, default=15)
    try:
        grid = Grid(n=n, m=m)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    q = float(_require(kv, "exponents.q", float))
    mode = _require(kv, "exponents.mode", str, default="strict")
    p_override = kv.get("exponents.p")
    if p_override is not None:
        p_override = float(p_override)
        if "exponents.mode" not in kv:
            mode = "relaxed"
    epsilon = float(_require(kv, "exponents.epsilon", float, default=DEFAULT_EPS_REG))
    try:
        exponents = validate_exponents(q, grid.n, mode, p_override, eps_reg=epsilon)
    except ValueError as err:
        raise ConfigError(f"exponents: {err}") from err

    weight = _WeightSpec(
        kind=_require(kv, "weight.kind", str, default="constant"),
        mu0=float(_require(kv, "weight.mu0", float, default=1.0)),
        mu1=float(kv["weight.mu1"]) if "weight.mu1" in kv else None,
        path=kv.get("weight.path"),
    )
    _require_finite("weight.mu0", weight.mu0)
    _require_finite("weight.mu1", weight.mu1)
    if weight.kind not in ("constant", "ramp", "csv"):
        raise ConfigError(f"weight.kind: must be constant, ramp, or csv, got {weight.kind!r}")
    if weight.kind == "csv":
        if not weight.path:
            raise ConfigError("weight.path: required when weight.kind = csv")
        if not os.path.isfile(str(weight.path)):
            raise ConfigError(f"weight.path: file not found: {weight.path}")

    forcing = _ForcingSpec(
        kind=_require(kv, "forcing.kind", str, default="constant"),
        value=float(_require(kv, "forcing.value", float, default=1.0)),
        preset=_require(kv, "forcing.preset", str, default="sine"),
        path=kv.get("forcing.path"),
    )
    _require_finite("forcing.value", forcing.value)
    if forcing.kind not in ("constant", "preset", "csv"):
        raise ConfigError(
            f"forcing.kind: must be constant, preset, or csv, got {forcing.kind!r}"
        )
    if forcing.kind == "preset" and forcing.preset not in _PRESETS:
        raise ConfigError(
            f"forcing.preset: must be one of {', '.join(_PRESETS)}, got {forcing.preset!r}"
        )
    if forcing.kind == "csv":
        if not forcing.path:
            raise ConfigError("forcing.path: required when forcing.kind = csv")
        if not os.path.isfile(str(forcing.path)):
            raise ConfigError(f"forcing.path: file not found: {forcing.path}")

    control = _ControlSpec(
        alpha=float(_require(kv, "control.alpha", float, default=1e-6)),
        tol_reduced=float(_require(kv, "control.tol_reduced", float, default=1e-5)),
        max_outer=_require(kv, "control.max_outer", int, default=10_000),
        cg_tol=float(_require(kv, "control.cg_tol", float, default=1e-10)),
        cg_max=_require(kv, "control.cg_max", int, default=0),
    )
    _require_finite("control.tol_reduced", control.tol_reduced)
    _require_finite("control.cg_tol", control.cg_tol)
    convexity = _ConvexitySpec(
        trials=_require(kv, "convexity.trials", int, default=1000),
        gamma=float(kv["convexity.gamma"]) if "convexity.gamma" in kv else None,
    )

    seed = _require(kv, "seed", int, default=0)
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")

    config = RunConfig(
        command=command,
        grid=grid,
        exponents=exponents,
        weight=weight,
        forcing=forcing,
        solver_tol=float(kv["solver.tol"]) if "solver.tol" in kv else None,
        solver_max_iters=_require(kv, "solver.max_iters", int, default=50_000),
        solver_armijo=float(_require(kv, "solver.armijo", float, default=1e-4)),
        solver_backtrack=float(_require(kv, "solver.backtrack", float, default=0.5)),
        control=control,
        convexity=convexity,
        seed=seed,
        out=str(_require(kv, "out", str, default="out")),
        dump_energy_trace=bool(_require(kv, "dump_energy_trace", bool, default=False)),
    )
    _require_finite("solver.tol", config.solver_tol)
    try:
        config.solver_config()
        ControlConfig(
            inner=config.solver_config(),
            tol_reduced=control.tol_reduced,
            max_outer=control.max_outer,
            cg_tol=control.cg_tol,
            cg_max=control.cg_max,
            alpha=control.alpha,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if convexity.trials < 1:
        raise ConfigError(f"convexity.trials: must be >= 1, got {convexity.trials}")
    return config


def _build_weight(config: RunConfig) -> WeightField:
    grid = config.grid
    spec = config.weight
    if spec.kind == "constant":
        return WeightField.constant(grid, spec.mu0, spec.mu1)
    if spec.kind == "ramp":
        return WeightField.ramp(grid, spec.mu1 if spec.mu1 is not None else 1.0)
    nodal = read_grid_function(str(spec.path), grid)
    return WeightField.from_nodal(grid, nodal, spec.mu1)


def _build_forcing(config: RunConfig) -> GridFunction:
    grid = config.grid
    spec = config.forcing
    if spec.kind == "constant":
        return GridFunction.full(grid, spec.value)
    if spec.kind == "preset":
        if spec.preset == "sine":
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
    return read_grid_function(str(spec.path), grid)


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
        os.path.join(config.out, "exponents.txt"),
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
    cfg = config.solver_config()
    report = solve_inner(f, mu, config.exponents, cfg)
    write_grid_function(report.u_star, os.path.join(config.out, "u.csv"))
    breakdown = energy(report.u_star, f, mu, config.exponents)
    _write_record(
        os.path.join(config.out, "report.txt"),
        [
            ("command", "solve"),
            ("n", config.grid.n),
            ("m", config.grid.m),
            ("p", config.exponents.p),
            ("q", config.exponents.q),
            ("epsilon", config.exponents.eps_reg),
            ("seed", config.seed),
            ("converged", report.converged),
            ("status", report.status),
            ("iterations", report.iterations),
            ("matvecs", report.matvecs),
            ("final_grad_norm", report.final_grad_norm),
            ("weak_check", report.weak_check),
            ("energy_total", breakdown.total),
        ],
    )
    if config.dump_energy_trace:
        trace_path = os.path.join(config.out, "energy_trace.csv")
        with open(trace_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("iteration,energy\n")
            for i, value in enumerate(report.energy_trace):
                fh.write(f"{i},{value:.17g}\n")
    return 0 if report.converged else 2


def _cmd_compare_ops(config: RunConfig) -> int:
    mu = _build_weight(config)
    u = _probe_field(config.grid)
    a = apply_pseudo_operator(u, mu, config.exponents)
    b = apply_divergence_operator(u, mu, config.exponents)
    diff = a - b
    l2_gap = quadrature(_sq(diff)) ** 0.5
    l2_ref = quadrature(_sq(a)) ** 0.5
    _write_record(
        os.path.join(config.out, "gap.txt"),
        [
            ("command", "compare-ops"),
            ("n", config.grid.n),
            ("m", config.grid.m),
            ("p", config.exponents.p),
            ("q", config.exponents.q),
            ("l2_gap", l2_gap),
            ("max_gap", float(np.max(np.abs(diff.values)))),
            ("rel_l2_gap", l2_gap / l2_ref if l2_ref > 0.0 else 0.0),
        ],
    )
    return 0


def _sq(u: GridFunction) -> GridFunction:
    return GridFunction(u.grid, u.values**2)


def _cmd_convexity(config: RunConfig) -> int:
    mu = _build_weight(config)
    e = config.exponents
    grid = config.grid
    f0 = GridFunction.zeros(grid)
    gamma = config.convexity.gamma if config.convexity.gamma is not None else e.p

    def functional(u: GridFunction) -> float:
        return energy(u, f0, mu, e).total

    sampler = SamplerConfig(
        seed=config.seed,
        trials=config.convexity.trials,
        space=grid_function_space(grid, e.p),
    )
    cert = estimate_modulus(functional, gamma, sampler)
    with open(
        os.path.join(config.out, "certificate.txt"), "w", encoding="ascii", newline="\n"
    ) as fh:
        fh.write(certificate_record(cert))
    return 0


def _cmd_control(config: RunConfig) -> int:
    mu = _build_weight(config)
    e = config.exponents
    grid = config.grid
    f_hat = _build_forcing(config)
    inner = config.solver_config()
    ctrl = ControlConfig(
        inner=inner,
        tol_reduced=config.control.tol_reduced,
        max_outer=config.control.max_outer,
        cg_tol=config.control.cg_tol,
        cg_max=config.control.cg_max,
        alpha=config.control.alpha,
    )
    u_d = solve_inner(f_hat, mu, e, inner)
    if not u_d.converged:
        print("error: forward solve for the tracking target did not converge", file=sys.stderr)
        return 2
    obj = tracking_objective(u_d.u_star, config.control.alpha)
    report = optimize_control(obj, GridFunction.zeros(grid), mu, e, ctrl)
    write_grid_function(report.f_star, os.path.join(config.out, "f_star.csv"))
    write_grid_function(report.u_star, os.path.join(config.out, "u_star.csv"))
    _write_record(
        os.path.join(config.out, "report.txt"),
        [
            ("command", "control"),
            ("n", grid.n),
            ("m", grid.m),
            ("p", e.p),
            ("q", e.q),
            ("alpha", config.control.alpha),
            ("seed", config.seed),
            ("converged", report.converged),
            ("status", report.status),
            ("outer_iters", report.outer_iters),
            ("stationarity", report.stationarity),
            ("objective", report.objective_trace[-1]),
        ],
    )
    return 0 if report.converged else 2


def run(config: RunConfig) -> int:
    """Dispatch one validated config; returns the process exit status."""
    os.makedirs(config.out, exist_ok=True)
    started = time.perf_counter()
    try:
        if config.command == "exponents":
            status = _cmd_exponents(config)
        elif config.command == "solve":
            status = _cmd_solve(config)
        elif config.command == "compare-ops":
            status = _cmd_compare_ops(config)
        elif config.command == "convexity":
            status = _cmd_convexity(config)
        else:
            status = _cmd_control(config)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InnerSolveError, CGBreakdownError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # Wall time goes to stdout only; artifacts stay byte-stable across reruns.
    print(f"{config.command}: exit {status}, wall_time_s = {time.perf_counter() - started:.3f}")
    return status


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudophase",
        description="Axiswise double-phase solver, operator lab, and control loop",
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS, help="command to run")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="U64")
    parser.add_argument("--m", type=int, metavar="INT", help="interior nodes per axis")
    parser.add_argument("--n", type=int, choices=(1, 2), help="spatial dimension")
    parser.add_argument("--q", type=float, metavar="REAL")
    parser.add_argument("--p", type=float, metavar="REAL", help="explicit p (relaxed mode)")
    parser.add_argument(
        "--strict-sobolev", action="store_true", help="derive p from 1/p = 1/q - 1/n"
    )
    parser.add_argument("--epsilon", type=float, metavar="REAL")
    parser.add_argument("--tol", type=float, metavar="REAL")
    parser.add_argument("--max-iters", type=int, metavar="INT")
    parser.add_argument("--mu-const", type=float, metavar="REAL")
    parser.add_argument("--dump-energy-trace", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    overrides: dict[str, object] = {
        "command": args.command,
        "out": args.out,
        "seed": args.seed,
        "grid.m": args.m,
        "grid.n": args.n,
        "exponents.q": args.q,
        "exponents.p": args.p,
        "exponents.epsilon": args.epsilon,
        "solver.tol": args.tol,
        "solver.max_iters": args.max_iters,
    }
    if args.strict_sobolev:
        overrides["exponents.mode"] = "strict"
    if args.mu_const is not None:
        overrides["weight.kind"] = "constant"
        overrides["weight.mu0"] = args.mu_const
    if args.dump_energy_trace:
        overrides["dump_energy_trace"] = True
    try:
        config = parse_config(args.config, overrides)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
