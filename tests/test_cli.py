"""Config parsing, dispatch, exit codes, and artifact stability."""

import ast
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudophase
import pseudophase.cli as cli
from pseudophase import (
    ConfigError,
    ControlConfig,
    Exponents,
    Grid,
    GridFunction,
    SolverConfig,
    WeightField,
    energy,
    optimize_control,
    read_grid_function,
    solve_inner,
    tracking_objective,
    validate_exponents,
    write_grid_function,
)
from pseudophase.cli import (
    _FLAGS,
    _KEYS,
    _REQUIRED,
    _SWITCHES,
    _build_arg_parser,
    _parse,
    main,
    parse_config,
)

# The package exports the function `energy`, which shadows its module.
energy_module = importlib.import_module("pseudophase.energy")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_record(path):
    fields = {}
    for line in open(path, encoding="ascii"):
        key, _, value = line.strip().partition(" = ")
        fields[key] = value
    return fields


BASE_SOLVE = """
command = solve
grid.n = 1
grid.m = 15
exponents.mode = relaxed
exponents.q = 4/3
exponents.p = 4
exponents.epsilon = 1e-4
forcing.kind = preset
forcing.preset = sine
solver.tol = 1e-6
"""


def test_parse_minimal_strict_config(tmp_path):
    path = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 2\ngrid.m = 63\nexponents.q = 4/3\n",
    )
    cfg = parse_config(path)
    assert cfg["command"] == "solve"
    assert cfg.grid == Grid(2, 63)
    assert cfg.exponents.p == 4.0
    assert cfg.exponents.strict_sobolev
    assert cfg.solver.tol_grad == 1e-6


def test_defaults_fill_unset_keys(tmp_path):
    path = _write(tmp_path, "run.cfg", "command = solve\ngrid.n = 2\nexponents.q = 4/3\n")
    cfg = parse_config(path)
    assert cfg.grid.m == 15
    assert cfg["seed"] == 0
    assert cfg["out"] == "out"
    assert cfg.solver.max_iters == 50_000
    assert not cfg["dump_energy_trace"]
    assert cfg.control.inner is cfg.solver


def test_flag_overrides_beat_file_values(tmp_path):
    path = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 2\ngrid.m = 63\nexponents.q = 4/3\n",
    )
    cfg = parse_config(path, {"grid.m": 31, "seed": 7})
    assert cfg.grid.m == 31
    assert cfg["seed"] == 7


def test_unknown_key_is_an_error(tmp_path):
    path = _write(tmp_path, "run.cfg", "command = solve\ngrid.k = 3\n")
    with pytest.raises(ConfigError, match="grid.k"):
        parse_config(path)
    with pytest.raises(ConfigError, match="typo"):
        parse_config(None, {"typo": 1})


def test_malformed_line_reports_its_location(tmp_path):
    path = _write(tmp_path, "run.cfg", "command = solve\nnonsense\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = _write(
        tmp_path,
        "run.cfg",
        "# header\ncommand = exponents\n\ngrid.n = 2  # inline\nexponents.q = 4/3\n",
    )
    assert parse_config(path)["command"] == "exponents"


def test_strict_mode_conflict_cites_the_coupling(tmp_path):
    path = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 2\nexponents.q = 2\nexponents.mode = strict\n",
    )
    with pytest.raises(ConfigError, match="exponents: .*q < n"):
        parse_config(path)


def test_p_flag_alone_implies_relaxed_mode():
    cfg = parse_config(
        None,
        {"command": "solve", "grid.n": 1, "exponents.q": 1.2, "exponents.p": 3.0},
    )
    assert not cfg.exponents.strict_sobolev
    assert cfg.exponents.p == 3.0


def test_consistent_p_with_explicit_strict_mode():
    cfg = parse_config(
        None,
        {
            "command": "solve",
            "grid.n": 2,
            "exponents.q": 4.0 / 3.0,
            "exponents.p": 4.0,
            "exponents.mode": "strict",
        },
    )
    assert cfg.exponents.strict_sobolev


def test_fraction_literal_parses_to_float(tmp_path):
    path = _write(
        tmp_path, "run.cfg", "command = solve\ngrid.n = 2\nexponents.q = 4/3\n"
    )
    assert parse_config(path).exponents.q == 4.0 / 3.0


def test_missing_q_is_reported(tmp_path):
    path = _write(tmp_path, "run.cfg", "command = solve\ngrid.n = 2\n")
    with pytest.raises(ConfigError, match="exponents.q: required"):
        parse_config(path)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(
            None,
            {"command": "solve", "grid.n": 2, "exponents.q": 4.0 / 3.0, "seed": -1},
        )


def test_missing_command_exits_one(tmp_path, capsys):
    assert main(["--q", "1.2"]) == 1
    assert "command: required" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "source, message",
    [
        ("--epsilon", "exponents.epsilon: must be finite"),
        ("--p", "exponents.p: must be finite"),
        ("forcing.value", "forcing.value: must be finite"),
        ("--strict-sobolev --p", "exponents.p: must be finite"),
        ("--tol", "solver.tol: must be finite"),
        ("control.tol_reduced", "control.tol_reduced: must be finite"),
        ("control.cg_tol", "control.cg_tol: must be finite"),
        ("--mu-const", "weight.mu0: must be finite"),
        ("weight.mu1", "weight.mu1: must be finite"),
        ("convexity.gamma", "convexity.gamma: must be finite"),
    ],
)
def test_non_finite_input_exits_one_naming_its_key(tmp_path, capsys, source, message, value):
    # Without --p the mode is strict, so only a lone --p runs relaxed.
    out = tmp_path / "out"
    args = ["solve", "--n", "2", "--m", "5", "--q", str(4.0 / 3.0), "--out", str(out)]
    if "." in source:
        cfg = _write(tmp_path, "run.cfg", f"{source} = {value}\n")
        args += ["--config", cfg]
    else:
        args += [*source.split(), value]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        # "true" used to become tol 1.0 and a vacuous converged = true.
        ("solver.tol", "true"),
        ("solver.tol", "abc"),
        ("exponents.p", "abc"),
        ("weight.mu1", "abc"),
        ("convexity.gamma", "abc"),
        ("exponents.q", "1/0"),
        ("grid.m", "2.5"),
        ("seed", "true"),
        ("dump_energy_trace", "1"),
    ],
)
def test_malformed_value_exits_one_naming_its_key(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", f"exponents.q = 4/3\ngrid.n = 2\n{key} = {value}\n")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {key}: expected {_KEYS[key][0].__name__}, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("convexity", "convexity.gamma = 0.5", "error: convexity.gamma: must be >= 1"),
        ("solve", "forcing.preset = saw", "error: forcing.preset: must be one of sine, bump"),
        (
            "solve",
            "weight.kind = ramp\nweight.mu1 = 0",
            "error: weight: mu_max must be positive",
        ),
        (
            "solve",
            "weight.mu0 = 2\nweight.mu1 = 1",
            "error: weight: weight values exceed the declared bound",
        ),
    ],
)
def test_range_error_exits_one_naming_its_key_or_section(tmp_path, capsys, command, lines, message):
    cfg = _write(tmp_path, "run.cfg", f"exponents.q = 4/3\ngrid.n = 2\ngrid.m = 5\n{lines}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--epsilon", "exponents.epsilon"])
def test_overflowing_epsilon_exits_one(tmp_path, capsys, source):
    # eps_reg**2 used to overflow in solve_inner with a traceback.
    out = tmp_path / "out"
    args = ["solve", "--n", "2", "--m", "5", "--q", str(4.0 / 3.0), "--out", str(out)]
    if "." in source:
        args += ["--config", _write(tmp_path, "run.cfg", f"{source} = 1e200\n")]
    else:
        args += [source, "1e200"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error: exponents: eps_reg**2 must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, args, lines, message",
    [
        # Both used to exit 2: `stalled` at final_grad_norm = 1e60, and nan in the report.
        ("solve", "--n 2 --m 7 --q 4/3", "forcing.value = 1e60", "error: solver.tol: 1e-06 is below"),
        ("solve", "--n 1 --m 5 --q 4/3 --p 3 --mu-const 1e308", "", "error: weight.mu0: "),
        ("control", "--n 1 --m 5 --q 4/3 --p 3", "forcing.value = 1e60", "error: solver.tol: "),
        ("solve", "--n 2 --m 5 --q 4/3", "weight.kind = ramp\nweight.mu1 = 1e308", "error: weight.mu1: "),
        ("solve", "--n 1 --m 5 --q 4/3 --p 3 --epsilon=1e-160", "", "error: exponents.epsilon: "),
    ],
)
def test_unattainable_solve_exits_one_naming_its_key(tmp_path, capsys, command, args, lines, message):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", lines + "\n")
    assert main([command, *args.split(), "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_attainable_check_admits_the_rounding_floor_and_a_zero_weight(tmp_path):
    floor = float(np.finfo(float).eps) * 1e6
    keys = {"command": "solve", "grid.m": 5, "exponents.q": 1.2, "exponents.p": 1.5, "forcing.value": 1e6}
    for tol, rejected in ((floor, False), (float(np.nextafter(floor, 0.0)), True)):
        config = parse_config(None, {**keys, "solver.tol": tol})
        mu, f = cli._build_weight(config), cli._build_forcing(config)
        if rejected:
            with pytest.raises(ConfigError, match="^solver.tol: "):
                cli._check_attainable(config, mu, f)
        else:
            cli._check_attainable(config, mu, f)
    # eps^(q-2) overflows here, but a zero weight takes the q-phase away: this solve converges.
    args = ["--n", "1", "--m", "5", "--q", "1.2", "--p", "1.5", "--mu-const", "0", "--epsilon=1e-150"]
    with np.errstate(all="ignore"):
        assert main(["solve", *args, "--out", str(tmp_path / "out")]) == 0


def test_overflowing_convexity_basis_exits_one(tmp_path, capsys):
    # norm(x - y) ** gamma used to end in an OverflowError traceback.
    out = tmp_path / "out"
    cfg = _write(
        tmp_path,
        "run.cfg",
        "exponents.q = 4/3\ngrid.n = 2\ngrid.m = 5\n"
        "convexity.trials = 20\nconvexity.gamma = 1e300\n",
    )
    assert main(["convexity", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: convexity: gamma = 1e+300: the penalty basis" in err
    assert "Traceback" not in err
    assert not (out / "certificate.txt").exists()


@pytest.mark.parametrize("command", ["solve", "compare-ops", "convexity", "control"])
@pytest.mark.parametrize(
    "lines", ["weight.mu0 = 2\nweight.mu1 = 1", "weight.kind = csv\nweight.path = {csv}"]
)
def test_input_error_leaves_no_output_directory(tmp_path, capsys, command, lines):
    # Both errors surface while the inputs are built, after parse_config.
    csv = tmp_path / "m3.csv"
    write_grid_function(GridFunction.full(Grid(2, 3), 0.5), str(csv))
    out = tmp_path / "out"
    lines = lines.format(csv=csv)
    cfg = _write(tmp_path, "run.cfg", f"exponents.q = 4/3\ngrid.n = 2\ngrid.m = 5\n{lines}\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "error: weight: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exponents", "solve"])
def test_out_under_a_regular_file_exits_one_naming_out(tmp_path, capsys, command):
    # os.makedirs used to end in a NotADirectoryError traceback.
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "x"
    args = [command, "--n", "2", "--m", "5", "--q", "4/3", "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out: ") and str(out) in err
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def test_an_artifact_write_that_fails_exits_one_naming_out(tmp_path, capsys):
    # Opening u.csv when it is a directory used to end in an IsADirectoryError traceback.
    out = tmp_path / "out"
    (out / "u.csv").mkdir(parents=True)
    assert main(["solve", "--q", "1.5", "--p", "3", "--m", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out: ") and str(out / "u.csv") in err
    assert "Traceback" not in err


def test_an_input_read_that_fails_exits_one_naming_its_section(tmp_path, capsys, monkeypatch):
    def unreadable(path, grid=None):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "read_grid_function", unreadable)
    weight = tmp_path / "mu.csv"
    write_grid_function(GridFunction.full(Grid(1, 5), 1.0), str(weight))
    cfg = _write(
        tmp_path,
        "run.cfg",
        f"command = solve\nexponents.q = 1.5\nexponents.p = 3\ngrid.m = 5\n"
        f"weight.kind = csv\nweight.path = {weight}\n",
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: weight: [Errno 13] Permission denied")


def test_a_config_file_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"command = solve\nexponents.q = 1.5  # \xff\n")
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "utf-8" in err


def test_a_config_file_that_cannot_be_read_exits_one_naming_the_file(tmp_path, capsys, monkeypatch):
    def unreadable(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    path = _write(tmp_path, "run.cfg", "command = solve\nexponents.q = 1.5\n")
    monkeypatch.setattr(cli, "open", unreadable, raising=False)
    assert main(["--config", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: [Errno 13] Permission denied")


def test_exponents_command_writes_record(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        ["exponents", "--n", "2", "--q", str(4.0 / 3.0), "--strict-sobolev", "--out", out]
    )
    assert code == 0
    rec = _read_record(tmp_path / "out" / "exponents.txt")
    assert rec["p"] == "4"
    assert rec["mode"] == "strict"
    assert float(rec["q"]) == 4.0 / 3.0


def test_solve_with_zero_forcing_is_immediate(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        BASE_SOLVE.replace("forcing.kind = preset", "forcing.kind = constant")
        + "forcing.value = 0\n",
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    rec = _read_record(tmp_path / "out" / "report.txt")
    assert rec["converged"] == "true"
    assert rec["iterations"] == "0"
    assert rec["matvecs"] == "0"
    u = read_grid_function(str(tmp_path / "out" / "u.csv"))
    assert not u.values.any()
    # The regularized energy of the zero field is the eps floor, not 0.
    g = Grid(1, 15)
    e = Exponents(4.0, 4.0 / 3.0, 1, 1e-4)
    floor = energy(
        GridFunction.zeros(g), GridFunction.zeros(g), WeightField.constant(g, 1.0), e
    ).total
    assert float(rec["energy_total"]) == floor


README_SOLVE = """
command = solve
grid.n = 2
grid.m = 9
exponents.q = 4/3
exponents.mode = strict     # derives p = 4 from 1/p = 1/q - 1/n
exponents.epsilon = 1e-4
weight.kind = ramp
weight.mu1 = 2.0
forcing.kind = preset
forcing.preset = sine
solver.tol = 1e-6
seed = 0
"""


def test_readme_example_reports_its_matvecs(tmp_path):
    cfg = _write(tmp_path, "run.cfg", README_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    keys = [line.partition(" = ")[0] for line in open(out / "report.txt", encoding="ascii")]
    assert keys[keys.index("iterations") + 1] == "matvecs"
    rec = _read_record(out / "report.txt")
    assert rec["converged"] == "true"
    assert int(rec["iterations"]) > 0
    assert int(rec["matvecs"]) > 0


def test_solve_artifacts_are_byte_stable(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASE_SOLVE + "dump_energy_trace = true\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("u.csv", "report.txt", "energy_trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    trace = np.loadtxt(out1 / "energy_trace.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(trace[:, 1]) < 0.0)


def test_solve_reports_non_convergence_with_exit_two(tmp_path):
    cfg = _write(tmp_path, "run.cfg", BASE_SOLVE + "solver.max_iters = 2\n")
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 2
    rec = _read_record(tmp_path / "out" / "report.txt")
    assert rec["converged"] == "false"
    assert rec["status"] == "max_iters"


def test_compare_ops_gap_vanishes_in_1d(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "compare-ops",
            "--n",
            "1",
            "--m",
            "15",
            "--q",
            str(4.0 / 3.0),
            "--p",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 0
    rec = _read_record(tmp_path / "out" / "gap.txt")
    assert float(rec["l2_gap"]) == 0.0
    assert float(rec["max_gap"]) == 0.0
    assert float(rec["rel_l2_gap"]) == 0.0


def test_compare_ops_gap_is_large_in_2d(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        ["compare-ops", "--n", "2", "--m", "7", "--q", str(4.0 / 3.0), "--strict-sobolev", "--out", out]
    )
    assert code == 0
    rec = _read_record(tmp_path / "out" / "gap.txt")
    rel = float(rec["rel_l2_gap"])
    assert rel >= 0.01
    assert rel == pytest.approx(0.392390, rel=1e-4)


@pytest.mark.parametrize("mu", ["1e300", "1e308"])
def test_compare_ops_overflow_exits_one_without_a_gap_file(tmp_path, capsys, mu):
    # Used to exit 0 with l2_gap = inf and rel_l2_gap = nan in gap.txt.
    out = tmp_path / "out"
    args = ["compare-ops", "--n", "2", "--m", "5", "--q", str(4.0 / 3.0), "--strict-sobolev"]
    assert main(args + ["--mu-const", mu, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: compare-ops: l2_gap = ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_convexity_certificate_is_deterministic(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = convexity\ngrid.n = 1\ngrid.m = 5\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "convexity.trials = 200\n",
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["convexity", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["convexity", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "certificate.txt").read_bytes() == (out2 / "certificate.txt").read_bytes()
    rec = _read_record(out1 / "certificate.txt")
    assert float(rec["c_estimate"]) > 0.0
    assert rec["failures"] == "0"
    assert rec["N"] == "200"


#: certificate.txt of the configuration below, recorded with the per-trial
#: lab that preceded chunked sampling.
GOLDEN_CERTIFICATE = """\
seed = 20261018
N = 64
gamma = 4
c_estimate = 0.091128425980263911
failures = 0
worst_defect = 3.7153613519080864e-11
"""


def test_convexity_certificate_matches_the_recorded_bytes(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = convexity\ngrid.n = 2\ngrid.m = 7\n"
        "exponents.q = 4/3\nexponents.mode = strict\nweight.kind = ramp\n"
        "convexity.trials = 64\nseed = 20261018\n",
    )
    out = tmp_path / "out"
    assert main(["convexity", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "certificate.txt").read_bytes() == GOLDEN_CERTIFICATE.encode("ascii")


def test_control_command_round_trip(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = control\ngrid.n = 1\ngrid.m = 7\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "exponents.epsilon = 1e-4\n"
        "forcing.kind = constant\nforcing.value = 1\n"
        "solver.tol = 1e-9\n"
        "control.alpha = 1e-4\ncontrol.tol_reduced = 1e-7\ncontrol.cg_tol = 1e-11\n",
    )
    out = str(tmp_path / "out")
    assert main(["control", "--config", cfg, "--out", out]) == 0
    rec = _read_record(tmp_path / "out" / "report.txt")
    assert rec["converged"] == "true"
    assert float(rec["stationarity"]) <= 1e-7
    assert int(rec["outer_iters"]) >= 1
    f_star = read_grid_function(str(tmp_path / "out" / "f_star.csv"))
    u_star = read_grid_function(str(tmp_path / "out" / "u_star.csv"))
    assert f_star.grid == Grid(1, 7)
    assert u_star.grid == Grid(1, 7)
    assert f_star.values.any()


def test_control_alpha_reaches_the_objective(tmp_path, capsys):
    text = (
        "command = control\ngrid.n = 1\ngrid.m = 7\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "exponents.epsilon = 1e-4\nforcing.kind = constant\nforcing.value = 1\n"
        "solver.tol = 1e-9\ncontrol.tol_reduced = 1e-7\ncontrol.cg_tol = 1e-11\n"
    )
    out = tmp_path / "out"
    run_cfg = _write(tmp_path, "run.cfg", text + "control.alpha = 1e-3\n")
    assert main(["--config", run_cfg, "--out", str(out)]) == 0
    assert _read_record(out / "report.txt")["alpha"] == "0.001"
    g = Grid(1, 7)
    mu = WeightField.constant(g, 1.0)
    e = validate_exponents(4.0 / 3.0, 1, "relaxed", 4.0, eps_reg=1e-4)
    inner = SolverConfig(tol_grad=1e-9)
    u_d = solve_inner(GridFunction.full(g, 1.0), mu, e, inner).u_star
    cfg = ControlConfig(inner=inner, tol_reduced=1e-7, cg_tol=1e-11)
    rep = optimize_control(tracking_objective(u_d, 1e-3), GridFunction.zeros(g), mu, e, cfg)
    write_grid_function(rep.f_star, str(tmp_path / "f_star.csv"))
    assert (out / "f_star.csv").read_bytes() == (tmp_path / "f_star.csv").read_bytes()
    capsys.readouterr()
    negative = _write(tmp_path, "neg.cfg", text + "control.alpha = -1\n")
    assert main(["--config", negative, "--out", str(tmp_path / "neg")]) == 1
    assert capsys.readouterr().err == "error: control.alpha: must be >= 0.0, got -1.0\n"


def test_control_report_counts_its_products_byte_stably(tmp_path):
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = control\ngrid.n = 2\ngrid.m = 5\nexponents.q = 4/3\n"
        "exponents.epsilon = 1e-4\nweight.kind = constant\nweight.mu0 = 0.5\n"
        "forcing.kind = preset\nforcing.preset = sine\nsolver.tol = 1e-9\n"
        "control.alpha = 1e-4\ncontrol.tol_reduced = 1e-6\n",
    )
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["control", "--config", cfg, "--out", str(out)]) == 0
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1]
    keys = [line.partition(" = ")[0] for line in reports[0].decode("ascii").splitlines()]
    at = keys.index("outer_iters")
    assert keys[at + 1 : at + 3] == ["matvecs", "adjoint_matvecs"]
    assert keys[at + 3 : at + 6] == ["trial_solves", "model_cg_iters", "model_matvecs"]
    rec = _read_record(tmp_path / "a" / "report.txt")
    assert int(rec["matvecs"]) > 0 and int(rec["adjoint_matvecs"]) > 0
    assert int(rec["trial_solves"]) >= int(rec["outer_iters"])
    assert int(rec["model_cg_iters"]) >= int(rec["outer_iters"])
    assert int(rec["model_cg_iters"]) <= int(rec["model_matvecs"]) < int(rec["adjoint_matvecs"])


def test_control_with_a_vanishing_ramp_weight_converges(tmp_path):
    # The weight is zero on part of the box; at default tolerances the outer
    # loop used to stall with inner solves too loose for its steps.
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = control\ngrid.n = 2\ngrid.m = 7\nexponents.q = 4/3\n"
        "exponents.epsilon = 1e-4\nweight.kind = ramp\nweight.mu1 = 2\n"
        "forcing.kind = preset\nforcing.preset = sine\n",
    )
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    rec = _read_record(out / "report.txt")
    assert rec["status"] == "converged"
    assert float(rec["stationarity"]) <= 1e-5
    assert int(rec["outer_iters"]) >= 1


def test_singular_adjoint_linearization_exits_two(tmp_path, capsys):
    # At u = psi(0) = 0 every coefficient on the zero-weight half of the
    # ramp vanishes with epsilon = 0, so the first adjoint product fails.
    cfg = _write(
        tmp_path,
        "run.cfg",
        "grid.n = 2\ngrid.m = 6\nexponents.q = 2\nexponents.p = 3\n"
        "exponents.epsilon = 0\nweight.kind = ramp\nweight.mu1 = 2\n"
        "forcing.kind = preset\nforcing.preset = sine\n",
    )
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: zero linearization coefficient on an edge with eps_reg = 0; "
        "re-run with a positive regularization width\n"
    )
    assert not out.exists()


def test_csv_weight_and_forcing_inputs(tmp_path):
    from pseudophase import write_grid_function

    g = Grid(1, 9)
    x = g.node_coords()[0]
    w_path = str(tmp_path / "weight.csv")
    f_path = str(tmp_path / "forcing.csv")
    write_grid_function(GridFunction(g, 1.0 + x), w_path)
    write_grid_function(GridFunction(g, np.sin(np.pi * x)), f_path)
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 1\ngrid.m = 9\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "exponents.epsilon = 1e-4\nsolver.tol = 1e-7\n"
        f"weight.kind = csv\nweight.path = {w_path}\nweight.mu1 = 2\n"
        f"forcing.kind = csv\nforcing.path = {f_path}\n",
    )
    out = str(tmp_path / "out")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    rec = _read_record(tmp_path / "out" / "report.txt")
    assert rec["converged"] == "true"


def test_a_ragged_weight_file_exits_one_naming_its_line(tmp_path, capsys):
    w_path = _write(tmp_path, "weight.csv", "x,value\n0.25,1\n0.5\n0.75,1\n")
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 1\ngrid.m = 3\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        f"weight.kind = csv\nweight.path = {w_path}\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: weight: {w_path}: line 3: expected 2 fields, got 1\n"
    assert not out.exists()


def test_csv_weight_requires_an_existing_file(tmp_path):
    with pytest.raises(ConfigError, match="weight.path"):
        parse_config(
            None,
            {
                "command": "solve",
                "grid.n": 2,
                "exponents.q": 4.0 / 3.0,
                "weight.kind": "csv",
            },
        )
    with pytest.raises(ConfigError, match="not found"):
        parse_config(
            None,
            {
                "command": "solve",
                "grid.n": 2,
                "exponents.q": 4.0 / 3.0,
                "weight.kind": "csv",
                "weight.path": str(tmp_path / "nope.csv"),
            },
        )
    # A directory is not an input file either.
    with pytest.raises(ConfigError, match="not found"):
        parse_config(
            None,
            {
                "command": "solve",
                "grid.n": 2,
                "exponents.q": 4.0 / 3.0,
                "weight.kind": "csv",
                "weight.path": str(tmp_path),
            },
        )


def _feed_pipe(path, text):
    """Start a thread that writes text into the named pipe at path."""
    writer = threading.Thread(target=lambda: pathlib.Path(path).write_text(text), daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_config_and_a_csv_weight_are_read_through_named_pipes(tmp_path):
    g = Grid(1, 9)
    x = g.node_coords()[0]
    w_file = str(tmp_path / "weight.csv")
    write_grid_function(GridFunction(g, 1.0 + x), w_file)
    config = (
        "command = solve\ngrid.n = 1\ngrid.m = 9\n"
        "exponents.mode = relaxed\nexponents.q = 4/3\nexponents.p = 4\n"
        "exponents.epsilon = 1e-4\nsolver.tol = 1e-7\nweight.kind = csv\n"
    )
    cfg_file = _write(tmp_path, "run.cfg", config + f"weight.path = {w_file}\n")
    assert main(["--config", cfg_file, "--out", str(tmp_path / "from_files")]) == 0

    cfg_pipe, w_pipe = str(tmp_path / "run.pipe"), str(tmp_path / "weight.pipe")
    os.mkfifo(cfg_pipe)
    os.mkfifo(w_pipe)
    writers = [
        _feed_pipe(cfg_pipe, config + f"weight.path = {w_pipe}\n"),
        _feed_pipe(w_pipe, pathlib.Path(w_file).read_text()),
    ]
    try:
        assert main(["--config", cfg_pipe, "--out", str(tmp_path / "from_pipes")]) == 0
    finally:
        for writer, pipe in zip(writers, (cfg_pipe, w_pipe)):
            writer.join(timeout=5.0)
            if writer.is_alive():
                # Nothing read this pipe: open it once so its writer ends.
                os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
    names = sorted(os.listdir(tmp_path / "from_files"))
    assert "report.txt" in names and sorted(os.listdir(tmp_path / "from_pipes")) == names
    for name in names:
        got = (tmp_path / "from_pipes" / name).read_bytes()
        assert got == (tmp_path / "from_files" / name).read_bytes()


def test_bad_preset_rejected():
    with pytest.raises(ConfigError, match="forcing.preset"):
        parse_config(
            None,
            {
                "command": "solve",
                "grid.n": 2,
                "exponents.q": 4.0 / 3.0,
                "forcing.kind": "preset",
                "forcing.preset": "sawtooth",
            },
        )


def test_nested_out_directory_is_created(tmp_path):
    out = str(tmp_path / "deep" / "er" / "out")
    code = main(["exponents", "--n", "2", "--q", str(4.0 / 3.0), "--strict-sobolev", "--out", out])
    assert code == 0
    assert (tmp_path / "deep" / "er" / "out" / "exponents.txt").is_file()


def _readme_key_table():
    """The README's config-key table as {key: (type, default, values)}, plus its required keys."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    section = text.split("### Config keys", 1)[1].split("\n\n|", 1)[1]
    rows = [line for line in ("|" + section).splitlines() if line.startswith("| `")]
    kinds = {"int": int, "float": float, "bool": bool, "str": str}
    table, required = {}, []
    for row in rows:
        key, kind, default, values = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        if default == "required":
            required.append(key)
        choices = tuple(v.strip().strip("`") for v in values.split(",")) if values else None
        parsed = None if default in ("required", "unset") else _parse(key, default)
        table[key] = (kinds[kind], parsed, choices)
    return table, required


def test_readme_key_table_matches_the_parser():
    table, required = _readme_key_table()
    assert list(table) == list(_KEYS)
    assert table == _KEYS
    assert [type(table[k][1]) for k in table] == [type(v[1]) for v in _KEYS.values()]
    assert tuple(required) == _REQUIRED


def test_readme_flag_table_matches_the_parser():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    section = open(readme, encoding="utf-8").read().split("### Command-line flags", 1)[1]
    table = section.split("\n\n|", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    flags, switches = {}, {}
    for row in rows:
        flag, sets = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        if " = " in sets:
            switches[flag] = tuple(sets.split(" = "))
        else:
            flags[flag] = sets
    assert flags == _FLAGS and list(flags) == list(_FLAGS)
    assert switches == _SWITCHES
    assert set(_FLAGS.values()) <= set(_KEYS)
    assert {key for key, _ in _SWITCHES.values()} <= set(_KEYS)
    # argparse hands every value flag's text over unconverted and unchecked.
    actions = {a.option_strings[0]: a for a in _build_arg_parser()._actions if a.option_strings}
    for flag, key in _FLAGS.items():
        assert (actions[flag].dest, actions[flag].type, actions[flag].choices) == (key, None, None)


#: A malformed token for every flag whose key is not a str, and the error
#: that names its key, or its section when a record rejects the value.
_BAD_FLAGS = [
    ("--seed", "abc", "seed: expected int"),
    ("--seed", "-1", "seed: must be >= 0"),
    ("--m", "abc", "grid.m: expected int"),
    ("--m", "2.5", "grid.m: expected int"),
    ("--m", "0", "grid: interior resolution must be >= 1"),
    ("--n", "3", "grid: grid dimension must be 1 or 2"),
    ("--n", "1.0", "grid.n: expected int"),
    ("--q", "abc", "exponents.q: expected float"),
    ("--q", "1/0", "exponents.q: expected float"),
    ("--q", "5", "exponents: strict coupling requires q < n"),
    ("--p", "abc", "exponents.p: expected float"),
    ("--p", "1", "exponents: relaxed mode requires q < p"),
    ("--epsilon", "abc", "exponents.epsilon: expected float"),
    ("--epsilon", "-1e-4", "exponents: eps_reg must be >= 0"),
    ("--tol", "true", "solver.tol: expected float"),
    ("--tol", "0", "solver: tol_grad must be finite and positive"),
    ("--max-iters", "1e3", "solver.max_iters: expected int"),
    ("--max-iters", "0", "solver: max_iters must be >= 1"),
    ("--mu-const", "abc", "weight.mu0: expected float"),
    ("--mu-const", "-1", "weight: weight values must be >= 0"),
]


def test_every_non_text_flag_has_malformed_cases():
    assert {flag for flag, _, _ in _BAD_FLAGS} == {
        flag for flag, key in _FLAGS.items() if _KEYS[key][0] is not str
    }


@pytest.mark.parametrize("flag, token, message", _BAD_FLAGS)
def test_malformed_flag_exits_one_naming_its_key_or_section(tmp_path, capsys, flag, token, message):
    # These used to exit 2 with an argparse message.  flag=token keeps a
    # token such as "-1e-4" a value.
    out = tmp_path / "out"
    args = ["solve", "--n", "2", "--m", "5", "--q", "4/3", "--out", str(out), f"{flag}={token}"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert not out.exists()


def test_q_flag_takes_a_fraction_like_the_file_value(tmp_path):
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert main(["exponents", "--n", "2", "--q", "4/3", "--out", str(by_flag)]) == 0
    cfg = _write(tmp_path, "run.cfg", "command = exponents\ngrid.n = 2\nexponents.q = 4/3\n")
    assert main(["--config", cfg, "--out", str(by_file)]) == 0
    written = (by_flag / "exponents.txt").read_bytes()
    assert written == (by_file / "exponents.txt").read_bytes()
    assert b"q = 1.3333333333333333\n" in written


@pytest.mark.parametrize("key", ["solver.armijo", "solver.backtrack", "control.cg_max"])
def test_removed_config_key_exits_one_naming_file_and_line(tmp_path, capsys, key):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", f"exponents.q = 4/3\ngrid.n = 2\n{key} = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {cfg}:3: unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        # argparse reads "-1e-4" as an option, not as a value; --epsilon=-1e-4 works.
        ["--epsilon", "-1e-4"],
        ["--bogus", "1"],
        ["--m"],
        ["sovle"],
    ],
)
def test_usage_errors_stay_argparse_exit_two(tmp_path, capsys, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--n", "2", "--q", "4/3", "--out", str(out), *args])
    assert exit_info.value.code == 2
    assert "usage: pseudophase" in capsys.readouterr().err
    assert not out.exists()


_COMMANDS = _KEYS["command"][2]

#: A fast valid start for every command; m = 5 and small budgets.
_BASE = {
    "grid.n": "2",
    "grid.m": "5",
    "exponents.q": "4/3",
    "exponents.epsilon": "1e-4",
    "forcing.kind": "preset",
    "solver.max_iters": "30",
    "control.max_outer": "2",
    "convexity.trials": "5",
}

#: Other values each key accepts on its own; together they may still clash.
_OTHER = {
    "seed": ["0", "7"],
    "dump_energy_trace": ["true", "false"],
    "grid.n": ["1", "2"],
    "grid.m": ["3", "4"],
    "exponents.q": ["1.5", "2"],
    "exponents.p": ["3", "4"],
    "exponents.mode": ["strict", "relaxed"],
    "exponents.epsilon": ["0", "1e-2"],
    "weight.kind": ["constant", "ramp", "csv"],
    "weight.mu0": ["0", "0.5", "2"],
    "weight.mu1": ["1", "3"],
    "forcing.kind": ["constant", "preset", "csv"],
    "forcing.value": ["0", "-2"],
    "forcing.preset": ["sine", "bump"],
    "solver.tol": ["1e-8", "1e-3"],
    "solver.max_iters": ["1", "20"],
    "control.alpha": ["0", "1e-3"],
    "control.tol_reduced": ["1e-3"],
    "control.max_outer": ["1"],
    "control.cg_tol": ["1e-8"],
    "convexity.trials": ["1"],
    "convexity.gamma": ["1", "4"],
}

_MALFORMED = ["nan", "inf", "-inf", "abc", "true", "1/0", "-1", "0", "2.5"]

_SECTIONS = ("grid", "exponents", "solver", "control", "weight", "forcing")


@st.composite
def _run_configs(draw):
    values = dict(_BASE, command=draw(st.sampled_from(_COMMANDS)))
    for key in draw(st.lists(st.sampled_from(sorted(_OTHER)), max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(_OTHER[key]))
    bad = draw(st.none() | st.sampled_from(sorted(_KEYS)))
    if bad is not None:
        values[bad] = draw(st.sampled_from(_MALFORMED))
    return values


def _non_finite_numbers(folder):
    found = []
    for name in sorted(os.listdir(folder)):
        for token in re.split(r"[\s,=]+", open(os.path.join(folder, name), encoding="ascii").read()):
            try:
                number = float(token)
            except ValueError:
                continue
            if not math.isfinite(number):
                found.append(f"{name}: {token}")
    return found


@settings(max_examples=200, deadline=None)
@given(values=_run_configs())
def test_every_config_exits_one_naming_a_key_or_writes_finite_numbers(values):
    # Every run ends one of two ways: exit 1 with a message that names a
    # config key or a section, or exit 0 / 2 with only finite numbers.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in values.items())
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main(["--config", cfg, "--out", out])
        message = err.getvalue()
        assert "Traceback" not in message
        if status == 1:
            name = re.match(r"error: ([\w.]+): ", message)
            assert name is not None, message
            assert name.group(1) in _KEYS or name.group(1) in _SECTIONS, message
        else:
            assert status in (0, 2), message
            if os.path.isdir(out):
                assert _non_finite_numbers(out) == []


# Runs cli.main in a fresh process with its entry points wrapped the way
# perfbench/launch.py wraps them, and prints what the op added to sys.modules.
_OP_MODULES = """
import json, sys
import pseudophase.cli as cli

before = []

def first_call(fn):
    def wrapper(*args, **kwargs):
        if not before:
            before.append(set(sys.modules))
        return fn(*args, **kwargs)
    return wrapper

for name in ("solve_inner", "optimize_control", "estimate_modulus"):
    setattr(cli, name, first_call(getattr(cli, name)))
status = cli.main(sys.argv[1:])
added = sorted(set(sys.modules) - before[0]) if before else None
print(json.dumps([status, added, "numpy.random" in sys.modules]))
"""


@pytest.mark.parametrize("command", ["solve", "control", "convexity", "compare-ops", "exponents"])
def test_an_op_imports_nothing_and_only_convexity_loads_numpy_random(tmp_path, command):
    # The test process has numpy.random loaded already, so each run is a new one.
    cfg = _write(
        tmp_path,
        "run.cfg",
        f"command = {command}\ngrid.n = 2\ngrid.m = 5\nexponents.q = 4/3\n"
        "exponents.epsilon = 1e-4\nweight.kind = constant\nweight.mu0 = 0.5\n"
        "forcing.kind = preset\nforcing.preset = sine\nsolver.tol = 1e-9\n"
        "control.alpha = 1e-4\ncontrol.tol_reduced = 1e-6\nconvexity.trials = 20\n",
    )
    src = os.path.dirname(os.path.dirname(pseudophase.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    run = subprocess.run(
        [sys.executable, "-c", _OP_MODULES, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    status, added, numpy_random = json.loads(run.stdout.splitlines()[-1])
    assert status == 0
    if command in ("solve", "control", "convexity"):
        # The command reached the wrapped entry point, not one bound at import.
        assert added is not None
    if command in ("solve", "control"):
        assert added == []
    assert numpy_random == (command == "convexity")


def test_a_solve_above_ten_thousand_nodes_repeats_its_bytes_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a ddot of more than 10 000 elements over its threads;
    # the solver's dots sum one-thread ddots of 8 192-element chunks.
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 2\ngrid.m = 101\nexponents.mode = strict\n"
        "exponents.q = 4/3\nexponents.epsilon = 1e-4\nweight.kind = ramp\n"
        "weight.mu1 = 2\nforcing.kind = preset\nforcing.preset = sine\nsolver.tol = 1e-6\n",
    )
    src = os.path.dirname(os.path.dirname(pseudophase.__file__))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "pseudophase.cli", "solve", "--config", cfg, "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        artifacts.append([(out / name).read_bytes() for name in ("u.csv", "report.txt")])
    assert b"status = converged" in artifacts[0][1]
    assert artifacts[1] == artifacts[0]


def test_a_sine_preconditioned_solve_repeats_its_bytes_at_one_and_two_blas_threads(tmp_path):
    # Below 10 000 nodes a BLAS ddot runs on one thread, and the sine basis
    # multiplies in row blocks under OpenBLAS's GEMM threading threshold.
    cfg = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 2\ngrid.m = 99\nexponents.mode = relaxed\n"
        "exponents.p = 3\nexponents.q = 2\nexponents.epsilon = 1e-4\n"
        "weight.kind = constant\nweight.mu0 = 0.5\nforcing.kind = preset\n"
        "forcing.preset = sine\nsolver.tol = 1e-6\n",
    )
    g = Grid(2, 99)
    chosen = energy_module._preconditioner(np.ones(g.shape), WeightField.constant(g, 0.5).edges)
    assert chosen.func is energy_module._sine_solve
    src = os.path.dirname(os.path.dirname(pseudophase.__file__))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "pseudophase.cli", "solve", "--config", cfg, "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        artifacts.append([(out / name).read_bytes() for name in ("u.csv", "report.txt")])
    assert b"status = converged" in artifacts[0][1]
    assert artifacts[1] == artifacts[0]


#: pseudophase.__all__, in order: the package's public surface.
_PUBLIC_NAMES = [
    "Grid", "GridFunction", "EdgeField", "forward_diff", "neg_divergence", "quadrature",
    "inner_product", "sobolev_norm", "write_grid_function", "read_grid_function",
    "Exponents", "WeightField", "EnergyBreakdown", "validate_exponents", "energy",
    "energy_gradient", "apply_pseudo_operator", "apply_divergence_operator", "weak_residual",
    "hessian_apply", "ConvexityCertificate", "SampledSpace",
    "SamplerConfig", "real_line_space", "grid_function_space", "estimate_modulus",
    "check_sum_lemma", "SolverConfig", "SolveReport", "solve_inner", "Objective",
    "ControlConfig", "ControlReport", "SolutionOperator", "tracking_objective",
    "gateaux_derivative", "reduced_gradient", "optimize_control", "ConfigError",
    "SingularLinearizationError", "CGBreakdownError", "InnerSolveError",
]


def test_the_public_surface_is_pinned_and_every_name_resolves():
    assert pseudophase.__all__ == _PUBLIC_NAMES
    namespace = {}
    exec("from pseudophase import *", namespace)
    for name in _PUBLIC_NAMES:
        value = getattr(pseudophase, name)
        assert namespace[name] is value and not isinstance(value, types.ModuleType)
    # The function, not the submodule of the same name.
    assert pseudophase.energy is sys.modules["pseudophase.energy"].energy


def _private_definitions(tree):
    """(name, first line, last line) of each private top-level def, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_solver_and_control_config_field_is_read():
    # A field that nothing reads drops whatever a caller sets on it.
    package = os.path.dirname(pseudophase.__file__)
    unread = []
    for record in (SolverConfig, ControlConfig):
        lines = []
        for entry in ("solver.py", "control.py"):
            with open(os.path.join(package, entry), encoding="utf-8") as handle:
                source = handle.read()
            own = [
                range(node.lineno, node.end_lineno + 1)
                for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == record.__name__
            ]
            lines += [
                line
                for number, line in enumerate(source.splitlines(), 1)
                if not any(number in body for body in own)
            ]
        for field in dataclasses.fields(record):
            if not any(re.search(rf"\.{field.name}\b", line) for line in lines):
                unread.append(f"{record.__name__}.{field.name}")
    assert not unread


def test_every_private_helper_is_used_in_the_package():
    # A helper only the tests still call is dead code: the package must name
    # it somewhere outside its own definition.
    package = os.path.dirname(pseudophase.__file__)
    sources = {}
    for entry in sorted(os.listdir(package)):
        if entry.endswith(".py"):
            with open(os.path.join(package, entry), encoding="utf-8") as handle:
                sources[entry] = handle.read().splitlines(keepends=True)
    dead = []
    for entry, lines in sources.items():
        for name, first, last in _private_definitions(ast.parse("".join(lines))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = [
                line
                for other, other_lines in sources.items()
                for number, line in enumerate(other_lines, 1)
                if not (other == entry and first <= number <= last)
            ]
            if not any(word.search(line) for line in elsewhere):
                dead.append(f"{entry}: {name}")
    assert not dead
