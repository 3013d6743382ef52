"""Config parsing, dispatch, exit codes, and artifact stability."""

import numpy as np
import pytest

from pseudophase import (
    ConfigError,
    Exponents,
    Grid,
    GridFunction,
    WeightField,
    energy,
    read_grid_function,
)
from pseudophase.cli import RunConfig, main, parse_config


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
    assert cfg.command == "solve"
    assert cfg.grid == Grid(2, 63)
    assert cfg.exponents.p == 4.0
    assert cfg.exponents.strict_sobolev
    assert cfg.solver_config().tol_grad == 1e-6


def test_defaults_fill_unset_keys(tmp_path):
    path = _write(tmp_path, "run.cfg", "command = solve\ngrid.n = 2\nexponents.q = 4/3\n")
    cfg = parse_config(path)
    assert cfg.grid.m == 15
    assert cfg.seed == 0
    assert cfg.out == "out"
    assert cfg.solver_max_iters == 50_000
    assert not cfg.dump_energy_trace


def test_quadratic_default_tolerance_is_tighter():
    cfg = RunConfig(
        command="solve", grid=Grid(1, 5), exponents=Exponents(2.0, 2.0, 1, 0.0)
    )
    assert cfg.solver_config().tol_grad == 1e-8


def test_flag_overrides_beat_file_values(tmp_path):
    path = _write(
        tmp_path,
        "run.cfg",
        "command = solve\ngrid.n = 2\ngrid.m = 63\nexponents.q = 4/3\n",
    )
    cfg = parse_config(path, {"grid.m": 31, "seed": 7})
    assert cfg.grid.m == 31
    assert cfg.seed == 7


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
    assert parse_config(path).command == "exponents"


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
        ("--epsilon", "exponents: eps_reg must be finite"),
        ("--p", "exponents: p must be finite"),
        ("forcing.value", "forcing.value: must be finite"),
    ],
)
def test_non_finite_input_exits_one_naming_its_key(tmp_path, capsys, source, message, value):
    out = tmp_path / "out"
    args = ["solve", "--n", "2", "--m", "5", "--q", str(4.0 / 3.0), "--out", str(out)]
    if source == "forcing.value":
        cfg = _write(tmp_path, "run.cfg", f"forcing.value = {value}\n")
        args += ["--strict-sobolev", "--config", cfg]
    elif source == "--epsilon":
        args += ["--strict-sobolev", "--epsilon", value]
    else:
        args += ["--p", value]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    u = read_grid_function(str(tmp_path / "out" / "u.csv"))
    assert not u.values.any()
    # The regularized energy of the zero field is the eps floor, not 0.
    g = Grid(1, 15)
    e = Exponents(4.0, 4.0 / 3.0, 1, 1e-4)
    floor = energy(
        GridFunction.zeros(g), GridFunction.zeros(g), WeightField.constant(g, 1.0), e
    ).total
    assert float(rec["energy_total"]) == floor


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
