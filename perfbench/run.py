"""Time to a checked result for the pseudophase CLI on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Each operation is one CLI command, ``python -m pseudophase.cli`` semantics,
run in its own process on one seeded input, one at a time, with BLAS pinned
to one thread.  A run repeats whole rounds of operations (see workloads.py)
until the next round would end after S seconds, always at least one round.
Every operation's artifacts are checked against numpy computations made
apart from the program (checker.py), and every rerun of an input must give
byte-identical artifacts, else the operation counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, each the median over the run's operations.  With --trace 0
they are the end-to-end metrics; with --trace 1 the per-layer figures from
spans recorded around the package's layer boundaries (tracer.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: A run must end well inside three minutes, whatever the program does.
HARD_LIMIT_S = 165.0

END_TO_END = {"setup_s": "s", "op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "grid.forward_diff_us": "us", "grid.neg_divergence_us": "us",
    "grid.sobolev_norm_calls": "count", "grid.sobolev_norm_s": "s",
    "grid.csv_read_s": "s", "grid.csv_write_s": "s", "grid.csv_bytes": "bytes",
    "energy.energy_us": "us", "energy.energy_calls": "count", "energy.gradient_us": "us",
    "energy.hessian_apply_us": "us", "energy.hessian_apply_calls": "count",
    "energy.weak_residual_us": "us", "energy.weak_residual_calls": "count",
    "solver.iterations": "count", "solver.solve_s": "s", "solver.descent_s": "s",
    "solver.certificate_s": "s", "solver.us_per_iteration": "us",
    "control.outer_iters": "count", "control.trial_solves": "count",
    "control.accepted_trial_ratio": "ratio", "control.cache_hit_ratio": "ratio",
    "control.inner_iterations": "count", "control.inner_solve_s": "s",
    "control.adjoint_s": "s", "control.cg_matvecs": "count", "control.self_s": "s",
    "convexity.trials_per_s": "1/s", "convexity.functional_s": "s",
    "convexity.sampling_s": "s", "convexity.self_s": "s",
    "cli.parse_s": "s", "cli.input_build_s": "s", "cli.artifact_write_s": "s",
    "cli.self_s": "s", "trace.op_s": "s",
}


def _env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    return env


def _digest(folder: str) -> str:
    sha = hashlib.sha256()
    for name in sorted(os.listdir(folder)):
        sha.update(name.encode() + b"\0")
        with open(os.path.join(folder, name), "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def _run_op(root, work, inp, trace, env, timeout):
    """Run one CLI command; returns (metrics, failure reason or None)."""
    if os.path.isdir(inp.out):
        shutil.rmtree(inp.out)
    marks_path = os.path.join(work, "marks.json")
    if os.path.exists(marks_path):
        os.remove(marks_path)
    cmd = [
        sys.executable, os.path.join(HERE, "launch.py"), marks_path, str(trace), "--",
        inp.command, "--config", os.path.relpath(inp.config, root),
        "--out", os.path.relpath(inp.out, root),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-400:]}"
    with open(marks_path, "r", encoding="ascii") as fh:
        marks = json.load(fh)
    if not os.path.realpath(marks["module"]).startswith(os.path.realpath(os.path.join(root, "src"))):
        return None, f"imported pseudophase from {marks['module']}, not from this checkout"
    if "setup_end" not in marks:
        return None, "the command never reached the solver, control loop or sampler"
    op_s = marks["end"] - marks["setup_end"]
    metrics = {
        "setup_s": marks["setup_end"] - spawned,
        "op_s": op_s,
        "cpu_s": marks["cpu_end"] - marks["cpu_start"],
        "peak_rss_mb": marks["peak_rss_mb"],
    }
    if trace:
        metrics = dict(marks["layers"], **{"trace.op_s": op_s})
    return metrics, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pseudophase", "cli.py")):
        print("error: run from a pseudophase checkout; src/pseudophase/cli.py not found", file=sys.stderr)
        return 2
    # Relative to the checkout root, which is the working directory of every
    # process, so the paths written into configs stay short and plain.
    work = os.path.join(".bench_build", "perfbench", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    build, distinct = WORKLOADS[args.workload]
    inputs = [build(args.seed, index, work) for index in range(distinct)]
    order = list(range(distinct)) + [0]
    env = _env(root)

    samples: list[dict[str, float]] = []
    first_digest: dict[int, str] = {}
    attempted = failed = 0
    problems: list[str] = []
    rounds = 0
    aborted = False
    while not aborted:
        round_start = time.monotonic()
        for index in order:
            inp = inputs[index]
            attempted += 1
            remaining = HARD_LIMIT_S - (time.monotonic() - started)
            metrics, reason = _run_op(root, work, inp, args.trace, env, max(remaining, 1.0))
            if reason is None:
                digest = _digest(inp.out)
                if index not in first_digest:
                    first_digest[index] = digest
                    try:
                        found = inp.check(inp.out)
                    except (OSError, ValueError, KeyError) as err:
                        found = [f"unreadable artifact: {err!r}"]
                    problems += [f"input {index}: {p}" for p in found]
                elif digest != first_digest[index]:
                    reason = "artifacts differ from the earlier run of the same input"
            if reason is not None:
                failed += 1
                print(f"failed: {args.workload} input {index}: {reason}", file=sys.stderr)
                if reason.startswith("timed out"):
                    aborted = True
                    break
                continue
            samples.append(metrics)
        rounds += 1
        now = time.monotonic()
        # Stop unless another round of the same length still ends in time.
        if (now - started) + (now - round_start) > min(args.seconds, HARD_LIMIT_S):
            break
    shutil.rmtree(work, ignore_errors=True)

    for line in problems:
        print(f"incorrect: {args.workload} {line}", file=sys.stderr)
    if not samples:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(f"{args.workload}: {rounds} round(s), {attempted} operations", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
