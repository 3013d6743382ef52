"""Run one pseudophase CLI command in this process and time its phases.

    python3 perfbench/launch.py MARKS_JSON TRACE -- CLI_ARGS...

Runs ``pseudophase.cli.main(CLI_ARGS)`` exactly as ``python -m
pseudophase.cli`` would, after wrapping the CLI's references to
``solve_inner``, ``optimize_control`` and ``estimate_modulus`` so the first
call into any of them marks the end of set-up.  MARKS_JSON receives the
monotonic time of that mark and of the moment ``main`` returned (artifacts
closed), the CPU seconds between the two and the peak resident set.  With
TRACE = 1 the package's layer boundaries are wrapped too (see tracer.py)
and the per-layer figures are added under "layers".
"""

import sys
import time


def main() -> int:
    marks_path, trace_flag, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py MARKS_JSON TRACE -- CLI_ARGS...")
    import pseudophase.cli as cli

    marks: dict[str, float] = {}
    tracer = None
    if trace_flag == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def first_call(fn):
        def wrapper(*args, **kwargs):
            if "setup_end" not in marks:
                marks["setup_end"] = time.monotonic()
                marks["cpu_start"] = time.process_time()
            return fn(*args, **kwargs)

        return wrapper

    for name in ("solve_inner", "optimize_control", "estimate_modulus"):
        setattr(cli, name, first_call(getattr(cli, name)))

    if tracer is None:
        status = cli.main(argv)
    else:
        status = tracer.run_root(cli.main, argv)
    marks["end"] = time.monotonic()
    marks["cpu_end"] = time.process_time()

    import json
    import resource

    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    marks["status"] = status
    marks["module"] = cli.__file__
    if tracer is not None:
        marks["layers"] = tracer.layer_metrics()
    with open(marks_path, "w", encoding="ascii") as fh:
        json.dump(marks, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
