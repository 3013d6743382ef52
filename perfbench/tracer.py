"""Spans at pseudophase's layer boundaries, recorded from outside the package.

The tracer replaces the public functions through which one layer calls the
next (and the two CLI input builders) in every ``pseudophase`` module that
binds them, records one span per call in memory (name, start, end, parent,
time covered by child spans, one layer-specific count), and turns the spans
into per-layer figures when the command has finished.  Nothing under the
package changes; a name that no longer exists is reported on stderr and its
figures read 0.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

#: (defining module, attribute, span name).  Functions are replaced wherever
#: a pseudophase module binds the same object.
FUNCTIONS = (
    ("pseudophase.grid", "forward_diff", "forward_diff"),
    ("pseudophase.grid", "neg_divergence", "neg_divergence"),
    ("pseudophase.grid", "sobolev_norm", "sobolev_norm"),
    ("pseudophase.grid", "read_grid_function", "csv_read"),
    ("pseudophase.grid", "write_grid_function", "csv_write"),
    ("pseudophase.energy", "energy", "energy"),
    ("pseudophase.energy", "hessian_apply", "hessian_apply"),
    ("pseudophase.energy", "weak_residual", "weak_residual"),
    ("pseudophase.solver", "solve_inner", "solve_inner"),
    ("pseudophase.control", "optimize_control", "optimize_control"),
    ("pseudophase.control", "reduced_gradient", "reduced_gradient"),
    ("pseudophase.convexity", "estimate_modulus", "estimate_modulus"),
    ("pseudophase.convexity", "grid_function_space", "grid_function_space"),
    ("pseudophase.cli", "parse_config", "parse_config"),
    ("pseudophase.cli", "_build_weight", "build_input"),
    ("pseudophase.cli", "_build_forcing", "build_input"),
)

COMPUTE = ("solve_inner", "optimize_control", "estimate_modulus")

#: Calls per batch when timing a kernel on the run's state.
MICRO_CALLS = 50

# Span record layout.
NAME, START, END, PARENT, CHILD, EXTRA = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.energy_args: tuple | None = None

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, 0.0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.calls[name] = self.calls.get(name, 0) + 1
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def wrap(self, name: str, fn, extra=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def run_root(self, fn, *args):
        return self.wrap("cli", fn)(*args)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items() if k.startswith("pseudophase")}
        extras = {
            "solve_inner": lambda a, k, r: r.iterations,
            "optimize_control": lambda a, k, r: r.outer_iters,
            "estimate_modulus": lambda a, k, r: r.trials,
            "csv_write": lambda a, k, r: os.path.getsize(a[1]),
        }
        for module_name, attr, span in FUNCTIONS:
            original = getattr(modules.get(module_name), attr, None)
            if original is None:
                print(f"tracer: {module_name}.{attr} not found; its figures read 0", file=sys.stderr)
                continue
            if attr == "energy":
                wrapped = self._wrap_energy(original)
            elif attr == "grid_function_space":
                wrapped = self._wrap_space(original)
            else:
                wrapped = self.wrap(span, original, extras.get(span))
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, key, value))
                        setattr(module, key, wrapped)
        operator = getattr(modules.get("pseudophase.control"), "SolutionOperator", None)
        if operator is None or not hasattr(operator, "report"):
            print("tracer: SolutionOperator.report not found; cache figures read 0", file=sys.stderr)
        else:
            self.patched.append((operator, "report", operator.report))
            operator.report = self._wrap_report(operator.report)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self.patched):
            setattr(owner, key, value)
        self.patched.clear()

    def _wrap_energy(self, original):
        traced = self.wrap("energy", original)

        def energy(*args, **kwargs):
            self.energy_args = args
            return traced(*args, **kwargs)

        return energy

    def _wrap_report(self, original):
        tracer = self

        def report(op, *args, **kwargs):
            warm = kwargs.get("warm", args[1] if len(args) > 1 else None)
            solves = tracer.calls.get("solve_inner", 0)
            span = tracer._open("report")
            try:
                return original(op, *args, **kwargs)
            finally:
                tracer._close(span)
                miss = tracer.calls.get("solve_inner", 0) > solves
                # 0 = cache hit, 1 = cold solve, 2 = warm-started trial solve.
                span[EXTRA] = 0 if not miss else (1 if warm is None else 2)

        return report

    def _wrap_space(self, original):
        def grid_function_space(*args, **kwargs):
            space = original(*args, **kwargs)
            return type(space)(
                sample=self.wrap("sample", space.sample), norm=self.wrap("norm", space.norm)
            )

        return grid_function_space

    # -- figures ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        self.uninstall()
        spans = self.spans
        root = next((s for s in spans if s[NAME] == "cli"), None)

        def named(name, under=None):
            out = [s for s in spans if s[NAME] == name]
            if under is not None:
                out = [s for s in out if self._has_ancestor(s, under)]
            return out

        def total(items):
            return sum(s[END] - s[START] for s in items)

        def per_call_us(items):
            return 1e6 * total(items) / len(items) if items else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        out.update(self._micro())
        norms = named("sobolev_norm")
        out["grid.sobolev_norm_calls"] = len(norms)
        out["grid.sobolev_norm_s"] = total(norms)
        out["grid.csv_read_s"] = total(named("csv_read"))
        writes = named("csv_write")
        out["grid.csv_write_s"] = total(writes)
        out["grid.csv_bytes"] = sum(s[EXTRA] for s in writes)

        energies = named("energy")
        out["energy.energy_us"] = per_call_us(energies)
        out["energy.energy_calls"] = len(energies)
        hess = named("hessian_apply")
        out["energy.hessian_apply_us"] = per_call_us(hess)
        out["energy.hessian_apply_calls"] = len(hess)
        weak = named("weak_residual")
        out["energy.weak_residual_us"] = per_call_us(weak)
        out["energy.weak_residual_calls"] = len(weak)

        solves = named("solve_inner")
        iterations = sum(s[EXTRA] for s in solves)
        certificate = total(named("weak_residual", under="solve_inner"))
        descent = total(solves) - certificate
        out["solver.iterations"] = ratio(iterations, len(solves))
        out["solver.solve_s"] = ratio(total(solves), len(solves))
        out["solver.descent_s"] = ratio(descent, len(solves))
        out["solver.certificate_s"] = ratio(certificate, len(solves))
        out["solver.us_per_iteration"] = 1e6 * ratio(descent, iterations)

        loop = named("optimize_control")
        inner = named("solve_inner", under="optimize_control")
        reports = named("report", under="optimize_control")
        trials = sum(1 for s in reports if s[EXTRA] == 2)
        outer = sum(s[EXTRA] for s in loop)
        gradients = named("reduced_gradient")
        out["control.outer_iters"] = outer
        out["control.trial_solves"] = trials
        out["control.accepted_trial_ratio"] = ratio(outer, trials)
        out["control.cache_hit_ratio"] = ratio(sum(1 for s in reports if s[EXTRA] == 0), len(reports))
        out["control.inner_iterations"] = sum(s[EXTRA] for s in inner)
        out["control.inner_solve_s"] = total(inner)
        out["control.adjoint_s"] = total(gradients) - total(
            named("solve_inner", under="reduced_gradient")
        )
        out["control.cg_matvecs"] = len(named("hessian_apply", under="optimize_control"))
        out["control.self_s"] = sum(self._self(s) for s in loop)

        sampler = named("estimate_modulus")
        out["convexity.trials_per_s"] = ratio(sum(s[EXTRA] for s in sampler), total(sampler))
        out["convexity.functional_s"] = total(named("energy", under="estimate_modulus"))
        out["convexity.sampling_s"] = total(named("sample", under="estimate_modulus")) + total(
            named("norm", under="estimate_modulus")
        )
        out["convexity.self_s"] = sum(self._self(s) for s in sampler)

        out["cli.parse_s"] = total(named("parse_config"))
        out["cli.input_build_s"] = total(named("build_input"))
        root_index = spans.index(root) if root is not None else -1
        compute_end = max(
            (s[END] for s in spans if s[NAME] in COMPUTE and s[PARENT] == root_index),
            default=None,
        )
        out["cli.artifact_write_s"] = root[END] - compute_end if compute_end is not None else 0.0
        out["cli.self_s"] = self._self(root) if root is not None else 0.0
        return out

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    @staticmethod
    def _self(span: list) -> float:
        return span[END] - span[START] - span[CHILD]

    def _micro(self) -> dict[str, float]:
        """Per-call times of the grid kernels and the public gradient.

        Timed on the last state the energy layer saw in this run, with the
        wrappers removed, as the median of five batches.
        """
        names = ("grid.forward_diff_us", "grid.neg_divergence_us", "energy.gradient_us")
        if self.energy_args is None:
            return dict.fromkeys(names, 0.0)
        # The package re-exports a function named ``energy``, so look the
        # submodules up directly.
        energy_mod = sys.modules["pseudophase.energy"]
        grid_mod = sys.modules["pseudophase.grid"]
        u, f, mu, e = self.energy_args[:4]
        forward_diff = getattr(grid_mod, "forward_diff", None)
        cases = (
            (forward_diff, (u, 0)),
            (getattr(grid_mod, "neg_divergence", None), (forward_diff(u, 0),) if forward_diff else ()),
            (getattr(energy_mod, "energy_gradient", None), (u, f, mu, e)),
        )
        out = {}
        for name, (fn, args) in zip(names, cases):
            if fn is None or not args:
                print(f"tracer: no function behind {name}; it reads 0", file=sys.stderr)
                out[name] = 0.0
                continue
            batches = []
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(MICRO_CALLS):
                    fn(*args)
                batches.append((time.perf_counter() - start) / MICRO_CALLS)
            out[name] = 1e6 * statistics.median(batches)
        return out
