"""Per-layer tracing for the benchmark, installed from outside the package.

Every wrapper is put where the *caller* looks the name up: ``from x import f``
copies the binding into the importing module, so patching only ``x.f`` would
miss those calls.  Nothing under ``src/`` is modified on disk; ``Tracer.restore``
puts every original object back.

Times are inclusive (a span contains its callees).  ``solver.self_s`` is the
solver's own time: newton_solve and continuation_solve minus every traced
callee.  Accumulation is guarded by one lock, because the sweep pool calls the
sampler from several threads at once.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict

FAMILIES = (
    "deleted-term-share",
    "ellipticity-ratio",
    "ellipticity-ratio-quotient",
    "maclaurin-ratio",
    "trace-bound",
)

# Every per-layer metric with its unit; a layer a workload never reaches reads 0.
LAYER_UNITS = {
    "solver.linear_s": "s",
    "solver.factorizations": "count",
    "solver.lu_fill_nnz": "count",
    "solver.jacobian_s": "s",
    "solver.eig_s": "s",
    "solver.diagnostics_s": "s",
    "solver.self_s": "s",
    "solver.newton_steps": "count",
    "solver.linesearch_trials": "count",
    "solver.stages": "count",
    "solver.stage_retries": "count",
    "symfun.sigma_all_s": "s",
    "symfun.sigma_all_rows": "count",
    "symfun.sigma_grad_s": "s",
    "operator.f_grad_s": "s",
    "operator.grad_at_eta_s": "s",
    "ellipticity.sample_block_s": "s",
    "ellipticity.sample_rows": "count",
    "ellipticity.bisection_evals": "count",
    "ellipticity.unique_draw_share": "ratio",
    **{f"ellipticity.family.{f}_s": "s" for f in FAMILIES},
    "ellipticity.workers": "count",
    "ellipticity.worker_busy_s": "s",
    "problem.load_s": "s",
    "problem.build_case_s": "s",
    "fieldio.write_s": "s",
    "mms.error_inf": "1",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
    "trace.overhead_est_share": "ratio",
}


class _Proxy:
    """Stands in for a module or object, overriding some attributes and delegating the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Thread-safe accumulator of span times and counts, plus the patch ledger."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals = defaultdict(float)
        self._maxima = defaultdict(float)
        self._draw_keys = set()
        self._draws = 0
        self._saved = []

    def add(self, key, value=1.0):
        with self._lock:
            self._totals[key] += value

    def maximum(self, key, value):
        with self._lock:
            self._maxima[key] = max(self._maxima[key], value)

    def draw(self, key):
        with self._lock:
            self._draw_keys.add(key)
            self._draws += 1

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call adds its duration to ``<name>_s``.

        ``after(result, args)`` runs outside the timed interval on the result,
        or on ``(None, exc.report)`` when the call raises an error carrying
        a partial solve report.
        """

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            outcome = None
            t0 = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = (None, exc.report) if hasattr(exc, "report") else None
                raise
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self._totals[name + "_s"] += dt
                    self._totals[name + ".self_s"] += dt - children
                    self._totals["trace.calls"] += 1
                if after is not None and outcome is not None:
                    after(outcome, args)

        return traced

    def patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict:
        """Every per-layer metric in LAYER_UNITS; mms.* and trace.* are left 0 for the caller."""
        t = self._totals
        out = {name: t[name] for name in LAYER_UNITS}
        out["solver.lu_fill_nnz"] = self._maxima["solver.lu_fill_nnz"]
        out["solver.self_s"] = t["solver.newton_solve.self_s"] + t["solver.continuation_solve.self_s"]
        out["ellipticity.unique_draw_share"] = len(self._draw_keys) / self._draws if self._draws else 0.0
        out["ellipticity.workers"] = self._maxima["ellipticity.workers"]
        return out

    def overhead_s(self, calibration_calls: int = 20000) -> float:
        """Estimated time tracing added: spans times the cost of one, plus the fill reads.

        The cost of one span is measured on a no-op with a counting hook, in a
        scratch tracer, so the estimate does not depend on run-to-run noise.
        """
        scratch = Tracer()
        noop = scratch.span("noop", lambda x: x, lambda result, args: scratch.add("rows", len(args)))
        t0 = time.perf_counter()
        for _ in range(calibration_calls):
            noop(0)
        per_span = (time.perf_counter() - t0) / calibration_calls
        return self._totals["trace.calls"] * per_span + self._totals["trace.fill_s"]


def install(tracer: Tracer) -> None:
    """Patch every traced name in the hessneumann modules; undo with tracer.restore()."""
    import numpy as np

    from hessneumann import cli, ellipticity, fieldio, operator, problem, solver, symfun

    patch = tracer.patch

    # symfun.sigma_all is bound in five modules; each binding gets its own wrapper
    # so that calls from the sampler's bisection can also be counted apart.
    sigma_all = symfun.sigma_all

    def count_rows(result, args):
        tracer.add("symfun.sigma_all_rows", math.prod(np.shape(args[0])[:-1]))

    def count_bisection(result, args):
        count_rows(result, args)
        tracer.add("ellipticity.bisection_evals")

    for module in (symfun, solver, operator, problem):
        patch(module, "sigma_all", tracer.span("symfun.sigma_all", sigma_all, count_rows))
    patch(ellipticity, "sigma_all", tracer.span("symfun.sigma_all", sigma_all, count_bisection))

    for module in (symfun, operator, ellipticity):
        patch(module, "sigma_grad", tracer.span("symfun.sigma_grad", symfun.sigma_grad))
    for module in (operator, ellipticity):
        patch(module, "f_grad", tracer.span("operator.f_grad", operator.f_grad))
    for module in (operator, solver):
        patch(module, "grad_at_eta", tracer.span("operator.grad_at_eta", operator.grad_at_eta))

    # solver: the linear layer is reached through the ``spla`` module attribute,
    # the eigendecompositions through ``np.linalg``.
    splu = tracer.span("solver.linear", solver.spla.splu)
    # L and U are materialized as new CSC matrices on access (hundreds of MB on
    # large grids), so fill is read only here, in the traced run, and in a span
    # of its own so that the copy is not charged to the solver's self time.
    fill = tracer.span("trace.fill", lambda lu: lu.L.nnz + lu.U.nnz)

    def factor(*args, **kwargs):
        lu = splu(*args, **kwargs)
        tracer.add("solver.factorizations")
        tracer.maximum("solver.lu_fill_nnz", fill(lu))
        return _Proxy(lu, solve=tracer.span("solver.linear", lu.solve))

    patch(solver, "spla", _Proxy(solver.spla, splu=factor))
    linalg = _Proxy(
        np.linalg,
        eigh=tracer.span("solver.eig", np.linalg.eigh),
        eigvalsh=tracer.span("solver.eig", np.linalg.eigvalsh),
    )
    patch(solver, "np", _Proxy(np, linalg=linalg))
    patch(solver, "jacobian", tracer.span("solver.jacobian", solver.jacobian))
    patch(solver, "diagnostics", tracer.span("solver.diagnostics", solver.diagnostics))

    def count_newton(result, args):
        steps = result[1].iterations
        tracer.add("solver.newton_steps", len(steps))
        # each accepted step alpha = 2**-j took j + 1 trials
        tracer.add("solver.linesearch_trials", sum(1 + round(math.log2(1.0 / it.step)) for it in steps))

    def count_stages(result, args):
        stages = result[1].continuation
        tracer.add("solver.stages", len(stages))
        tracer.add("solver.stage_retries", sum(1 for s in stages if not s.converged))

    newton = tracer.span("solver.newton_solve", solver.newton_solve, count_newton)
    continuation = tracer.span("solver.continuation_solve", solver.continuation_solve, count_stages)
    patch(solver, "newton_solve", newton)
    patch(cli, "newton_solve", newton)
    patch(cli, "continuation_solve", continuation)

    # problem and fieldio, as the command line reaches them
    patch(cli, "load_problem", tracer.span("problem.load", cli.load_problem))
    patch(cli, "build_case", tracer.span("problem.build_case", cli.build_case))
    for name in ("write_solution_csv", "write_report_json", "write_field_binary"):
        patch(fieldio, name, tracer.span("fieldio.write", getattr(fieldio, name)))

    # ellipticity: sampler, sweep families, and the sweep thread pool
    def count_draw(result, args):
        n, k, seed, scale, start, count = args
        tracer.add("ellipticity.sample_rows", count)
        tracer.draw((n, k, seed, scale, start, count))

    patch(ellipticity, "sample_block", tracer.span("ellipticity.sample_block", ellipticity.sample_block, count_draw))
    run_sweep = cli.run_sweep
    family_spans = {f: tracer.span(f"ellipticity.family.{f}", run_sweep) for f in FAMILIES}
    patch(cli, "run_sweep", lambda family, *a, **kw: family_spans[family](family, *a, **kw))

    class TracedPool(ellipticity.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.maximum("ellipticity.workers", max_workers or 0)

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.span("ellipticity.worker_busy", fn), *args, **kwargs)

    patch(ellipticity, "ThreadPoolExecutor", TracedPool)
