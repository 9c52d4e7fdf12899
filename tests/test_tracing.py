"""The benchmark's tracer (bench/tracing.py) patches names bound in the package's modules.

A binding kept only for the tracer (such as ``problem.sigma_all``) looks unused
in the package, so deleting it breaks ``bench/run.py --trace 1``; this test
installs the tracer, without changing bench/, to catch that.  It also runs a
Newton solve and a sweep under the tracer, since ``solver.np`` is then a proxy
and the sampler and solver entry points are wrappers.
"""

import importlib
import sys
from pathlib import Path

from hessneumann import cli, ellipticity, solver
from hessneumann.problem import build_case, manufactured_problem, paraboloid

REPO = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    # bind cli's lazily loaded solver names first, as any earlier solve does: bound during
    # install, they would copy the tracer's wrappers from solver and keep them after restore
    cli._load_solver()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # getattr raises AttributeError on a binding that is gone
        originals = {}
        for owner, attr, value in tracer._saved:  # the first save of an attribute holds the original
            originals.setdefault((id(owner), attr), (owner, attr, value))
        patched = list(originals.values())
        assert patched and all(getattr(owner, attr) is not value for owner, attr, value in patched)
        assert any(owner.__name__ == "hessneumann.problem" and attr == "sigma_all" for owner, attr, _ in patched)

        spec, _ = build_case("perturbed-paraboloid", 9)
        u0 = manufactured_problem(paraboloid(spec.grid.center), spec.op, spec.beta, spec.grid)[1]
        _, report = solver.newton_solve(u0, spec)
        reports = ellipticity.run_plan([("ellipticity-ratio", 3, 2, None)], samples=300, seed=3)
        metrics = tracer.metrics()
        assert report.converged and metrics["solver.newton_steps"] == len(report.iterations) > 0
        assert reports[0].violations == 0 and metrics["ellipticity.sample_rows"] == 300
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is value for owner, attr, value in patched)
