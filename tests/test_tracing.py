"""The benchmark's tracer (bench/tracing.py) patches names bound in the package's modules.

A binding kept only for the tracer (such as ``problem.sigma_all``) looks unused
in the package, so deleting it breaks ``bench/run.py --trace 1``; this test
installs the tracer, without changing bench/, to catch that.
"""

import importlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # getattr raises AttributeError on a binding that is gone
        originals = {}
        for owner, attr, value in tracer._saved:  # the first save of an attribute holds the original
            originals.setdefault((id(owner), attr), (owner, attr, value))
        patched = list(originals.values())
        assert patched and all(getattr(owner, attr) is not value for owner, attr, value in patched)
        assert any(owner.__name__ == "hessneumann.problem" and attr == "sigma_all" for owner, attr, _ in patched)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is value for owner, attr, value in patched)
