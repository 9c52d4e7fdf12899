"""Tests of the benchmark itself, on shrunken inputs.

    python3 -m pytest bench/test_bench.py -q

They check that each workload's correctness check reports a deliberately
wrong answer as a failed op, and that tracing wraps names where their callers
bind them, accumulates exactly across the sweep thread pool, leaves nothing
patched behind, and reads LU fill only in a traced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hessneumann import cli, ellipticity, fieldio, solver  # noqa: E402
from hessneumann.grid import ScalarField  # noqa: E402
from hessneumann.problem import load_problem  # noqa: E402

PARABOLOID = HERE.parent / "problems" / "paraboloid-17.json"


def _execute(workload, out):
    return cli.main(workload.argv(out))


@pytest.fixture
def paraboloid_solve(tmp_path):
    """The solve workload on paraboloid-17, whose exact solution is |x - c|^2 / 2."""
    grid = load_problem(PARABOLOID).grid
    exact = 0.5 * ((grid.points() - 0.5) ** 2).sum(axis=-1).reshape(grid.shape)
    fieldio.write_field_binary(tmp_path / "exact.bin", ScalarField(grid, exact))
    return workloads.SolveWorkload(PARABOLOID, tmp_path / "exact.bin")


def test_solve_check_flags_a_perturbed_solution(paraboloid_solve, tmp_path):
    out = tmp_path / "out"
    rc = _execute(paraboloid_solve, out)
    assert paraboloid_solve.check(out, rc).failed == 0

    n, m, values = fieldio.read_field_binary(out / "solution.bin")
    values[m // 2, m // 2, m // 2] += 1e-6
    fieldio.write_field_binary(out / "solution.bin", ScalarField(load_problem(PARABOLOID).grid, values))
    check = paraboloid_solve.check(out, rc)
    assert (check.ops, check.failed) == (1, 1)
    assert "differs from the reference" in check.notes[0]


def test_a_crash_is_a_failed_op(paraboloid_solve, tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "continuation_solve", crash)
    wall, cpu, check = run.run_pass(paraboloid_solve, tmp_path / "out")
    assert (check.ops, check.failed) == (1, 1)
    assert "RuntimeError: injected" in check.notes[-1]


def test_mms_check_flags_a_wrong_error(tmp_path):
    ladder = workloads.MmsWorkload("9,17")
    out = tmp_path / "out"
    rc = _execute(ladder, out)
    check = ladder.check(out, rc)
    assert (check.ops, check.failed) == (2, 0)
    assert check.error_inf > 0

    table = out / "mms_perturbed-paraboloid.csv"
    head, row9, row17 = table.read_text(encoding="utf-8").splitlines()
    cells = row17.split(",")
    cells[-1] = "1.0"  # an observed order of 1 instead of 2
    table.write_text("\n".join([head, row9, ",".join(cells)]) + "\n", encoding="utf-8")
    assert ladder.check(out, rc).failed == 1


def test_lemmas_check_flags_a_one_byte_edit_between_passes(tmp_path):
    lemmas = workloads.LemmasWorkload(seed=7, n_max=3, samples=2000)
    first, second = tmp_path / "a", tmp_path / "b"
    assert lemmas.check(first, _execute(lemmas, first)).failed == 0
    rc = _execute(lemmas, second)
    assert lemmas.check(second, rc).failed == 0

    summary = second / "summary.csv"
    data = bytearray(summary.read_bytes())
    data[-3] = ord("9") if data[-3] != ord("9") else ord("8")
    summary.write_bytes(bytes(data))
    check = lemmas.check(second, rc)
    assert (check.ops, check.failed) == (len(ellipticity.default_sweep_plan(3)), 1)


def test_lemmas_check_uses_a_stored_reference(tmp_path, monkeypatch):
    reference = tmp_path / "summary-n3-s2000-seed7.csv"
    out = tmp_path / "out"
    rc = _execute(workloads.LemmasWorkload(seed=7, n_max=3, samples=2000), out)
    shutil.copy(out / "summary.csv", reference)
    monkeypatch.setattr(workloads, "REF", tmp_path)
    assert workloads.LemmasWorkload(seed=7, n_max=3, samples=2000).check(out, rc).failed == 0

    reference.write_bytes(reference.read_bytes().replace(b",7,", b",8,", 1))
    assert workloads.LemmasWorkload(seed=7, n_max=3, samples=2000).check(out, rc).failed == 1


def test_stored_references_match_the_default_workloads():
    assert workloads.SolveWorkload().reference.is_file()
    lemmas = workloads.LemmasWorkload(seed=42)
    assert lemmas.expected is not None
    assert len(lemmas.expected.splitlines()) == 1 + len(lemmas.prepare())


BINDINGS = [
    (solver, "sigma_all"),
    (solver, "grad_at_eta"),
    (solver, "spla"),
    (solver, "np"),
    (ellipticity, "sigma_all"),
    (ellipticity, "ThreadPoolExecutor"),
    (cli, "load_problem"),
    (cli, "newton_solve"),
    (cli, "continuation_solve"),
    (cli, "run_sweep"),
]


def test_tracing_patches_caller_bindings_and_restores_them(paraboloid_solve, tmp_path):
    before = [getattr(owner, name) for owner, name in BINDINGS]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert all(getattr(o, n) is not b for (o, n), b in zip(BINDINGS, before))
        assert _execute(paraboloid_solve, tmp_path / "solve") == 0
        assert _execute(workloads.MmsWorkload("9,17"), tmp_path / "mms") == 0
    finally:
        tracer.restore()
    assert all(getattr(o, n) is b for (o, n), b in zip(BINDINGS, before))

    got = tracer.metrics()
    assert set(got) == set(tracing.LAYER_UNITS)
    assert got["problem.load_s"] > 0 and got["problem.build_case_s"] > 0
    assert got["solver.stages"] == 1 and got["solver.stage_retries"] == 0
    # the MMS ladder takes two Newton steps per grid, each one factorization
    assert got["solver.factorizations"] == got["solver.newton_steps"] > 0
    assert got["solver.linesearch_trials"] >= got["solver.newton_steps"]
    assert 0 < got["solver.self_s"] < got["solver.linear_s"]
    assert got["solver.eig_s"] > 0 and got["operator.grad_at_eta_s"] > 0
    assert got["symfun.sigma_all_rows"] > 0 and got["fieldio.write_s"] > 0
    assert got["ellipticity.sample_rows"] == 0


def test_tracing_counts_exactly_across_the_sweep_pool(tmp_path):
    lemmas = workloads.LemmasWorkload(seed=3, n_max=2, samples=45000)  # three chunks per sweep
    tracer = tracing.Tracer()
    wall, cpu, check = run.run_pass(lemmas, tmp_path / "out", tracer)
    assert check.failed == 0
    got = tracer.metrics()
    sweeps = len(lemmas.prepare())
    assert got["ellipticity.sample_rows"] == sweeps * 45000
    assert got["ellipticity.unique_draw_share"] == pytest.approx(1 / sweeps)
    pool = ellipticity.worker_count()
    assert got["ellipticity.workers"] == (pool if pool > 1 else 0)
    assert got["ellipticity.worker_busy_s"] > 0 and got["ellipticity.bisection_evals"] > 0
    assert sum(got[f"ellipticity.family.{f}_s"] for f in tracing.FAMILIES) <= wall


def test_tracer_loses_no_update_under_thread_switching():
    tracer = tracing.Tracer()
    bump = tracer.span("x", lambda: tracer.add("hits"))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [bump() for _ in range(2000)]) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tracer._totals["hits"] == 12000


def test_lu_fill_is_read_only_in_the_traced_run(tmp_path, monkeypatch):
    reads = []
    real_splu = solver.spla.splu

    class SpyLU:
        def __init__(self, lu):
            self._lu = lu
            self.solve = lu.solve

        @property
        def L(self):
            reads.append("L")
            return self._lu.L

        @property
        def U(self):
            reads.append("U")
            return self._lu.U

    monkeypatch.setattr(solver, "spla", types.SimpleNamespace(splu=lambda a, **kw: SpyLU(real_splu(a, **kw))))
    ladder = workloads.MmsWorkload("9,17")
    assert run.run_pass(ladder, tmp_path / "plain")[2].failed == 0
    assert reads == []
    tracer = tracing.Tracer()
    assert run.run_pass(ladder, tmp_path / "traced", tracer)[2].failed == 0
    assert reads and tracer.metrics()["solver.lu_fill_nnz"] > 0


def test_measure_reports_every_metric(tmp_path):
    ladder = workloads.MmsWorkload("9,17")
    metrics, units, attempted, failed, notes, walls = run.measure(ladder, 0.0, False, tmp_path)
    assert (attempted, failed, len(walls)) == (4, 0, run.MIN_PASSES)
    assert set(metrics) | {"setup_s"} == set(units) == set(run.E2E_UNITS)
    assert all(v > 0 for v in metrics.values())

    metrics, units, attempted, failed, notes, walls = run.measure(ladder, 0.0, True, tmp_path)
    assert (attempted, failed, len(walls)) == (4, 0, 2)
    assert set(metrics) == set(units) == set(tracing.LAYER_UNITS)
    assert metrics["mms.error_inf"] > 0 and np.isfinite(metrics["trace.overhead_share"])
    assert 0 < metrics["trace.overhead_est_share"] < 1


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mms-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
