"""Benchmark of the hessneumann command line: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  The workload runs as a closed loop, one pass at a time, until
``--seconds`` is used up (at least two passes).  The last line of stdout is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  The line before
it holds the run context (machine, library versions, CPU steal).

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, the overhead measured between the two passes
(dominated by machine noise) and the overhead estimated from span counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 2

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _steal_s() -> float:
    """Machine-wide CPU steal so far (read-only /proc/stat), in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _blas() -> dict:
    """BLAS build of numpy and the thread count of each loaded OpenBLAS."""
    import ctypes

    import numpy as np

    info = {k: v for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items() if k in ("name", "version")}
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    info["threads"] = threads
    return info


def _context(workload, seed, walls, setup, steal) -> dict:
    import numpy as np
    import scipy

    from hessneumann import ellipticity

    cpu_model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs_depend_on_seed": workload.seeded,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "sweep_workers": ellipticity.worker_count(),
        "machine.steal_s": steal,
        "pass_wall_s": walls,
        "setup_probe_s": setup,
    }


def _setup_probe(name, seed) -> float:
    t0 = time.perf_counter()
    import hessneumann.cli  # noqa: F401  (the import is what is timed)

    workloads.make(name, seed).prepare()
    return time.perf_counter() - t0


def _setup_times(name, seed) -> list[float]:
    """Package import plus input building, timed in each of several fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(workload, out: Path, tracer=None):
    """One timed command; returns (wall, cpu, Check).  The check is not timed."""
    from hessneumann import cli

    log = io.StringIO()
    if tracer is not None:
        tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = cli.main(workload.argv(out))
            except Exception:  # a crash is a failed op, not a failed benchmark
                rc = -1
                traceback.print_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    check = workload.check(out, rc)
    if check.failed:
        check.notes.append(log.getvalue()[-2000:])
    return wall, cpu, check


def measure(workload, seconds: float, trace: bool, work: Path):
    """Run passes; returns (metrics, units, attempted, failed, notes, walls)."""
    walls, cpus, checks = [], [], []
    tracer = tracing.Tracer() if trace else None
    t_start = time.perf_counter()
    while True:
        traced = trace and len(walls) == 1
        out = work / f"pass{len(walls)}"
        wall, cpu, check = run_pass(workload, out, tracer if traced else None)
        shutil.rmtree(out, ignore_errors=True)
        walls.append(wall)
        cpus.append(cpu)
        checks.append(check)
        if len(walls) >= MIN_PASSES and (trace or time.perf_counter() - t_start + statistics.median(walls) > seconds):
            break

    if trace:
        metrics = tracer.metrics()
        metrics["mms.error_inf"] = checks[-1].error_inf
        metrics["trace.wall_s"] = walls[1]
        metrics["trace.overhead_share"] = walls[1] / walls[0] - 1.0
        metrics["trace.overhead_est_share"] = tracer.overhead_s() / walls[1]
        units = tracing.LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    notes = [n for c in checks for n in c.notes]
    attempted = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    return metrics, units, attempted, failed, notes, walls


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hessneumann" / "__init__.py").is_file():
        print(f"error: no hessneumann package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0

    steal0 = _steal_s()
    setup = [] if args.trace else _setup_times(args.workload, args.seed)
    import hessneumann

    if not Path(hessneumann.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hessneumann from {hessneumann.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        metrics, units, attempted, failed, notes, walls = measure(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    context = _context(workload, args.seed, walls, setup, _steal_s() - steal0)
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"context": context}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
