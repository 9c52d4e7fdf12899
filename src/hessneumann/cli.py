"""Batch command-line entry point.

Subcommands: verify-lemmas (inequality sweeps), solve (continuation solve of
a problem file), mms-study (manufactured-solution convergence study), and
sample-cone (emit cone samples).  Exit codes: 0 success, 1 mathematical
failure (violation or nonconvergence), 2 usage or validation error.  The
environment variable HN_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fieldio
from .ellipticity import _MAX_SCALE, ConeSampler, SweepReport, default_sweep_plan, run_plan, worker_count
from .ellipticity import run_sweep  # noqa: F401  (unused here; bench/tracing.py patches this binding)
from .problem import _MAX_NODES, MANUFACTURED_CASES, ProblemFormatError, build_case, load_problem
from .solver import NewtonOptions, NonconvergenceError, continuation_solve, newton_solve
from .symfun import ConeError

__all__ = ["main", "entry"]

_EXACT_FLOOR = 1e-10  # errors below this are at stencil-exactness level
_MIN_ORDER = 1.7
# sample-cone holds all count * n values, and their CSV text, in memory at
# once: about 90 MB per million values
_MAX_SAMPLE_VALUES = 4_000_000


class _Failure(Exception):
    """A command's own failure: main prints ``error: <message>`` and exits with ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _checked(kind, ok, wanted: str):
    """argparse type: a number of the given kind for which ok(value) holds."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted} (got {text!r})")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its "invalid ... value" message
    return parse


_SCALE = _checked(float, lambda x: 0.0 < x <= _MAX_SCALE, f"in (0, {_MAX_SCALE:g}]")
_POSITIVE = _checked(int, lambda x: x >= 1, "positive")
_SEED = _checked(int, lambda x: x >= 0, ">= 0")  # numpy seeds its generators from nonnegative integers


def _grid_sizes(text: str) -> list[int]:
    """argparse type for --grids: at least two distinct odd sizes >= 9, comma-separated."""
    try:
        grids = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        grids = []
    if len(grids) < 2 or len(set(grids)) != len(grids) or any(m < 9 or m % 2 == 0 for m in grids):
        raise argparse.ArgumentTypeError(f"needs at least two distinct odd sizes >= 9 (got {text!r})")
    return grids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hessneumann", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemmas", help="run all inequality sweeps and write reports")
    p.add_argument("--n-max", type=_checked(int, lambda x: 2 <= x <= 6, "in [2, 6]"), default=6)
    p.add_argument("--samples", type=_POSITIVE, default=100000)
    p.add_argument("--seed", type=_SEED, default=42)
    p.add_argument("--scale", type=_SCALE, default=1.0)
    p.add_argument("--out", type=Path, default=Path("."))
    p.set_defaults(run=_cmd_verify_lemmas)

    p = sub.add_parser("solve", help="continuation-solve a JSON problem file")
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--out", type=Path, default=Path("."))
    p.add_argument("--tol", type=_checked(float, lambda x: 0.0 <= x < math.inf, "finite and >= 0"), default=None)
    p.add_argument("--max-iter", type=_POSITIVE, default=50)
    p.add_argument("--dump-field", action="store_true", help="also write the binary field dump")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("mms-study", help="manufactured-solution convergence study")
    p.add_argument("--case", required=True, choices=MANUFACTURED_CASES)
    p.add_argument("--grids", type=_grid_sizes, default="9,17,33", help="comma-separated m values")
    p.add_argument("--out", type=Path, default=Path("."))
    p.set_defaults(run=_cmd_mms_study)

    p = sub.add_parser("sample-cone", help="emit deterministic cone samples as CSV")
    p.add_argument("--n", type=_checked(int, lambda x: x >= 2, ">= 2"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=_SEED, default=42)
    p.add_argument("--scale", type=_SCALE, default=1.0)
    p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    p.set_defaults(run=_cmd_sample_cone)

    return parser


def _cmd_verify_lemmas(args) -> None:
    try:
        workers = worker_count()
    except ValueError:
        raise _Failure(2, f"HN_THREADS must be an integer (got {os.environ['HN_THREADS']!r})") from None
    args.out.mkdir(parents=True, exist_ok=True)
    plan = default_sweep_plan(args.n_max)
    reports = run_plan(plan, samples=args.samples, seed=args.seed, scale=args.scale, workers=workers)
    for (family, n, k, l), rep in zip(plan, reports):
        tag = f"{family}_n{n}_k{k}" + (f"_l{l}" if l is not None else "")
        (args.out / f"{tag}.json").write_text(rep.to_json() + "\n", encoding="utf-8")
        status = "ok" if rep.violations == 0 else f"{rep.violations} VIOLATIONS"
        print(f"{tag}: min_ratio={rep.min_ratio:.6g} [{status}]")

    summary = args.out / "summary.csv"
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write(SweepReport.CSV_HEADER + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")

    bad = [rep for rep in reports if rep.violations > 0]
    if bad:
        worst = bad[0]
        raise _Failure(
            1,
            f"{len(bad)} sweep(s) with violations; first offender "
            f"{worst.label} n={worst.n} k={worst.k} l={worst.l} argmin={worst.argmin}",
        )
    print(f"all {len(reports)} sweeps clean; summary in {summary}")


def _cmd_solve(args) -> None:
    spec = load_problem(args.problem)
    args.out.mkdir(parents=True, exist_ok=True)
    opts = NewtonOptions(tol=args.tol, max_iter=args.max_iter)
    try:
        solution, report = continuation_solve(spec, opts=opts)
    except NonconvergenceError as exc:
        fieldio.write_report_json(args.out / "report.json", exc.report)
        raise
    fieldio.write_solution_csv(args.out / "solution.csv", solution)
    fieldio.write_report_json(args.out / "report.json", report)
    if args.dump_field:
        fieldio.write_field_binary(args.out / "solution.bin", solution)
    print(
        f"converged: residual={report.residual_norm:.3e} margin={report.final_margin:.3e} "
        f"stages={len(report.continuation)}"
    )


def _cmd_mms_study(args) -> None:
    dim = MANUFACTURED_CASES[args.case].n
    for m in args.grids:
        if m**dim > _MAX_NODES:
            raise _Failure(2, f"grid of {m}^{dim} nodes exceeds the limit of {_MAX_NODES} nodes")
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    prev = None
    for m in args.grids:
        spec, u_exact = build_case(args.case, m)
        try:
            solution, report = newton_solve(u_exact, spec)
        except NonconvergenceError as exc:
            raise _Failure(1, f"m={m}: {exc}") from exc
        if not report.converged:
            raise _Failure(1, f"m={m}: Newton did not converge")
        err = float(np.abs(solution.values - u_exact.values).max())
        h = float(spec.grid.h.max())
        rows.append([m, h, err, None])
        if prev is not None:
            m0, h0, e0, _ = prev
            rows[-1][3] = math.log(e0 / err) / math.log(h0 / h) if err > 0 and e0 > 0 else float("inf")
        prev = rows[-1]

    exact = all(r[2] < _EXACT_FLOOR for r in rows)
    out_csv = args.out / f"mms_{args.case}.csv"
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write("m,h,error_inf,observed_order\n")
        for m, h, err, order in rows:
            cell = "exact" if exact else ("" if order is None else f"{order:.6g}")
            fh.write(f"{m},{h:.17g},{err:.17g},{cell}\n")
    for m, h, err, order in rows:
        shown = "exact" if exact else ("-" if order is None else f"{order:.3f}")
        print(f"m={m:4d} h={h:.5g} err={err:.6e} order={shown}")

    if exact:
        print("errors at stencil-exactness level; study passes")
        return
    final_order = rows[-1][3]
    if not final_order >= _MIN_ORDER:
        raise _Failure(1, f"final observed order {final_order} below {_MIN_ORDER}")
    print(f"final observed order {final_order:.3f} >= {_MIN_ORDER}")


def _cmd_sample_cone(args) -> None:
    if args.count * args.n > _MAX_SAMPLE_VALUES:
        raise _Failure(2, f"--count {args.count} times --n {args.n} exceeds the limit of {_MAX_SAMPLE_VALUES} values")
    try:
        sampler = ConeSampler(args.n, args.k, args.seed, args.scale)
    except ValueError as exc:
        raise _Failure(2, str(exc)) from exc
    eta = sampler.draw_batch(args.count)
    lines = ["index," + ",".join(f"eta{i + 1}" for i in range(args.n))]
    for i, row in enumerate(eta):
        lines.append(f"{i}," + ",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    """Run one command; return 0, 1 (mathematical failure) or 2 (usage or input error)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.run(args)
    except _Failure as exc:
        code, message = exc.code, str(exc)
    except (ConeError, NonconvergenceError) as exc:
        code, message = 1, str(exc)
    except (ProblemFormatError, OSError) as exc:
        code, message = 2, str(exc)
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
