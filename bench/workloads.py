"""The benchmark's workloads: the command each pass runs and how its output is checked.

Each workload drives ``hessneumann.cli.main`` in-process, exactly as a user's
command line would, and then checks the files the command wrote.  An op is one
solve, one grid of the MMS ladder, or one sweep; it fails if the command
raised or did not converge, or if its output fails the check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF = HERE / "ref"

LEMMA_N_MAX = 6
# 40000 samples are two sampling chunks per sweep, so every sweep runs on the
# thread pool; a pass takes about as long as one psi-zero-17 solve.
LEMMA_SAMPLES = 40000
MMS_GRIDS = "9,17,25"
ORDER_TARGET, ORDER_SLACK = 2.0, 0.3


@dataclass
class Check:
    ops: int
    failed: int
    notes: list[str] = field(default_factory=list)
    error_inf: float = 0.0


class SolveWorkload:
    """solve on a bundled problem file; seed-independent and deterministic."""

    name = "solve-psi-zero-17"
    seeded = False

    def __init__(self, problem=ROOT / "problems" / "psi-zero-17.json", reference=REF / "psi-zero-17.bin"):
        self.problem = Path(problem)
        self.reference = Path(reference)

    def prepare(self):
        from hessneumann.problem import load_problem

        return load_problem(self.problem)

    def argv(self, out: Path) -> list[str]:
        return ["solve", "--problem", str(self.problem), "--out", str(out), "--dump-field"]

    def check(self, out: Path, rc: int) -> Check:
        import numpy as np

        from hessneumann.fieldio import read_field_binary

        notes = []
        if rc != 0:
            notes.append(f"exit code {rc}")
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            _, _, values = read_field_binary(out / "solution.bin")
        except (OSError, ValueError) as exc:
            return Check(1, 1, notes + [f"output unreadable: {exc}"])
        if not report["converged"]:
            notes.append("not converged")
        if not all(it["min_margin"] > 0.0 for it in report["iterations"]):
            notes.append("an iterate left the cone")
        last = report["continuation"][-1] if report["continuation"] else None
        if last is None or last["t"] != 1.0 or not last["converged"]:
            notes.append(f"last stage is {last}, not a converged t = 1")
        # the residual tolerance newton_solve uses by default
        tol = 1e-10 * (1.0 + float(np.abs(self.prepare().psi_tilde()).max()))
        _, _, ref = read_field_binary(self.reference)
        diff = float(np.abs(values - ref).max()) if values.shape == ref.shape else math.inf
        if not diff <= tol:
            notes.append(f"solution differs from the reference by {diff:.3e} > {tol:.3e}")
        return Check(1, int(bool(notes)), notes)


class MmsWorkload:
    """mms-study ladder on the perturbed paraboloid; seed-independent and deterministic."""

    name = "mms-ladder"
    seeded = False
    case = "perturbed-paraboloid"

    def __init__(self, grids: str = MMS_GRIDS):
        self.grids = [int(m) for m in grids.split(",")]

    def prepare(self):
        from hessneumann.problem import build_case

        return [build_case(self.case, m) for m in self.grids]

    def argv(self, out: Path) -> list[str]:
        return ["mms-study", "--case", self.case, "--grids", ",".join(map(str, self.grids)), "--out", str(out)]

    def check(self, out: Path, rc: int) -> Check:
        notes = [] if rc == 0 else [f"exit code {rc}"]
        try:
            with open(out / f"mms_{self.case}.csv", encoding="utf-8", newline="") as fh:
                rows = {int(r["m"]): r for r in csv.DictReader(fh)}
        except (OSError, ValueError) as exc:
            return Check(len(self.grids), len(self.grids), notes + [f"output unreadable: {exc}"])
        failed = 0
        for i, m in enumerate(self.grids):
            row = rows.get(m)
            try:
                err = float(row["error_inf"]) if row else math.nan
                order = float(row["observed_order"]) if row and i > 0 else ORDER_TARGET
            except ValueError:
                err = order = math.nan
            if not (err > 0 and math.isfinite(err) and abs(order - ORDER_TARGET) <= ORDER_SLACK):
                failed += 1
                notes.append(f"m={m}: row {row}")
        last = rows.get(self.grids[-1])
        err_inf = float(last["error_inf"]) if last and not failed else 0.0
        return Check(len(self.grids), failed, notes, err_inf)


class LemmasWorkload:
    """verify-lemmas sweeps; the seed picks the sample streams.

    summary.csv must equal ref/summary-n<N>-s<S>-seed<seed>.csv where such a
    reference exists, and must be byte-identical between passes of one run.
    """

    name = "verify-lemmas"
    seeded = True

    def __init__(self, seed: int, n_max: int = LEMMA_N_MAX, samples: int = LEMMA_SAMPLES):
        self.seed, self.n_max, self.samples = seed, n_max, samples
        ref = REF / f"summary-n{n_max}-s{samples}-seed{seed}.csv"
        self.expected = ref.read_bytes() if ref.is_file() else None

    def prepare(self):
        from hessneumann.ellipticity import default_sweep_plan

        return default_sweep_plan(self.n_max)

    def argv(self, out: Path) -> list[str]:
        options = {"--n-max": self.n_max, "--samples": self.samples, "--seed": self.seed, "--out": out}
        return ["verify-lemmas"] + [str(x) for pair in options.items() for x in pair]

    def check(self, out: Path, rc: int) -> Check:
        ops = len(self.prepare())
        notes = [] if rc == 0 else [f"exit code {rc}"]
        try:
            text = (out / "summary.csv").read_bytes()
        except OSError as exc:
            return Check(ops, ops, notes + [f"output unreadable: {exc}"])
        if self.expected is None:
            self.expected = text
        rows = text.decode("utf-8", "replace").splitlines()[1:]
        want = self.expected.decode("utf-8", "replace").splitlines()[1:]
        failed = 0
        for i in range(ops):
            row = rows[i] if i < len(rows) else ""
            cells = row.split(",")
            if len(cells) < 9 or cells[8] != "0" or i >= len(want) or row != want[i]:
                failed += 1
                notes.append(f"sweep {i}: {row!r}")
        if text != self.expected and not failed:
            failed = 1
            notes.append("summary.csv differs from the expected bytes outside the sweep rows")
        return Check(ops, failed, notes)


def make(name: str, seed: int):
    if name == SolveWorkload.name:
        return SolveWorkload()
    if name == MmsWorkload.name:
        return MmsWorkload()
    if name == LemmasWorkload.name:
        return LemmasWorkload(seed)
    raise KeyError(name)


NAMES = (SolveWorkload.name, MmsWorkload.name, LemmasWorkload.name)
