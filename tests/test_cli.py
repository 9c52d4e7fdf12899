import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessneumann import cli
from hessneumann.cli import main
from hessneumann.ellipticity import SweepReport
from hessneumann.grid import ScalarField
from hessneumann.problem import NonconvergenceError
from hessneumann.solver import SolveReport

REPO = Path(__file__).resolve().parent.parent


def refused_without_allocating(argv, capsys):
    """Run main(argv), assert exit 2 with a single error line and return it; the run may allocate < 1 MiB."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    return single_error_line(capsys)


def single_error_line(capsys):
    """The one line a failed command writes to stderr; a traceback would add lines."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def strict_json(path):
    """The JSON document at path, refusing NaN and Infinity as strict parsers do."""

    def refuse(constant):
        raise ValueError(f"{path.name} holds the non-JSON constant {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def small_paraboloid_doc(m=9):
    return {
        "n": 3,
        "k": 2,
        "beta": 1.0,
        "box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0], "m": m},
        "psi": {"kind": "constant", "value": 12.0},
        "phi": {"kind": "expression", "expr": "0.5 + 0.5*((x1-0.5)^2 + (x2-0.5)^2 + (x3-0.5)^2)"},
    }


class TestVerifyLemmas:
    def test_small_run_clean_and_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["verify-lemmas", "--n-max", "3", "--samples", "2000", "--seed", "5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        names = sorted(p.name for p in out_a.glob("*.json"))
        # n in {2, 3}: 3 pure families over 3 (n,k) pairs, 2 quotient families
        # over the single (3, 2, 1) triple
        assert len(names) == 3 * 3 + 2
        doc = json.loads((out_a / "ellipticity-ratio_n3_k2.json").read_text())
        assert doc["violations"] == 0 and doc["samples"] == 2000

    @pytest.mark.parametrize(
        "args, reference",
        [
            (["--n-max", "6", "--samples", "40000", "--seed", "42"], "bench/ref/summary-n6-s40000-seed42.csv"),
            (
                ["--n-max", "4", "--samples", "20000", "--seed", "7", "--scale", "1e-2"],
                "tests/data/summary-n4-s20000-seed7-scale1e-2.csv",
            ),
        ],
    )
    def test_summary_is_byte_identical_to_the_reference(self, tmp_path, args, reference):
        assert main(["verify-lemmas", *args, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "summary.csv").read_bytes() == (REPO / reference).read_bytes()

    def test_empty_sweep_usage_error(self, tmp_path):
        assert main(["verify-lemmas", "--samples", "0", "--out", str(tmp_path)]) == 2

    def test_bad_n_max(self, tmp_path):
        assert main(["verify-lemmas", "--n-max", "9", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "1e300"])
    def test_bad_scale(self, tmp_path, capsys, scale):
        args = ["verify-lemmas", "--n-max", "2", "--samples", "10", "--scale", scale, "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sample_outside_cone_exits_1(self, tmp_path, capsys):
        # at the smallest subnormal scale a sample's sigma_1 underflows to 0
        args = ["verify-lemmas", "--n-max", "2", "--samples", "20", "--scale", "5e-324", "--out", str(tmp_path)]
        assert main(args) == 1
        assert "error: deleted-term-share n=2 k=1 l=None: a sample left the cone" in capsys.readouterr().err

    def test_cone_error_names_the_offending_sweep(self, tmp_path, capsys, monkeypatch):
        from hessneumann import ellipticity

        real = ellipticity._Tables.sigmas

        def outside(self, name):
            # sigma_3 of the first sample reads -1 in the order-3 table of the samples themselves
            e = real(self, name)
            if name == "eta" and self.c == 3:
                e = e.copy()
                e[3, 0] = -1.0
            return e

        monkeypatch.setattr(ellipticity._Tables, "sigmas", outside)
        assert main(["verify-lemmas", "--n-max", "3", "--samples", "50", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: maclaurin-ratio n=3 k=2 l=1: a sample left the cone" in err
        assert "maclaurin_ratio: sigma_3 = -1 at node (0,), outside the order-3 cone" in err

    def test_samples_over_the_cap_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_plan", lambda *args, **kwargs: pytest.fail("run_plan ran"))
        argv = ["verify-lemmas", "--samples", str(10**13), "--out", str(tmp_path / "out")]
        assert "--samples 10000000000000 exceeds the limit of 10000000" in refused_without_allocating(argv, capsys)
        assert not (tmp_path / "out").exists()

    def test_samples_at_the_cap_are_accepted(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_plan", lambda plan, **kwargs: seen.append(kwargs["samples"]) or [])
        monkeypatch.setattr(cli, "default_sweep_plan", lambda n_max: [])
        assert main(["verify-lemmas", "--samples", str(cli._MAX_SWEEP_SAMPLES), "--out", str(tmp_path)]) == 0
        assert seen == [cli._MAX_SWEEP_SAMPLES]

    def test_violations_exit_1(self, tmp_path, capsys, monkeypatch):
        def violated(plan, *, samples, seed, scale):
            return [SweepReport(f, n, k, l, samples, seed, scale, -1.0, [1.0] * n, 1, 0.0) for f, n, k, l in plan]

        monkeypatch.setattr(cli, "run_plan", violated)
        assert main(["verify-lemmas", "--n-max", "2", "--out", str(tmp_path)]) == 1
        assert "sweep(s) with violations; first offender" in single_error_line(capsys)
        assert (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("threads", ["abc", "2.5", "1e3"])
    def test_thread_count_variable_is_ignored(self, tmp_path, monkeypatch, threads):
        argv = ["verify-lemmas", "--n-max", "3", "--samples", "100"]
        monkeypatch.delenv("HN_THREADS", raising=False)
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("HN_THREADS", threads)
        assert main([*argv, "--out", str(tmp_path / "set")]) == 0
        summary = (tmp_path / "plain" / "summary.csv").read_bytes()
        assert (tmp_path / "set" / "summary.csv").read_bytes() == summary


class TestSolve:
    def test_bundled_paraboloid_small(self, tmp_path):
        prob = write_problem(tmp_path, small_paraboloid_doc())
        out = tmp_path / "out"
        code = main(["solve", "--problem", str(prob), "--out", str(out), "--dump-field"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["residual_norm"] < 1e-9
        assert (out / "solution.csv").exists() and (out / "solution.bin").exists()
        from hessneumann.fieldio import read_field_binary

        n, m, values = read_field_binary(out / "solution.bin")
        assert (n, m) == (3, 9)
        # unique solution is the centered paraboloid
        pts = np.stack(np.meshgrid(*(np.linspace(0, 1, 9),) * 3, indexing="ij"), axis=-1)
        exact = 0.5 * ((pts - 0.5) ** 2).sum(axis=-1)
        assert np.abs(values - exact).max() < 1e-9

    def test_small_beta_converges(self, tmp_path):
        # at beta = 1e-3 the first Newton step's GMRES cannot meet its 1e-10 relative test
        # in float64; it stops on the backward error (the later steps' on 1e-10)
        doc = json.loads((REPO / "problems" / "paraboloid-17.json").read_text(encoding="utf-8"))
        doc["beta"] = 1e-3
        out = tmp_path / "out"
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True and all(stage["converged"] for stage in report["continuation"])

    def test_beta_validation(self, tmp_path):
        doc = small_paraboloid_doc()
        doc["beta"] = -1.0
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(tmp_path)]) == 2

    def test_negative_psi_rejected(self, tmp_path):
        doc = small_paraboloid_doc()
        doc["psi"] = {"kind": "constant", "value": -3.0}
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(tmp_path)]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["solve", "--problem", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--problem", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        doc = small_paraboloid_doc()
        doc["psi"] = {"kind": "constant", "value": 40.0}
        prob = write_problem(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["solve", "--problem", str(prob), "--out", str(out), "--max-iter", "1"])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False and report["continuation"]

    def test_failed_run_writes_strict_json(self, tmp_path):
        # no stage converges, so the report's norms come from the last attempted stage
        doc = small_paraboloid_doc()
        doc["psi"] = {"kind": "constant", "value": 40.0}
        prob, out = write_problem(tmp_path, doc), tmp_path / "out"
        assert main(["solve", "--problem", str(prob), "--out", str(out), "--max-iter", "1"]) == 1
        report = strict_json(out / "report.json")
        assert report["converged"] is False
        assert report["residual_norm"] > 0 and report["final_margin"] > 0
        assert report["preconditioner_factor_s"] > 0
        assert all(stage["reason"].startswith("no convergence in 1 Newton steps") for stage in report["continuation"])
        assert sum(stage["iterations"] for stage in report["continuation"]) == len(report["iterations"])
        assert report["continuation"][-1]["reason"].endswith(f"at residual {report['residual_norm']:.3e}")

    def test_report_names_why_each_stage_failed(self, tmp_path):
        # phi = 1e300 overflows the 2-norm of every stage's Newton right-hand side
        doc = small_paraboloid_doc()
        doc["phi"] = {"kind": "expression", "expr": "1e300"}
        prob, out = write_problem(tmp_path, doc), tmp_path / "out"
        assert main(["solve", "--problem", str(prob), "--out", str(out)]) == 1
        report = strict_json(out / "report.json")
        stages = report["continuation"]
        assert stages and all(not stage["converged"] for stage in stages)
        assert all(stage["reason"].startswith("GMRES missed its tolerance 1e-10") for stage in stages)
        assert sum(stage["iterations"] for stage in stages) == len(report["iterations"])

    def test_converged_stages_give_no_reason(self, tmp_path):
        prob, out = write_problem(tmp_path, small_paraboloid_doc()), tmp_path / "out"
        assert main(["solve", "--problem", str(prob), "--out", str(out)]) == 0
        stages = strict_json(out / "report.json")["continuation"]
        assert stages and all(stage["converged"] and stage["reason"] is None for stage in stages)

    def test_report_records_the_preconditioner(self, tmp_path):
        doc = small_paraboloid_doc()
        doc["psi"] = {"kind": "constant", "value": 13.0}
        prob, out = write_problem(tmp_path, doc), tmp_path / "out"
        assert main(["solve", "--problem", str(prob), "--out", str(out)]) == 0
        report = strict_json(out / "report.json")
        assert report["converged"] is True
        assert "preconditioner_nnz" not in report  # the direct solve stores no factors to count
        assert report["preconditioner_factor_s"] > 0

    @pytest.mark.parametrize("thin", [1e-160, 1e-200])
    def test_extreme_box_aspect_ratio_exits_2(self, tmp_path, capsys, thin):
        doc = json.loads((REPO / "problems" / "psi-zero-17.json").read_text(encoding="utf-8"))
        doc["box"].update(m=9, hi=[1.0, 1.0, thin])
        out = tmp_path / "out"
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: box spacings")
        assert not out.exists()

    @pytest.mark.parametrize("hi", [1e-153, 1e-200])
    def test_box_too_small_for_float64_exits_2(self, tmp_path, capsys, hi):
        # spacings of 1.25e-154 and below: the stencil weight 12/h^2 leaves float64's range
        doc = small_paraboloid_doc()
        doc["box"]["hi"] = [hi] * 3
        doc["phi"] = {"kind": "constant", "value": 0.5}
        out = tmp_path / "out"
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: box spacing ") and "too small" in err[0]
        assert not out.exists()

    def test_overflowing_box_exits_2_with_one_error_line(self, tmp_path, capsys):
        # hi - lo = 2e308 overflows to inf; it is refused before numpy warns about it
        doc = json.loads((REPO / "problems" / "psi-zero-17.json").read_text(encoding="utf-8"))
        doc["box"].update(m=9, lo=[-1e308] * 3, hi=[1e308] * 3)
        out = tmp_path / "out"
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid box: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "beta,lo,hi",
        [(1e300, 0.0, 1e8), (1.0, 0.0, 1e200), (1.0, 1e308, 1.7e308)],
        ids=["beta-1e300", "box-1e200", "center-overflows"],
    )
    def test_overflowing_start_data_exit_2(self, tmp_path, fresh_python, beta, lo, hi):
        # the continuation's start data u0 = |x - c|^2 / 2 and u0_nu + beta u0 overflow at the
        # corners (in the last box, c = (lo + hi) / 2 itself); refused before numpy warns
        doc = small_paraboloid_doc()
        doc.update(beta=beta, phi={"kind": "constant", "value": 1.0})
        doc["box"].update(lo=[lo] * 3, hi=[hi] * 3)
        out = tmp_path / "out"
        done = fresh_python("-m", "hessneumann", "solve", "--problem", str(write_problem(tmp_path, doc)),
                            "--out", str(out))  # fmt: skip
        assert done.returncode == 2
        err = done.stderr.splitlines()
        assert len(err) == 1, done.stderr
        assert err[0].startswith("error: the continuation's start data u0_nu + beta u0 overflow")
        assert not out.exists()

    @pytest.mark.parametrize(
        "beta,phi",
        [(1.0, "1e300"), (1.0, "-1e155*x1"), (1e-3, "1e152"), (1e300, "0.5")],
        ids=["phi-1e300", "phi-minus-1e155", "small-beta", "beta-1e300"],
    )
    def test_extreme_data_gives_one_error_line(self, tmp_path, fresh_python, beta, phi):
        # the residual's 2-norms overflow inside GMRES; the warnings numpy would
        # print are only visible in a fresh interpreter
        doc = small_paraboloid_doc()
        doc.update(beta=beta, phi={"kind": "expression", "expr": phi})
        done = fresh_python("-m", "hessneumann", "solve", "--problem", str(write_problem(tmp_path, doc)),
                            "--out", str(tmp_path / "out"))  # fmt: skip
        assert done.returncode in (1, 2)
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), done.stderr

    @pytest.mark.parametrize(
        "psi",
        [
            {"kind": "constant", "value": 0.0},
            {"kind": "expression", "expr": "12*(x1-0.5)^2"},
            {"kind": "expression", "expr": "12*((x1-0.25)^2 + (x2-0.5)^2 + (x3-0.75)^2)"},
        ],
        ids=["psi-zero", "zero-plane", "off-center-zero-node"],
    )
    def test_degenerate_variant_of_psi_zero_17_stalls_with_exit_1(self, tmp_path, capsys, psi):
        doc = json.loads((REPO / "problems" / "psi-zero-17.json").read_text(encoding="utf-8"))
        doc["psi"] = psi
        doc["box"]["m"] = 9
        out = tmp_path / "out"
        assert main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: continuation stalled")
        assert strict_json(out / "report.json")["converged"] is False

    @pytest.mark.parametrize(
        "flag,value",
        [("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--max-iter", "0"), ("--max-iter", "-2")],
    )
    def test_bad_numeric_option_exits_2(self, tmp_path, capsys, flag, value):
        prob = write_problem(tmp_path, small_paraboloid_doc())
        assert main(["solve", "--problem", str(prob), "--out", str(tmp_path / "out"), flag, value]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("psi", {"kind": "constant", "value": "abc"}),
            ("psi", {"kind": "expression", "expr": "1/(x1-x1)"}),
            ("psi", {"kind": "constant", "value": float("nan")}),
            ("m", 9.5),
            ("lo", [0.0, 0.0, float("nan")]),
            ("n", 3.5),
            ("k", 2.5),
            ("l", 1.5),
            ("psi", {"kind": "constant"}),
            ("psi", {"kind": "expression"}),
        ],
    )
    def test_bad_problem_value_exits_2(self, tmp_path, capsys, key, value):
        doc = small_paraboloid_doc()
        if key in ("m", "lo"):
            doc["box"][key] = value
        else:
            doc[key] = value
        code = main(["solve", "--problem", str(write_problem(tmp_path, doc)), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bundled_problem_files_load(self):
        from hessneumann.problem import load_problem

        for name in ("paraboloid-17.json", "psi-zero-17.json"):
            spec = load_problem(REPO / "problems" / name)
            assert spec.grid.m == 17 and spec.op.k == 2


class TestMmsStudy:
    def test_paraboloid_exact(self, tmp_path):
        code = main(["mms-study", "--case", "paraboloid", "--grids", "9,17", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "mms_paraboloid.csv").read_text().strip().splitlines()
        assert rows[0] == "m,h,error_inf,observed_order"
        assert all(line.endswith(",exact") for line in rows[1:])

    def test_2d_order(self, tmp_path):
        code = main(["mms-study", "--case", "perturbed-paraboloid-2d", "--grids", "9,17,33", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "mms_perturbed-paraboloid-2d.csv").read_text().strip().splitlines()
        final_order = float(rows[-1].rsplit(",", 1)[1])
        assert final_order >= 1.7

    def test_unknown_case(self, tmp_path):
        assert main(["mms-study", "--case", "nope", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "outcome, message",
        [
            ("raises", "m=9: line search underflow"),
            ("not-converged", "m=9: Newton did not converge"),
            ("first-order", "final observed order 0.99"),
        ],
    )
    def test_failed_study_exits_1(self, tmp_path, capsys, monkeypatch, outcome, message):
        def newton(u_exact, spec):
            if outcome == "raises":
                raise NonconvergenceError("line search underflow", SolveReport())
            # an error of h, which falls at first order
            solution = ScalarField(spec.grid, u_exact.values + spec.grid.h.max())
            return solution, SolveReport(converged=outcome == "first-order")

        monkeypatch.setattr(cli, "newton_solve", newton)
        argv = ["mms-study", "--case", "perturbed-paraboloid-2d", "--grids", "9,17", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert message in single_error_line(capsys)

    def test_bad_grids(self, tmp_path, capsys):
        for grids in ("9", "a,b", "9,9", "8,9", "9,17,9", "7,9"):
            assert main(["mms-study", "--case", "paraboloid", "--grids", grids, "--out", str(tmp_path)]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,grids,refused",
        [("perturbed-paraboloid", "9,67", "67^3"), ("perturbed-paraboloid-2d", "9,1001", "1001^2")],
    )
    def test_grid_over_the_node_cap_exits_2_before_building(self, tmp_path, capsys, monkeypatch, case, grids, refused):
        monkeypatch.setattr(cli, "build_case", lambda *args: pytest.fail("build_case ran"))
        argv = ["mms-study", "--case", case, "--grids", grids, "--out", str(tmp_path / "out")]
        assert refused in refused_without_allocating(argv, capsys)
        assert not (tmp_path / "out").exists()


class TestSampleCone:
    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample-cone", "--n", "3", "--k", "2", "--count", "50", "--seed", "42"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().splitlines()
        assert lines[0] == "index,eta1,eta2,eta3"
        assert len(lines) == 51

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_chunked_csv_equals_one_block(self, tmp_path, capsys, monkeypatch, to_stdout):
        from hessneumann.ellipticity import sample_block

        monkeypatch.setattr(cli, "_CHUNK", 7)
        out = tmp_path / "s.csv"
        argv = ["sample-cone", "--n", "3", "--k", "2", "--count", "50", "--seed", "5", "--scale", "2"]
        assert main(argv + ([] if to_stdout else ["--out", str(out)])) == 0
        got = capsys.readouterr().out if to_stdout else out.read_text(encoding="utf-8")
        block = sample_block(3, 2, 5, 2.0, 0, 50)
        rows = [f"{i}," + ",".join(f"{v:.17g}" for v in row) for i, row in enumerate(block)]
        assert got == "\n".join(["index,eta1,eta2,eta3", *rows]) + "\n"

    def test_large_n_rows_are_the_bisection(self, tmp_path):
        from hessneumann import ellipticity

        out = tmp_path / "s.csv"
        assert main(["sample-cone", "--n", "69", "--k", "35", "--count", "1", "--seed", "0", "--out", str(out)]) == 0
        g = ellipticity._block_normals(0, 69, 0, 1)
        row = (g + ellipticity._shift_bisect(g, 35)[:, None])[0]
        assert out.read_text(encoding="utf-8").splitlines()[1] == "0," + ",".join(f"{v:.17g}" for v in row)

    def test_samples_are_in_cone(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample-cone", "--n", "4", "--k", "3", "--count", "20", "--seed", "1", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        from hessneumann.symfun import in_gamma

        assert in_gamma(data, 3).all()

    def test_bad_count(self):
        assert main(["sample-cone", "--n", "3", "--k", "2", "--count", "0"]) == 2

    def test_count_over_the_value_cap_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ConeSampler", lambda *args: pytest.fail("the sampler ran"))
        argv = ["sample-cone", "--n", "3", "--k", "2", "--count", "1000000000", "--out", str(tmp_path / "s.csv")]
        assert "1000000000" in refused_without_allocating(argv, capsys)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("n", [513, 4000000])
    def test_n_over_the_cap_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch, n):
        monkeypatch.setattr(cli, "ConeSampler", lambda *args: pytest.fail("the sampler ran"))
        argv = ["sample-cone", "--n", str(n), "--k", "1", "--count", "1", "--out", str(tmp_path / "s.csv")]
        assert f"--n {n} exceeds the limit of 512" in refused_without_allocating(argv, capsys)
        assert not (tmp_path / "s.csv").exists()

    def test_bad_cone_index(self):
        assert main(["sample-cone", "--n", "3", "--k", "5", "--count", "5"]) == 2

    def test_one_entry_spectrum_is_a_usage_error(self, capsys):
        assert main(["sample-cone", "--n", "1", "--k", "1", "--count", "5"]) == 2
        assert "error: argument --n: must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-2"])
    def test_bad_scale(self, capsys, scale):
        assert main(["sample-cone", "--n", "3", "--k", "2", "--count", "5", "--scale", scale]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample-cone", "verify-lemmas"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        args = ["--n", "3", "--k", "2", "--count", "5"] if command == "sample-cone" else ["--n-max", "2", "--samples", "10"]
        assert main([command, *args, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "error: argument --seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_BAD_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "abc", ""]


def _text(numbers):
    """Command-line spellings of drawn numbers; one draw in four is not finite, not positive or not a number."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(_BAD_NUMBERS) if i == 0 else numbers.map(str))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_SCALES = _text(st.one_of(st.floats(1e-6, 1e6), _ANY_FLOAT))
_SEEDS = st.one_of(st.integers(-(10**20), 10**20), st.sampled_from(["-1", "1.5", "abc"])).map(str)
_FUZZ_ARGV = st.one_of(
    st.tuples(
        st.just("verify-lemmas"),
        st.just("--n-max"), _text(st.integers(2, 3)),
        st.just("--samples"), _text(st.integers(1, 50)),
        st.just("--scale"), _SCALES,
        st.just("--seed"), _SEEDS,
    ),
    st.tuples(
        st.just("sample-cone"),
        st.just("--n"), st.integers(2, 4).map(str),
        st.just("--k"), st.integers(1, 5).map(str),
        st.just("--count"), _text(st.integers(1, 50)),
        st.just("--scale"), _SCALES,
        st.just("--seed"), _SEEDS,
    ),
    st.tuples(
        st.just("mms-study"),
        st.just("--case"), st.just("perturbed-paraboloid-2d"),
        st.just("--grids"),
        st.lists(st.sampled_from([8, 9, 11]), min_size=1, max_size=3).map(lambda ms: ",".join(map(str, ms))),
    ),
    st.tuples(
        st.just("solve"),
        st.just("--tol"), _text(st.one_of(st.floats(0.0, 1e-6), _ANY_FLOAT)),
        st.just("--max-iter"), _text(st.integers(1, 5)),
    ),
)


class TestExitCodeContract:
    @given(argv=_FUZZ_ARGV, out=st.sampled_from(["new", "existing-file", "under-missing-dir"]))
    @settings(max_examples=300, deadline=None)
    def test_drawn_options_exit_0_1_or_2(self, tmp_path_factory, argv, out):
        """Any drawn option values and --out target end in exit 0, 1 or 2, never in an escaped exception."""
        root = Path(tmp_path_factory.mktemp("exit-code-contract"))
        (root / "existing-file").write_text("x", encoding="utf-8")
        target = {"new": root / "new", "existing-file": root / "existing-file", "under-missing-dir": root / "missing" / "out"}
        argv = list(argv) + ["--out", str(target[out])]
        if argv[0] == "solve":
            argv += ["--problem", str(write_problem(root, small_paraboloid_doc()))]
        assert main(argv) in (0, 1, 2)


class TestFileErrors:
    """An unwritable --out or an unreadable problem file exits 2 with a single error line."""

    @pytest.mark.parametrize(
        "case",
        [
            "solve-out-is-file",
            "verify-lemmas-out-is-file",
            "mms-study-out-is-file",
            "sample-cone-out-under-missing-dir",
            "solve-problem-is-dir",
            "solve-problem-not-utf8",
            "solve-problem-int-over-digit-limit",
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, case):
        afile = tmp_path / "afile"
        afile.write_text("x", encoding="utf-8")
        bad_utf8 = tmp_path / "utf16.json"
        bad_utf8.write_text(json.dumps(small_paraboloid_doc()), encoding="utf-16")
        huge_int = tmp_path / "huge.json"
        huge_int.write_text('{"n": ' + "1" * 5000 + "}", encoding="utf-8")
        problem = str(write_problem(tmp_path, small_paraboloid_doc()))
        argv = {
            "solve-out-is-file": ["solve", "--problem", problem, "--out", str(afile)],
            "verify-lemmas-out-is-file": ["verify-lemmas", "--n-max", "2", "--samples", "10", "--out", str(afile)],
            "mms-study-out-is-file": ["mms-study", "--case", "paraboloid", "--grids", "9,11", "--out", str(afile)],
            "sample-cone-out-under-missing-dir": [
                "sample-cone", "--n", "3", "--k", "2", "--count", "3", "--out", str(tmp_path / "missing" / "s.csv"),
            ],
            "solve-problem-is-dir": ["solve", "--problem", str(tmp_path), "--out", str(tmp_path / "out")],
            "solve-problem-not-utf8": ["solve", "--problem", str(bad_utf8), "--out", str(tmp_path / "out")],
            "solve-problem-int-over-digit-limit": ["solve", "--problem", str(huge_int), "--out", str(tmp_path / "out")],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["solve"]) == 2
        capsys.readouterr()


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["hessneumann", "hessneumann.cli"])
    def test_python_dash_m(self, module, fresh_python):
        shown = fresh_python("-m", module, "--help")
        assert shown.returncode == 0 and "solve" in shown.stdout
        missing = fresh_python("-m", module, "solve")
        assert missing.returncode == 2 and "--problem" in missing.stderr
