"""The package's public names, which modules each command loads, and the patch points of the bench's tracer.

Only solve and mms-study need the solver, which imports scipy.sparse; the
package and the command line resolve the solver's names on first use.
"""

import json
from pathlib import Path

import pytest

import hessneumann
from hessneumann import cli, problem, solver
from hessneumann.cli import main

REPO = Path(__file__).resolve().parent.parent
PARABOLOID = str(REPO / "problems" / "paraboloid-17.json")

# every name the package exported when it imported the solver eagerly
EXPORTS = [
    "ConeError", "sigma", "sigma_all", "sigma_excl", "sigma_excl2", "sigma_grad", "in_gamma", "cone_margin",
    "newton_maclaurin_gap",
    "OperatorSpec", "eta_from_lambda", "lambda_from_eta", "eta_matrix", "f_value", "f_grad", "f_grad_matrix",
    "admissible",
    "ConeSampler", "SweepReport", "sample_eta", "deleted_term_share", "ellipticity_ratio", "maclaurin_ratio",
    "maclaurin_bound", "trace_lower_bound", "trace_check",
    "BoxGrid", "ScalarField",
    "ProblemSpec", "ClosedFormField", "ProblemFormatError", "paraboloid", "perturbed_paraboloid",
    "manufactured_problem", "load_problem",
    "NewtonOptions", "SolveReport", "Diagnostics", "NonconvergenceError", "ContinuationError", "hessian_at",
    "residual", "jacobian", "newton_solve", "continuation_solve", "diagnostics",
]  # fmt: skip

# Runs main(argv) in a fresh interpreter (with no argv, only imports the
# command line) and prints the exit code and which of the solver's modules
# were loaded.
PROBE = """
import json, sys
import hessneumann
from hessneumann import NonconvergenceError, ContinuationError
from hessneumann.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, "scipy" in sys.modules, "hessneumann.solver" in sys.modules]))
"""


def probe(fresh_python, *argv):
    done = fresh_python("-c", PROBE, *argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestPublicNames:
    def test_every_export_resolves_as_attribute_and_by_from_import(self):
        for name in EXPORTS:
            namespace = {}
            exec(f"from hessneumann import {name}", namespace)
            assert namespace[name] is getattr(hessneumann, name)
        assert hessneumann.newton_solve is solver.newton_solve
        assert hessneumann.load_problem is problem.load_problem

    def test_star_import_and_dir_list_every_export(self):
        namespace = {}
        exec("from hessneumann import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert set(EXPORTS) == set(hessneumann.__all__)
        assert set(EXPORTS) <= set(dir(hessneumann))

    def test_solver_errors_are_the_problem_module_classes(self):
        assert solver.NonconvergenceError is problem.NonconvergenceError is hessneumann.NonconvergenceError
        assert solver.ContinuationError is problem.ContinuationError is hessneumann.ContinuationError
        with pytest.raises(problem.NonconvergenceError):
            raise solver.ContinuationError("stalled", solver.SolveReport())

    @pytest.mark.parametrize("module", [hessneumann, cli], ids=["hessneumann", "cli"])
    def test_unknown_attribute_raises_attribute_error(self, module):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")


class TestModulesLoaded:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["verify-lemmas", "--n-max", "3", "--samples", "2000", "--out", "{tmp}"],
            ["sample-cone", "--n", "3", "--k", "2", "--count", "5", "--out", "{tmp}/cone.csv"],
        ],
        ids=["import", "verify-lemmas", "sample-cone"],
    )
    def test_sweeps_and_sampler_never_load_scipy(self, tmp_path, fresh_python, argv):
        assert probe(fresh_python, *(a.format(tmp=tmp_path) for a in argv)) == [0, False, False]

    def test_malformed_problem_exits_2_before_loading_scipy(self, tmp_path, fresh_python):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        argv = ["solve", "--problem", str(bad), "--out", str(tmp_path / "out")]
        assert probe(fresh_python, *argv) == [2, False, False]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", PARABOLOID],
            ["mms-study", "--case", "perturbed-paraboloid-2d", "--grids", "9,17"],
        ],
        ids=["solve", "mms-study"],
    )
    def test_solve_and_mms_study_load_the_solver(self, tmp_path, fresh_python, argv):
        assert probe(fresh_python, *argv, "--out", str(tmp_path)) == [0, True, True]

    def test_a_binding_set_before_first_use_wins(self, tmp_path, fresh_python):
        # how bench/tracing.py patches cli: setattr, which the lazy load must not overwrite
        script = (
            "import sys\n"
            "from hessneumann import cli\n"
            "calls = []\n"
            "def traced(*args, **kwargs):\n"
            "    from hessneumann.solver import continuation_solve\n"
            "    calls.append(1)\n"
            "    return continuation_solve(*args, **kwargs)\n"
            "cli.continuation_solve = traced\n"
            "code = cli.main(sys.argv[1:])\n"
            "assert code == 0 and calls == [1], (code, calls)\n"
            "assert cli.continuation_solve is traced\n"
        )
        done = fresh_python("-c", script, "solve", "--problem", PARABOLOID, "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr


class TestBenchPatchPoints:
    """bench/tracing.py wraps cli.newton_solve and cli.continuation_solve with setattr and puts them back."""

    @pytest.mark.parametrize("name", ["newton_solve", "continuation_solve"])
    def test_cli_binds_the_solver_functions(self, name):
        assert getattr(cli, name) is getattr(solver, name)

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("continuation_solve", ["solve", "--problem", PARABOLOID]),
            ("newton_solve", ["mms-study", "--case", "perturbed-paraboloid-2d", "--grids", "9,17"]),
        ],
        ids=["solve", "mms-study"],
    )
    def test_a_wrapper_set_on_cli_is_called_and_the_original_restored(self, tmp_path, capsys, name, argv):
        original = getattr(cli, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        setattr(cli, name, wrapper)
        try:
            assert main([*argv, "--out", str(tmp_path / "wrapped")]) == 0
        finally:
            setattr(cli, name, original)
        assert calls and getattr(cli, name) is getattr(solver, name)
        count = len(calls)
        assert main([*argv, "--out", str(tmp_path / "restored")]) == 0
        assert len(calls) == count
        capsys.readouterr()
