"""Symmetric-function cone algebra, ellipticity sweeps, and a Newton/continuation
solver for the Robin problem of the transformed k-Hessian operator."""

import importlib

from .symfun import (
    ConeError,
    sigma,
    sigma_all,
    sigma_excl,
    sigma_excl2,
    sigma_grad,
    in_gamma,
    cone_margin,
    newton_maclaurin_gap,
)
from .operator import (
    OperatorSpec,
    eta_from_lambda,
    lambda_from_eta,
    eta_matrix,
    f_value,
    f_grad,
    f_grad_matrix,
    admissible,
)
from .ellipticity import (
    ConeSampler,
    SweepReport,
    sample_eta,
    deleted_term_share,
    ellipticity_ratio,
    maclaurin_ratio,
    maclaurin_bound,
    trace_lower_bound,
    trace_check,
)
from .grid import BoxGrid, ScalarField
from .problem import (
    ProblemSpec,
    ClosedFormField,
    ProblemFormatError,
    NonconvergenceError,
    ContinuationError,
    paraboloid,
    perturbed_paraboloid,
    manufactured_problem,
    load_problem,
)

__version__ = "0.1.0"

# The solver imports scipy.sparse, which only solves need: its names resolve
# on first use (PEP 562), so the sweeps and the sampler never load scipy.
_SOLVER_NAMES = (
    "NewtonOptions",
    "SolveReport",
    "Diagnostics",
    "hessian_at",
    "residual",
    "jacobian",
    "newton_solve",
    "continuation_solve",
    "diagnostics",
)

__all__ = [
    "ConeError", "sigma", "sigma_all", "sigma_excl", "sigma_excl2", "sigma_grad", "in_gamma", "cone_margin",
    "newton_maclaurin_gap",
    "OperatorSpec", "eta_from_lambda", "lambda_from_eta", "eta_matrix", "f_value", "f_grad", "f_grad_matrix",
    "admissible",
    "ConeSampler", "SweepReport", "sample_eta", "deleted_term_share", "ellipticity_ratio", "maclaurin_ratio",
    "maclaurin_bound", "trace_lower_bound", "trace_check",
    "BoxGrid", "ScalarField",
    "ProblemSpec", "ClosedFormField", "ProblemFormatError", "NonconvergenceError", "ContinuationError",
    "paraboloid", "perturbed_paraboloid", "manufactured_problem", "load_problem",
    *_SOLVER_NAMES,
]  # fmt: skip


def __getattr__(name):
    if name != "solver" and name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    solver = importlib.import_module(".solver", __name__)
    value = solver if name == "solver" else getattr(solver, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOLVER_NAMES))
