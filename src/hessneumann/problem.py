"""Problem descriptions: data fields, manufactured cases, and JSON problem files."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .expr import ExpressionError, compile_expression
from .grid import BoxGrid, ScalarField
from .operator import OperatorSpec, _eta, _raw_value, newton_tensors
from .symfun import _check_in_gamma
from .symfun import sigma_all  # noqa: F401  (unused here; bench/tracing.py patches this binding)

if TYPE_CHECKING:
    from .solver import SolveReport

__all__ = [
    "ProblemSpec",
    "ClosedFormField",
    "paraboloid",
    "perturbed_paraboloid",
    "manufactured_problem",
    "MANUFACTURED_CASES",
    "build_case",
    "ProblemFormatError",
    "load_problem",
    "NonconvergenceError",
    "ContinuationError",
]


@dataclass
class ProblemSpec:
    """One Robin problem: box grid, operator, coefficient beta, data psi and phi.

    ``psi`` is the raw right-hand side (the solver normalizes it to
    psi ** (1/degree)); ``phi`` is the boundary data sampled on the full grid
    with only boundary entries used.  beta must be positive and psi
    nonnegative everywhere.
    """

    grid: BoxGrid
    op: OperatorSpec
    beta: float
    psi: ScalarField
    phi: ScalarField
    schedule: list[float] | None = None

    def __post_init__(self):
        if self.op.n != self.grid.n:
            raise ValueError(f"operator dimension n={self.op.n} does not match grid n={self.grid.n}")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.psi.values.min() < 0:
            raise ValueError("psi must be nonnegative everywhere")
        if self.schedule is not None:
            ts = [float(t) for t in self.schedule]
            if not ts or any(not 0 < t <= 1 for t in ts) or sorted(ts) != ts:
                raise ValueError("schedule must be an increasing list of t in (0, 1]")
            self.schedule = ts

    def psi_tilde(self) -> np.ndarray:
        """Normalized right-hand side psi ** (1/degree)."""
        return self.psi.values ** (1.0 / self.op.degree)


@dataclass
class ClosedFormField:
    """A scalar function with analytic gradient and Hessian, on points (N, n)."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def paraboloid(center) -> ClosedFormField:
    """u(x) = |x - center|^2 / 2, with identity Hessian everywhere."""
    c = np.asarray(center, dtype=float)
    n = c.size

    def value(p):
        d = p - c
        return 0.5 * (d * d).sum(axis=-1)

    def gradient(p):
        return p - c

    def hessian(p):
        return np.broadcast_to(np.eye(n), (p.shape[0], n, n)).copy()

    return ClosedFormField(value, gradient, hessian)


def perturbed_paraboloid(n: int, amplitude: float) -> ClosedFormField:
    """u(x) = |x|^2 / 2 + amplitude * prod_i sin(pi x_i)."""
    a = float(amplitude)

    def parts(p):
        s = np.sin(np.pi * p)
        c = np.cos(np.pi * p)
        return s, c

    def value(p):
        s, _ = parts(p)
        return 0.5 * (p * p).sum(axis=-1) + a * s.prod(axis=-1)

    def gradient(p):
        s, c = parts(p)
        grad = np.empty_like(p)
        for i in range(n):
            others = np.prod(np.delete(s, i, axis=-1), axis=-1)
            grad[:, i] = p[:, i] + a * np.pi * c[:, i] * others
        return grad

    def hessian(p):
        s, c = parts(p)
        hess = np.empty((p.shape[0], n, n))
        full = s.prod(axis=-1)
        for i in range(n):
            hess[:, i, i] = 1.0 - a * np.pi**2 * full
            for j in range(i + 1, n):
                keep = [x for x in range(n) if x not in (i, j)]
                rest = s[:, keep].prod(axis=-1) if keep else 1.0
                val = a * np.pi**2 * c[:, i] * c[:, j] * rest
                hess[:, i, j] = val
                hess[:, j, i] = val
        return hess

    return ClosedFormField(value, gradient, hessian)


def _robin_data(grid: BoxGrid, beta: float, u: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """u_nu + beta * u on boundary nodes, zero inside.

    grad holds one grid-shaped derivative per axis.  u_nu is dn / face_count,
    dn summing the outward normal derivatives of a node's faces, so corner and
    edge nodes average the conditions of their outward axes.
    """
    dn = np.zeros(grid.size)
    for a, step, nodes in grid.faces():
        dn[nodes] -= step * grad[a].ravel()[nodes]  # the outward normal points against the inward step
    fc = grid.face_count().ravel()
    mask = fc > 0
    out = np.zeros(grid.size)
    out[mask] = dn[mask] / fc[mask] + beta * u.ravel()[mask]
    return out.reshape(grid.shape)


def manufactured_problem(u_star: ClosedFormField, op: OperatorSpec, beta: float, grid: BoxGrid):
    """Turn a closed-form field into the problem it solves exactly.

    psi is the raw operator value (operator._raw_value of the transformed
    analytic Hessian's newton_tensors, so without an eigendecomposition) at
    every node; phi is the outward normal
    derivative plus beta * u_star on the boundary, corner nodes averaging
    their axis conditions.  Rejects u_star unless it is admissible at every
    grid node.  Returns (ProblemSpec, u_star sampled on the grid).
    """
    pts = grid.points()
    e = newton_tensors(_eta(u_star.hessian(pts)), op.cone_order)[0].reshape((-1,) + grid.shape)
    _check_in_gamma(e, "manufactured field")
    psi = ScalarField(grid, _raw_value(e, op))

    u_vals = u_star.value(pts).reshape(grid.shape)
    grad = u_star.gradient(pts).T.reshape((grid.n,) + grid.shape)
    phi = ScalarField(grid, _robin_data(grid, beta, u_vals, grad))

    return ProblemSpec(grid, op, beta, psi, phi), ScalarField(grid, u_vals)


@dataclass(frozen=True)
class _Case:
    n: int
    k: int
    l: int | None
    beta: float
    lo: tuple
    hi: tuple
    build_field: Callable[[], ClosedFormField]


MANUFACTURED_CASES = {
    "paraboloid": _Case(3, 2, None, 1.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), lambda: paraboloid((0.5, 0.5, 0.5))),
    "perturbed-paraboloid": _Case(
        3, 2, None, 1.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), lambda: perturbed_paraboloid(3, 0.05)
    ),
    "perturbed-paraboloid-2d": _Case(
        2, 1, None, 1.0, (0.0, 0.0), (1.0, 1.0), lambda: perturbed_paraboloid(2, 0.05)
    ),
}


def build_case(case_id: str, m: int):
    """Instantiate a named manufactured case on an m-per-axis grid."""
    if case_id not in MANUFACTURED_CASES:
        raise KeyError(f"unknown manufactured case {case_id!r}; known: {sorted(MANUFACTURED_CASES)}")
    case = MANUFACTURED_CASES[case_id]
    grid = BoxGrid(case.lo, case.hi, m)
    op = OperatorSpec(case.n, case.k, case.l)
    return manufactured_problem(case.build_field(), op, case.beta, grid)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


class ProblemFormatError(ValueError):
    """A problem file is malformed or fails validation."""


# The solver's failures are defined here rather than in solver, so that code
# which only catches them (the command line's main) does not import scipy.
class NonconvergenceError(RuntimeError):
    """Newton failed (a GMRES miss or a line-search underflow); carries the partial report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class ContinuationError(NonconvergenceError):
    """The continuation path could not reach t = 1 above the minimum step."""


# 3-D m = 65 is the largest grid the solver is sized for: mms-study on
# 17, 33 and 65 takes about 3.3 s and 370 MB peak RSS on 2 cores.
_MAX_NODES = 65**3
# The largest ratio of box spacings: beyond it the long axes' 1/h^2 stencil
# weights fall below the rounding of the short axis' weight, and the
# preconditioner is singular in float64.
_MAX_ASPECT = np.finfo(float).eps ** -0.5
# The largest stencil weight, the preconditioner's diagonal 2(n-1) sum_i 1/h_i^2,
# must be finite: beyond float64's range the Hessian weights divide by zero and
# the preconditioner is singular.
_MAX_WEIGHT = float(np.finfo(float).max)


def _number(value, what: str) -> float:
    """A finite JSON number (int or float) as a float; bools, strings and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{what} must be a number (got {value!r})")
    try:
        out = float(value)
    except OverflowError:
        raise ProblemFormatError(f"{what} is too large for a float") from None
    if not math.isfinite(out):
        raise ProblemFormatError(f"{what} must be finite (got {value!r})")
    return out


def _integer(doc: dict, key: str) -> int:
    value = doc[key]
    # ints are not passed through float(), which overflows above 1.8e308
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ProblemFormatError(f"'{key}' must be an integer (got {value!r})")
    return int(value)


def _field_from_json(payload, grid: BoxGrid, name: str) -> ScalarField:
    try:
        return _parse_field(payload, grid, name)
    except ProblemFormatError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ProblemFormatError(f"field '{name}': {exc}") from exc


def _parse_field(payload, grid: BoxGrid, name: str) -> ScalarField:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProblemFormatError(f"field '{name}' must be an object with a 'kind'")
    kind = payload["kind"]
    if kind == "constant":
        if "value" not in payload:
            raise ProblemFormatError(f"field '{name}': constant kind needs 'value'")
        return ScalarField.constant(grid, _number(payload["value"], f"field '{name}': 'value'"))
    if kind == "expression":
        if "expr" not in payload:
            raise ProblemFormatError(f"field '{name}': expression kind needs 'expr'")
        try:
            fn, used = compile_expression(payload["expr"])
        except ExpressionError as exc:
            raise ProblemFormatError(f"field '{name}': {exc}") from exc
        allowed = {f"x{i + 1}" for i in range(grid.n)}
        bad = sorted(set(used) - allowed)
        if bad:
            raise ProblemFormatError(f"field '{name}': variable {bad[0]!r} undefined for n={grid.n}")
        pts = grid.points()
        env = {f"x{i + 1}": pts[:, i] for i in range(grid.n)}
        # non-finite values are rejected by ScalarField below, so numpy need not warn
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(np.asarray(fn(env), dtype=float), (grid.size,))
        return ScalarField(grid, vals.reshape(grid.shape))
    if kind == "grid":
        vals = np.array([_number(v, f"field '{name}': a grid value") for v in payload.get("values", [])])
        if vals.size != grid.size:
            raise ProblemFormatError(
                f"field '{name}': grid kind needs {grid.size} values (got {vals.size})"
            )
        return ScalarField(grid, vals.reshape(grid.shape))
    raise ProblemFormatError(f"field '{name}': unknown kind {kind!r}")


def load_problem(path) -> ProblemSpec:
    """Load and validate a JSON problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"problem file is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ProblemFormatError("invalid JSON: nested deeper than the parser can follow") from exc
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must contain a JSON object")

    for key in ("n", "k", "beta", "box", "psi", "phi"):
        if key not in doc:
            raise ProblemFormatError(f"missing required field '{key}'")
    box = doc["box"]
    if not isinstance(box, dict) or not all(key in box for key in ("lo", "hi", "m")):
        raise ProblemFormatError("'box' must be an object with 'lo', 'hi' and 'm'")
    try:
        lo = tuple(_number(x, "'lo' entry") for x in box["lo"])
        hi = tuple(_number(x, "'hi' entry") for x in box["hi"])
        grid = BoxGrid(lo, hi, _integer(box, "m"))
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid box: {exc}") from exc
    if grid.size > _MAX_NODES:
        raise ProblemFormatError(f"grid of {grid.m}^{grid.n} nodes exceeds the limit of {_MAX_NODES} nodes")
    h = grid.h
    if h.max() / _MAX_ASPECT > h.min():  # divided by _MAX_ASPECT > 1, so that the test cannot overflow
        raise ProblemFormatError(
            f"box spacings {h.min():.3g} and {h.max():.3g} differ by more than a factor of {_MAX_ASPECT:.3g}, "
            "the most that float64 resolves in the stencil"
        )
    h_min = float(h.min())
    # the weight times h_min^2 against _MAX_WEIGHT * h_min^2, so that neither side can overflow
    if 2 * (grid.n - 1) * float(np.sum((h_min / h) ** 2)) > _MAX_WEIGHT * h_min * h_min:
        raise ProblemFormatError(
            f"box spacing {h_min:.3g} is too small: the stencil weight 2(n-1) sum 1/h^2 overflows float64"
        )
    n = _integer(doc, "n")
    if grid.n != n:
        raise ProblemFormatError(f"'n' = {n} does not match box dimension {grid.n}")
    try:
        op = OperatorSpec(n, _integer(doc, "k"), _integer(doc, "l") if doc.get("l") is not None else None)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid operator: {exc}") from exc

    psi = _field_from_json(doc["psi"], grid, "psi")
    phi = _field_from_json(doc["phi"], grid, "phi")
    schedule = doc.get("schedule")
    try:
        if schedule is not None:
            schedule = [_number(t, "'schedule' entry") for t in schedule]
        spec = ProblemSpec(grid, op, _number(doc["beta"], "'beta'"), psi, phi, schedule)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(str(exc)) from exc
    # The continuation starts from u0 = |x - center|^2 / 2 with boundary data u0_nu + beta u0, both largest
    # at a box corner, where the latter is inf if either is.  Python floats overflow without a numpy warning.
    reach = [max(b - c, c - a) for a, b, c in ((a, b, 0.5 * (a + b)) for a, b in zip(grid.lo, grid.hi))]
    if not math.isfinite(sum(reach) / grid.n + spec.beta * (0.5 * sum(r * r for r in reach))):
        raise ProblemFormatError("the continuation's start data u0_nu + beta u0 overflow float64 at a box corner")
    return spec
