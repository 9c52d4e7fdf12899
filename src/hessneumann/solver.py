"""Finite-difference Newton/continuation solver for the Robin problem.

Interior nodes carry the normalized operator equation, boundary nodes the
Robin condition u_nu + beta * u = phi with a second-order one-sided normal
stencil (corner and edge nodes average the conditions of their outward axes).
The unknown is the full grid field including boundary values, so the Jacobian
is square.  Damped Newton keeps every accepted iterate strictly admissible;
the continuation driver walks the data from an exactly solvable paraboloid
problem to the target.

Cone checks, residual, Jacobian and the step to the cone boundary read only
sigma_1..sigma_c of the interior eta-matrices and their Newton tensors, from
operator.newton_tensors; ``diagnostics`` is the one eigenvalue computation.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import LinearOperator, gmres

from .grid import BoxGrid, ScalarField
from .operator import _grad_from_tensors, _value_from_sigmas, newton_tensors
from .operator import grad_at_eta  # noqa: F401  (unused here, like sigma_all; bench/tracing.py patches both)
from .problem import ProblemSpec, _require_admissible, _robin_data, manufactured_problem, paraboloid
from .symfun import ConeError, sigma_all  # noqa: F401

__all__ = [
    "NewtonOptions",
    "IterationRecord",
    "StageRecord",
    "Diagnostics",
    "SolveReport",
    "NonconvergenceError",
    "ContinuationError",
    "hessian_at",
    "residual",
    "jacobian",
    "laplace_robin",
    "newton_solve",
    "continuation_solve",
    "diagnostics",
]

_MIN_CONTINUATION_STEP = 1.0 / 256.0

# After the first cone rejection of a line search, the next trial steps this
# fraction of the way to the cone boundary (the interior-point rule of
# Waechter & Biegler 2006); Armijo halving goes on from there.
_FRACTION_TO_BOUNDARY = 0.99
# Relative rounding allowed in the polynomial fit of _max_admissible_step.
_FIT_ROUNDING = 64.0 * np.finfo(float).eps

# GMRES stopping test on the true residual |b - J x| <= rtol |b|; restarts of
# up to _GMRES_RESTART iterations, at most _GMRES_MAXITER of them.
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 60
_GMRES_MAXITER = 5


@dataclass(frozen=True)
class NewtonOptions:
    """Damped-Newton controls.  tol=None means 1e-10 * (1 + max |psi_tilde|)."""

    tol: float | None = None
    max_iter: int = 50
    armijo: float = 1e-4
    min_step: float = 1e-12


@dataclass(frozen=True)
class IterationRecord:
    """One accepted Newton step.

    ``trials`` counts the line-search trials, the accepted one included;
    ``cone_rejections`` those that left the cone and ``armijo_rejections``
    those that failed the Armijo decrease.  ``max_step`` is the largest
    admissible step computed at the first cone rejection, None if none
    occurred.
    """

    residual_norm: float
    step: float
    min_margin: float
    krylov_iterations: int
    trials: int
    cone_rejections: int
    armijo_rejections: int
    max_step: float | None


@dataclass(frozen=True)
class StageRecord:
    t: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class Diagnostics:
    """Discrete suprema tracked as regressions along solves.

    sup_gradient is the largest nodal |grad u| (one-sided at faces),
    sup_hessian_eig the largest interior Hessian eigenvalue, and
    sup_normal_second the largest one-sided second normal difference on the
    boundary.  The continuous estimates these mirror have non-explicit
    constants, so the values are reported, never asserted against.
    """

    sup_gradient: float
    sup_hessian_eig: float
    sup_normal_second: float


@dataclass
class SolveReport:
    """Per-iteration history, continuation path, and final diagnostics.

    ``preconditioner_nnz`` is SuperLU's count of stored entries of the
    preconditioner's L and U factors, and ``preconditioner_factor_s`` the
    time of that one factorization.  continuation_solve, which shares the
    factorization between its stages, fills both; they stay 0 in the
    report of a lone newton_solve and when no Newton step ran.
    """

    converged: bool = False
    residual_norm: float = float("nan")
    final_margin: float = float("nan")
    iterations: list[IterationRecord] = field(default_factory=list)
    continuation: list[StageRecord] = field(default_factory=list)
    diagnostics: Diagnostics | None = None
    preconditioner_nnz: int = 0
    preconditioner_factor_s: float = 0.0

    def to_dict(self) -> dict:
        """The report.json payload: the fields above, records nested as dicts."""
        return asdict(self)


class NonconvergenceError(RuntimeError):
    """Newton failed (a GMRES miss or a line-search underflow); carries the partial report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class ContinuationError(NonconvergenceError):
    """The continuation path could not reach t = 1 above the minimum step."""


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


# Second-order one-sided stencils at a face, weights ordered from the face
# inward: the outward first derivative (times 2h) and the second normal
# derivative (times h^2).
_OUTWARD_D1 = (3.0, -4.0, 1.0)
_NORMAL_D2 = (2.0, -5.0, 4.0, -1.0)


def _axis_slice(n: int, axis: int, index) -> tuple:
    sl = [slice(None)] * n
    sl[axis] = index
    return tuple(sl)


def _layer(arr: np.ndarray, axis: int, side: int, depth: int) -> np.ndarray:
    """The nodes ``depth`` layers in from the low (side 0) or high (side 1) face normal to axis."""
    index = depth if side == 0 else arr.shape[axis] - 1 - depth
    return arr[_axis_slice(arr.ndim, axis, index)]


def _one_sided(values: np.ndarray, axis: int, side: int, weights: tuple) -> np.ndarray:
    """sum_k weights[k] * (layer k from the face), summed from the face inward."""
    total = weights[0] * _layer(values, axis, side, 0)
    for depth in range(1, len(weights)):
        total = total + weights[depth] * _layer(values, axis, side, depth)
    return total


def _gradient(values: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Discrete gradient, one grid-shaped array per axis: central inside, one-sided on the faces."""
    n, m, h = grid.n, grid.m, grid.h
    out = np.empty((n,) + grid.shape)
    for a in range(n):
        d = out[a]
        d[_axis_slice(n, a, slice(1, m - 1))] = (
            values[_axis_slice(n, a, slice(2, m))] - values[_axis_slice(n, a, slice(0, m - 2))]
        ) / (2.0 * h[a])
        # negation is exact, so the Robin rows recover the outward difference bit for bit
        d[_axis_slice(n, a, 0)] = -_one_sided(values, a, 0, _OUTWARD_D1) / (2.0 * h[a])
        d[_axis_slice(n, a, m - 1)] = _one_sided(values, a, 1, _OUTWARD_D1) / (2.0 * h[a])
    return out


def hessian_at(u: ScalarField, node: tuple[int, ...]) -> np.ndarray:
    """Central-difference Hessian of u at one interior node (exact on quadratics)."""
    grid = u.grid
    node = tuple(int(i) for i in node)
    if len(node) != grid.n or any(not 1 <= i <= grid.m - 2 for i in node):
        raise ValueError(f"node {node} is not interior to the grid")
    return _interior_hessians(u.values, grid)[tuple(i - 1 for i in node)]


def _interior_hessians(values: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Hessians at all interior nodes, shape (m-2,)*n + (n, n)."""
    n, m, h = grid.n, grid.m, grid.h

    def block(shift):
        return values[tuple(slice(1 + s, m - 1 + s) for s in shift)]

    center = block((0,) * n)
    out = np.empty(center.shape + (n, n))
    for i in range(n):
        sp_i = tuple(1 if a == i else 0 for a in range(n))
        sm_i = tuple(-1 if a == i else 0 for a in range(n))
        out[..., i, i] = (block(sp_i) - 2.0 * center + block(sm_i)) / h[i] ** 2
        for j in range(i + 1, n):
            def shift(si, sj):
                return tuple(si if a == i else sj if a == j else 0 for a in range(n))

            val = (block(shift(1, 1)) - block(shift(1, -1)) - block(shift(-1, 1)) + block(shift(-1, -1))) / (
                4.0 * h[i] * h[j]
            )
            out[..., i, j] = val
            out[..., j, i] = val
    return out


def _eta_tensors(values: np.ndarray, spec: ProblemSpec):
    """newton_tensors of eta = trace(H) I - H at all interior nodes, up to the cone order: (sigma table, tensors)."""
    hess = _interior_hessians(values, spec.grid)
    tr = np.trace(hess, axis1=-2, axis2=-1)
    return newton_tensors(tr[..., None, None] * np.eye(spec.grid.n) - hess, spec.op.cone_order)


def _evaluate(values: np.ndarray, sig, spec: ProblemSpec, what: str):
    """(least cone margin, residual) at values, whose interior eta tensors are sig = _eta_tensors(values).

    Raises ConeError at the worst node unless every interior node is strictly
    admissible.
    """
    margin = _require_admissible(sig[0], what, origin=1)
    grid = spec.grid
    out = _robin_data(grid, spec.beta, values, _gradient(values, grid)) - spec.phi.values
    core = grid.interior()
    out[core] = _value_from_sigmas(sig[0], spec.op) - spec.psi_tilde()[core]
    return margin, out


def _max_admissible_step(
    values: np.ndarray, delta: np.ndarray, spec: ProblemSpec, alpha_out: float, e_in, e_out
) -> float:
    """Largest alpha in [0, alpha_out] with values + alpha * delta strictly admissible, to float resolution.

    e_in and e_out are the interior sigma_0..sigma_c tables at alpha = 0
    (admissible) and at alpha_out (not).  The eta-matrix is affine in alpha,
    so each sigma_i is a polynomial of degree i: sampling sigma_1..sigma_c at
    c + 1 evenly spaced steps fixes every coefficient.  The constant term is
    taken exactly from e_in, so alpha = 0 stays admissible.  The cone is
    convex, so the steps at which every polynomial is positive at every node
    form an interval from 0; bisecting on that predicate finds its end without
    evaluating another iterate.
    """
    c = spec.op.cone_order
    s = np.arange(c + 1) / c  # alpha / alpha_out
    inner = [_eta_tensors(values + (alpha_out * x) * delta, spec)[0] for x in s[1:-1]]
    e = np.stack([table[..., 1:] for table in (e_in, *inner, e_out)])
    coef = np.empty_like(e)  # coef[q] multiplies s**q
    coef[0] = e[0]
    vander = s[1:, None] ** np.arange(1, c + 1)
    coef[1:] = np.linalg.solve(vander, (e[1:] - e[0]).reshape(c, -1)).reshape(e[1:].shape)
    # The fit is exact up to rounding of order eps times the samples.  Near a
    # root of even order, such as sigma_2 = 3 t^2 at the cone's vertex t I,
    # that rounding dips the fit below zero over a window of width ~ sqrt(eps);
    # the polynomial does not change sign there, so the dip is not an exit.
    floor = -_FIT_ROUNDING * np.abs(e).max(axis=0)

    def admissible(x: float) -> bool:
        p = coef[c]
        for q in range(c - 1, -1, -1):
            p = p * x + coef[q]
        return bool((p > floor).all())

    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return alpha_out * lo


def residual(u: ScalarField, spec: ProblemSpec) -> ScalarField:
    """Equation residual at every node; raises ConeError on any inadmissible node."""
    _, res = _evaluate(u.values, _eta_tensors(u.values, spec), spec, "iterate")
    return ScalarField(spec.grid, res)


def jacobian(u: ScalarField, spec: ProblemSpec) -> sp.csr_matrix:
    """Sparse derivative of the residual with respect to every nodal value; raises ConeError off the cone."""
    sig = _eta_tensors(u.values, spec)
    _require_admissible(sig[0], "iterate", origin=1)
    return _jacobian(sig, spec)


def _jacobian(sig, spec: ProblemSpec) -> sp.csr_matrix:
    """The Jacobian at an admissible iterate whose interior eta tensors are sig = _eta_tensors(values)."""
    return _assemble(spec.grid, spec.beta, _grad_from_tensors(*sig, spec.op))


def laplace_robin(grid: BoxGrid, beta: float) -> sp.csr_matrix:
    """The state-independent k = 1 Jacobian: (n-1) times the Laplacian inside, the Robin rows on the boundary.

    Its interior rows hold only the (2n+1)-point pattern: no explicit zeros
    are stored, because SuperLU would compute fill for them too.
    """
    n = grid.n
    fw = np.broadcast_to((n - 1.0) * np.eye(n), (grid.m - 2,) * n + (n, n))
    mat = _assemble(grid, beta, fw)
    mat.eliminate_zeros()
    return mat


def _assemble(grid: BoxGrid, beta: float, fw: np.ndarray) -> sp.csr_matrix:
    """Interior rows contract the linearization fw with the Hessian stencil; boundary rows are Robin."""
    n, m, h = grid.n, grid.m, grid.h
    flat = grid.flat_index()
    core = grid.interior()
    idx = flat[core].ravel()
    strides = [m ** (n - 1 - axis) for axis in range(n)]

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    center = np.zeros(idx.shape)
    for i in range(n):
        dii = fw[..., i, i].ravel()
        center -= 2.0 * dii / h[i] ** 2
        add(idx, idx + strides[i], dii / h[i] ** 2)
        add(idx, idx - strides[i], dii / h[i] ** 2)
        for j in range(i + 1, n):
            dij = fw[..., i, j].ravel() / (2.0 * h[i] * h[j])
            add(idx, idx + strides[i] + strides[j], dij)
            add(idx, idx - strides[i] - strides[j], dij)
            add(idx, idx + strides[i] - strides[j], -dij)
            add(idx, idx - strides[i] + strides[j], -dij)
    add(idx, idx, center)

    fc = grid.face_count()
    for axis in range(n):
        for side in (0, 1):
            face = _layer(flat, axis, side, 0).ravel()
            w = 1.0 / _layer(fc, axis, side, 0).ravel()
            for depth, c in enumerate(_OUTWARD_D1):
                add(face, _layer(flat, axis, side, depth).ravel(), c / (2.0 * h[axis]) * w)
    bidx = flat[grid.boundary_mask()]
    add(bidx, bidx, np.full(bidx.shape, beta))

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    )
    return mat.tocsr()


class _LaplaceRobinLU:
    """One LU of laplace_robin(grid, beta), factored on first use and shared by every Newton step on that grid.

    Strict ellipticity keeps each Jacobian spectrally equivalent to this
    operator, so preconditioned GMRES needs a mesh-independent number of
    iterations.  ``lu`` is the SuperLU factorization once made, and
    ``factor_s`` the time it took.
    """

    def __init__(self, grid: BoxGrid, beta: float):
        self.grid = grid
        self.beta = beta
        self.lu = None
        self.factor_s = 0.0
        self._diag = None

    def solver(self, jac_diag: np.ndarray):
        """P^-1 = LU(L)^-1 diag(diag(L) / diag(J)): L with its rows scaled to the Jacobian's diagonal."""
        if self.lu is None:
            mat = laplace_robin(self.grid, self.beta)
            self._diag = mat.diagonal()
            t0 = time.perf_counter()
            # L is structurally symmetric but for the Robin rows, so a minimum-degree
            # ordering of L^T + L applies to rows and columns alike.  Every diagonal
            # entry is nonzero: -2(n-1) sum 1/h^2 inside and 3w/(2h) + beta > 0 on
            # the boundary (beta > 0), so the diagonal pivots need no row exchange.
            self.lu = spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
            self.factor_s = time.perf_counter() - t0
        lu, scale = self.lu, self._diag / jac_diag
        return lambda v: lu.solve(scale * v.ravel())


def _newton_direction(mat: sp.csr_matrix, rhs: np.ndarray, precond: _LaplaceRobinLU):
    """Solve mat @ x = rhs by preconditioned GMRES; returns (x, Krylov iterations), x None if GMRES missed _GMRES_RTOL."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    pinv = LinearOperator(mat.shape, matvec=precond.solver(mat.diagonal()), dtype=float)
    x, info = gmres(
        mat,
        rhs,
        rtol=_GMRES_RTOL,
        atol=0.0,
        restart=_GMRES_RESTART,
        maxiter=_GMRES_MAXITER,
        M=pinv,
        callback=count,
        callback_type="pr_norm",
    )
    return (x if info == 0 else None), iterations


# ---------------------------------------------------------------------------
# Newton and continuation
# ---------------------------------------------------------------------------


def newton_solve(
    u0: ScalarField,
    spec: ProblemSpec,
    opts: NewtonOptions | None = None,
    preconditioner: _LaplaceRobinLU | None = None,
):
    """Damped Newton from an admissible start.

    Solves J delta = -R by GMRES preconditioned with one LU of
    laplace_robin(grid, beta), and halves the step until the trial iterate is
    strictly admissible at every interior node and the residual sup norm
    satisfies the Armijo decrease.  The first trial that leaves the cone is
    followed by one at _FRACTION_TO_BOUNDARY times the largest admissible
    step, and halving resumes from there.  No iterate is eigendecomposed:
    the accepted trial's Newton tensors build the next Jacobian.  Terminates
    at opts.tol (residual sup norm) or opts.max_iter; returns (solution,
    report) with report.converged telling which.  A GMRES run that misses its
    tolerance, or a line-search step below opts.min_step, raises
    NonconvergenceError.  ``preconditioner`` shares that LU between calls on
    the same grid and beta (continuation_solve passes one to all its stages);
    by default each call factors its own.
    """
    solution, report = _newton(u0, spec, opts, preconditioner)
    report.diagnostics = diagnostics(solution)
    return solution, report


def _newton(u0: ScalarField, spec: ProblemSpec, opts: NewtonOptions | None, preconditioner: _LaplaceRobinLU | None):
    """newton_solve without the diagnostics, which continuation_solve needs for its final solution only."""
    opts = opts or NewtonOptions()
    grid = spec.grid
    if u0.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    if preconditioner is None:
        preconditioner = _LaplaceRobinLU(grid, spec.beta)
    elif preconditioner.grid != grid or preconditioner.beta != spec.beta:
        raise ValueError("preconditioner was built for a different grid or beta")
    psi_t = spec.psi_tilde()
    tol = float(opts.tol) if opts.tol is not None else 1e-10 * (1.0 + float(np.abs(psi_t).max()))

    u = u0.values.copy()
    sig = _eta_tensors(u, spec)
    mmin, res = _evaluate(u, sig, spec, "initial guess")
    rnorm = float(np.abs(res).max())
    report = SolveReport()

    def failure(reason):
        report.residual_norm, report.final_margin = rnorm, mmin
        return NonconvergenceError(f"{reason} at residual {rnorm:.3e}", report)

    for _ in range(opts.max_iter):
        if rnorm <= tol:
            break
        delta, krylov = _newton_direction(_jacobian(sig, spec), -res.ravel(), preconditioner)
        if delta is None:
            raise failure(f"GMRES missed its tolerance {_GMRES_RTOL:g} in {krylov} iterations")
        delta = delta.reshape(grid.shape)

        alpha, max_step = 1.0, None
        trials = cone_rejections = armijo_rejections = 0
        while True:
            if alpha < opts.min_step:
                raise failure(f"line search underflow (step < {opts.min_step:g})")
            trials += 1
            trial = u + alpha * delta
            sig_t = _eta_tensors(trial, spec)
            try:
                mmin_t, res_t = _evaluate(trial, sig_t, spec, "trial iterate")
            except ConeError:
                cone_rejections += 1
                if max_step is None:
                    max_step = _max_admissible_step(u, delta, spec, alpha, sig[0], sig_t[0])
                    alpha = _FRACTION_TO_BOUNDARY * max_step
                    continue
            else:
                rnorm_t = float(np.abs(res_t).max())
                if rnorm_t <= (1.0 - opts.armijo * alpha) * rnorm:
                    break
                armijo_rejections += 1
            alpha *= 0.5
        u, sig, res, rnorm, mmin = trial, sig_t, res_t, rnorm_t, mmin_t
        report.iterations.append(
            IterationRecord(rnorm, alpha, mmin, krylov, trials, cone_rejections, armijo_rejections, max_step)
        )

    report.converged = bool(rnorm <= tol)
    report.residual_norm = rnorm
    report.final_margin = mmin
    return ScalarField(grid, u), report


def _default_targets() -> list[float]:
    return [round(0.1 * i, 12) for i in range(1, 11)]


def continuation_solve(spec: ProblemSpec, schedule: list[float] | None = None, opts: NewtonOptions | None = None):
    """Continuation from the exactly solvable paraboloid data to the target.

    The start u0 = |x - center|^2 / 2 solves the discrete problem with its own
    data (psi0, phi0) exactly.  Stage t blends the normalized data,
    psi_t = ((1-t) psi0_tilde + t psi_tilde) ** degree and
    phi_t = (1-t) phi0 + t phi, warm-starting each stage from the previous
    solution.  Nonconverged stages halve the step, down to 1/256; if the
    target data already equals the start data the path collapses to the
    single stage t = 1.  The report's residual_norm and final_margin are
    those of the last stage attempted, converged or not.
    """
    grid, op = spec.grid, spec.op
    spec0, u_start = manufactured_problem(paraboloid(grid.center), op, spec.beta, grid)
    deg = op.degree
    psi0_t = spec0.psi_tilde()
    psi1_t = spec.psi_tilde()
    phi0 = spec0.phi.values
    phi1 = spec.phi.values

    if schedule is None:
        schedule = spec.schedule
    if schedule is not None:
        targets = [float(t) for t in schedule]
        if targets[-1] != 1.0:
            targets.append(1.0)
    else:
        core = grid.interior()
        bmask = grid.boundary_mask()
        identical = np.array_equal(psi0_t[core], psi1_t[core]) and np.array_equal(phi0[bmask], phi1[bmask])
        targets = [1.0] if identical else _default_targets()

    report = SolveReport()
    preconditioner = _LaplaceRobinLU(grid, spec.beta)
    u = u_start.values.copy()
    t_prev = 0.0
    i = 0
    while i < len(targets):
        t = targets[i]
        blend = (1.0 - t) * psi0_t + t * psi1_t
        stage_spec = ProblemSpec(
            grid,
            op,
            spec.beta,
            ScalarField(grid, blend**deg),
            ScalarField(grid, (1.0 - t) * phi0 + t * phi1),
        )
        try:
            sol, stage_rep = _newton(ScalarField(grid, u), stage_spec, opts, preconditioner)
            ok = stage_rep.converged
        except NonconvergenceError as exc:
            sol, stage_rep, ok = None, exc.report, False
        report.continuation.append(StageRecord(t, ok, len(stage_rep.iterations)))
        report.iterations.extend(stage_rep.iterations)
        report.residual_norm = stage_rep.residual_norm
        report.final_margin = stage_rep.final_margin
        if preconditioner.lu is not None:
            report.preconditioner_nnz = int(preconditioner.lu.nnz)  # no copy, unlike lu.L and lu.U
            report.preconditioner_factor_s = preconditioner.factor_s
        if ok:
            u = sol.values
            t_prev = t
            i += 1
        else:
            step = 0.5 * (t - t_prev)
            if step < _MIN_CONTINUATION_STEP:
                report.converged = False
                raise ContinuationError(
                    f"continuation stalled at t = {t_prev:g} (minimum step {_MIN_CONTINUATION_STEP:g} reached)",
                    report,
                )
            targets.insert(i, t_prev + step)

    report.converged = True
    solution = ScalarField(grid, u)
    report.diagnostics = diagnostics(solution)
    return solution, report


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def diagnostics(u: ScalarField) -> Diagnostics:
    """Discrete gradient/Hessian/boundary suprema of a grid field."""
    grid = u.grid
    values = u.values
    sup_gradient = float(np.sqrt(sum(d * d for d in _gradient(values, grid))).max())

    hess = _interior_hessians(values, grid)
    sup_hessian_eig = float(np.linalg.eigvalsh(hess)[..., -1].max())

    sup_normal_second = max(
        float(np.abs(_one_sided(values, a, side, _NORMAL_D2) / grid.h[a] ** 2).max())
        for a in range(grid.n)
        for side in (0, 1)
    )

    return Diagnostics(sup_gradient, sup_hessian_eig, sup_normal_second)
