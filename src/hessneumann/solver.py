"""Finite-difference Newton/continuation solver for the Robin problem.

Interior nodes carry the normalized operator equation, boundary nodes the
Robin condition u_nu + beta * u = phi with a second-order one-sided normal
stencil (corner and edge nodes average the conditions of their outward axes).
The unknown is the full grid field including boundary values, so the Jacobian
is square.  Damped Newton keeps every accepted iterate strictly admissible;
the continuation driver walks the data from an exactly solvable paraboloid
problem to the target.

Each stencil is one sparse map, built once per (grid, beta): ``hess`` takes
the nodal values to the central-difference Hessians of the interior nodes,
``robin`` to u_nu + beta * u on the boundary.  The residual's boundary rows
are robin @ u - phi, and the Jacobian is C(fw) @ hess + robin, C(fw) holding
each interior node's linearization fw = dF/dr.

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
from .problem import ProblemSpec, _require_admissible, manufactured_problem, paraboloid
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


def _face_rows(grid: BoxGrid, weights: tuple, scale: np.ndarray):
    """CSR map with one row per node of each of the 2n faces, and the flat index of each row's face node.

    The row of a node on a face normal to axis a is
    scale[a] * sum_k weights[k] * (u k nodes in from the face).
    """
    n, m = grid.n, grid.m
    depth = np.arange(len(weights))
    faces = [np.moveaxis(grid.flat_index().take(i, axis=a), a, -1) for a in range(n) for i in (depth, m - 1 - depth)]
    cols = np.concatenate([face.reshape(-1, depth.size) for face in faces])
    data = np.outer(np.repeat(scale, 2 * m ** (n - 1)), weights)
    indptr = np.arange(0, cols.size + 1, depth.size)
    return sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(len(cols), grid.size)), cols[:, 0]


def _hessian_operator(grid: BoxGrid) -> sp.csr_matrix:
    """CSR map from nodal values to the interior Hessians, one row per node (C order) and pair i <= j (triu order).

    Central differences, exact on quadratics.  Every interior row has the
    same taps, so the arrays are written directly from the stencil.
    """
    n, m, h = grid.n, grid.m, grid.h
    stride = m ** np.arange(n - 1, -1, -1)
    iu, ju = np.triu_indices(n)
    offsets, weights = [], []
    for i, j in zip(iu, ju):
        if i == j:
            offsets += [-stride[i], 0, stride[i]]
            weights += [w / h[i] ** 2 for w in (1.0, -2.0, 1.0)]
        else:
            offsets += [-stride[i] - stride[j], -stride[i] + stride[j], stride[i] - stride[j], stride[i] + stride[j]]
            weights += [w / (4.0 * h[i] * h[j]) for w in (1.0, -1.0, -1.0, 1.0)]
    nodes = grid.flat_index()[grid.interior()].ravel()
    indptr = np.append(0, np.cumsum(np.tile(np.where(iu == ju, 3, 4), nodes.size)))  # taps per pair
    cols = (nodes[:, None] + np.array(offsets)).ravel()
    return sp.csr_matrix((np.tile(weights, nodes.size), cols, indptr), shape=(nodes.size * iu.size, grid.size))


def _interior_hessians(hess: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Hessians at all interior nodes, shape (m-2,)*n + (n, n), from hess = _hessian_operator(grid)."""
    n = values.ndim
    iu, ju = np.triu_indices(n)
    pair = np.empty((n, n), dtype=int)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    return (hess @ values.ravel()).reshape(tuple(s - 2 for s in values.shape) + (iu.size,))[..., pair]


class _GridOperators:
    """The sparse maps of one (grid, beta), built once per solve, and the preconditioner's LU.

    ``hess`` is _hessian_operator(grid).  ``robin`` maps u to u_nu + beta * u
    on the boundary nodes, u_nu averaging the outward one-sided differences
    of a node's faces, and has empty interior rows.

    ``lu`` is laplace_robin(grid, beta)'s SuperLU factorization, made on first
    use and shared by every Newton step on the grid, and ``factor_s`` its
    time.  Strict ellipticity keeps each Jacobian spectrally equivalent to
    that operator, so preconditioned GMRES needs a mesh-independent number of
    iterations.
    """

    def __init__(self, grid: BoxGrid, beta: float):
        self.grid, self.beta = grid, beta
        self.hess = _hessian_operator(grid)
        faces, nodes = _face_rows(grid, _OUTWARD_D1, 0.5 / grid.h)
        fc = grid.face_count().ravel()
        bidx = np.flatnonzero(fc)
        average = sp.csr_matrix((1.0 / fc[nodes], (nodes, np.arange(nodes.size))), shape=(grid.size, nodes.size))
        shift = sp.csr_matrix((np.full(bidx.size, beta), (bidx, bidx)), shape=(grid.size, grid.size))
        self.robin = average @ faces + shift
        self._pairs = np.triu_indices(grid.n)
        per_row = np.where(fc == 0, self._pairs[0].size, 0)
        self._fw_pattern = (np.arange(self.hess.shape[0]), np.append(0, np.cumsum(per_row)))
        self.lu = None
        self.factor_s = 0.0
        self._diag = None

    def jacobian(self, fw: np.ndarray) -> sp.csr_matrix:
        """C(fw) @ hess + robin at the interior linearizations fw = dF/dr, shape (m-2,)*n + (n, n) or (n, n).

        C(fw) holds fw_ii and 2 fw_ij (i < j) in each interior node's row.
        """
        iu, ju = self._pairs
        rows = (self.grid.m - 2,) * self.grid.n + (iu.size,)
        data = np.broadcast_to(fw[..., iu, ju] * np.where(iu == ju, 1.0, 2.0), rows).ravel()
        return sp.csr_matrix((data, *self._fw_pattern), shape=self.hess.shape[::-1]) @ self.hess + self.robin

    def laplace_robin(self) -> sp.csr_matrix:
        return self.jacobian((self.grid.n - 1.0) * np.eye(self.grid.n))

    def solver(self, jac_diag: np.ndarray):
        """P^-1 = LU(L)^-1 diag(diag(L) / diag(J)): L with its rows scaled to the Jacobian's diagonal."""
        if self.lu is None:
            mat = self.laplace_robin()
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


def hessian_at(u: ScalarField, node: tuple[int, ...]) -> np.ndarray:
    """Central-difference Hessian of u at one interior node (exact on quadratics)."""
    grid = u.grid
    node = tuple(int(i) for i in node)
    if len(node) != grid.n or any(not 1 <= i <= grid.m - 2 for i in node):
        raise ValueError(f"node {node} is not interior to the grid")
    return _interior_hessians(_hessian_operator(grid), u.values)[tuple(i - 1 for i in node)]


def _eta_tensors(values: np.ndarray, spec: ProblemSpec, ops: _GridOperators):
    """newton_tensors of eta = trace(H) I - H at all interior nodes, up to the cone order: (sigma table, tensors)."""
    hess = _interior_hessians(ops.hess, values)
    tr = np.trace(hess, axis1=-2, axis2=-1)
    return newton_tensors(tr[..., None, None] * np.eye(spec.grid.n) - hess, spec.op.cone_order)


def _evaluate(values: np.ndarray, sig, spec: ProblemSpec, ops: _GridOperators, what: str):
    """(least cone margin, residual) at values, whose interior eta tensors are sig = _eta_tensors(values).

    Raises ConeError at the worst node unless every interior node is strictly
    admissible.
    """
    margin = _require_admissible(sig[0], what, origin=1)
    grid = spec.grid
    out = (ops.robin @ values.ravel()).reshape(grid.shape) - spec.phi.values
    core = grid.interior()
    out[core] = _value_from_sigmas(sig[0], spec.op) - spec.psi_tilde()[core]
    return margin, out


def _max_admissible_step(
    values: np.ndarray, delta: np.ndarray, spec: ProblemSpec, ops: _GridOperators, alpha_out: float, e_in, e_out
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
    inner = [_eta_tensors(values + (alpha_out * x) * delta, spec, ops)[0] for x in s[1:-1]]
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
    ops = _GridOperators(spec.grid, spec.beta)
    _, res = _evaluate(u.values, _eta_tensors(u.values, spec, ops), spec, ops, "iterate")
    return ScalarField(spec.grid, res)


def jacobian(u: ScalarField, spec: ProblemSpec) -> sp.csr_matrix:
    """Sparse derivative of the residual with respect to every nodal value; raises ConeError off the cone."""
    ops = _GridOperators(spec.grid, spec.beta)
    sig = _eta_tensors(u.values, spec, ops)
    _require_admissible(sig[0], "iterate", origin=1)
    return ops.jacobian(_grad_from_tensors(*sig, spec.op))


def laplace_robin(grid: BoxGrid, beta: float) -> sp.csr_matrix:
    """The state-independent k = 1 Jacobian: (n-1) times the Laplacian inside, the Robin rows on the boundary.

    Its interior rows hold only the (2n+1)-point pattern: the sparse product
    drops the exact zeros of the mixed-pair taps, which SuperLU would
    otherwise fill for too.
    """
    return _GridOperators(grid, beta).laplace_robin()


def _newton_direction(mat: sp.csr_matrix, rhs: np.ndarray, precond: _GridOperators):
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
    preconditioner: _GridOperators | None = None,
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
    NonconvergenceError.  ``preconditioner``, a _GridOperators of this grid
    and beta, shares its maps and LU between calls (continuation_solve passes
    one to all its stages); by default each call builds its own.
    """
    solution, report = _newton(u0, spec, opts, preconditioner)
    report.diagnostics = diagnostics(solution)
    return solution, report


def _newton(u0: ScalarField, spec: ProblemSpec, opts: NewtonOptions | None, ops: _GridOperators | None):
    """newton_solve without the diagnostics, which continuation_solve needs for its final solution only."""
    opts = opts or NewtonOptions()
    grid = spec.grid
    if u0.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    if ops is None:
        ops = _GridOperators(grid, spec.beta)
    elif ops.grid != grid or ops.beta != spec.beta:
        raise ValueError("preconditioner was built for a different grid or beta")
    psi_t = spec.psi_tilde()
    tol = float(opts.tol) if opts.tol is not None else 1e-10 * (1.0 + float(np.abs(psi_t).max()))

    u = u0.values.copy()
    sig = _eta_tensors(u, spec, ops)
    mmin, res = _evaluate(u, sig, spec, ops, "initial guess")
    rnorm = float(np.abs(res).max())
    report = SolveReport()

    def failure(reason):
        report.residual_norm, report.final_margin = rnorm, mmin
        return NonconvergenceError(f"{reason} at residual {rnorm:.3e}", report)

    for _ in range(opts.max_iter):
        if rnorm <= tol:
            break
        delta, krylov = _newton_direction(ops.jacobian(_grad_from_tensors(*sig, spec.op)), -res.ravel(), ops)
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
            sig_t = _eta_tensors(trial, spec, ops)
            try:
                mmin_t, res_t = _evaluate(trial, sig_t, spec, ops, "trial iterate")
            except ConeError:
                cone_rejections += 1
                if max_step is None:
                    max_step = _max_admissible_step(u, delta, spec, ops, alpha, sig[0], sig_t[0])
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
    ops = _GridOperators(grid, spec.beta)
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
            sol, stage_rep = _newton(ScalarField(grid, u), stage_spec, opts, ops)
            ok = stage_rep.converged
        except NonconvergenceError as exc:
            sol, stage_rep, ok = None, exc.report, False
        report.continuation.append(StageRecord(t, ok, len(stage_rep.iterations)))
        report.iterations.extend(stage_rep.iterations)
        report.residual_norm = stage_rep.residual_norm
        report.final_margin = stage_rep.final_margin
        if ops.lu is not None:
            report.preconditioner_nnz = int(ops.lu.nnz)  # no copy, unlike lu.L and lu.U
            report.preconditioner_factor_s = ops.factor_s
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
    grid, values = u.grid, u.values
    sup_gradient = float(np.sqrt(sum(d * d for d in np.gradient(values, *grid.h, edge_order=2))).max())
    sup_hessian_eig = float(np.linalg.eigvalsh(_interior_hessians(_hessian_operator(grid), values))[..., -1].max())
    second, _ = _face_rows(grid, _NORMAL_D2, grid.h**-2.0)
    sup_normal_second = float(np.abs(second @ values.ravel()).max())
    return Diagnostics(sup_gradient, sup_hessian_eig, sup_normal_second)
