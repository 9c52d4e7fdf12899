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
operator.newton_tensors, as does manufactured_problem for the start data;
``diagnostics`` is the one eigenvalue computation.  The sigma table has the
order on axis 0, and every cone check is symfun._check_in_gamma, which names
the worst node in full-grid indices.

Each Newton step solves its Jacobian system by GMRES, preconditioned by a
direct solve of laplace_robin: eliminating the boundary rows leaves a
Kronecker sum of 1-D operators on the interior, which one tridiagonal
eigendecomposition per axis and grid diagonalizes (_laplace_robin_solve).
The GMRES loop is here, scipy's algorithm with its vector arithmetic in
np.einsum, which calls no BLAS and so wakes no OpenBLAS thread (see _dot).
It stops on scipy's relative residual test or, where float64 cannot meet
that, on a backward error of 16 eps (see _newton_direction).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  (unused here; bench/tracing.py patches it)
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dlartg

from .grid import BoxGrid, ScalarField
from .operator import OperatorSpec, _eta, _grad_from_tensors, _value_from_sigmas, newton_tensors
from .operator import grad_at_eta  # noqa: F401  (unused here, like sigma_all; bench/tracing.py patches both)
from .problem import ContinuationError, NonconvergenceError  # noqa: F401  (defined in problem, which loads no scipy)
from .problem import ProblemSpec, manufactured_problem, paraboloid
from .symfun import ConeError, _check_in_gamma, sigma_all  # noqa: F401

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

# GMRES stopping tests on the true residual: |b - J x| <= rtol |b|, or the
# backward-error test of _newton_direction; restarts of up to _GMRES_RESTART
# iterations, at most _GMRES_MAXITER of them.
_GMRES_RTOL = 1e-10
_GMRES_BACKWARD = 16.0 * np.finfo(float).eps
_GMRES_RESTART = 60
_GMRES_MAXITER = 5

# Line search: Armijo's sufficient decrease of the residual sup norm, and the
# step below which it gives up.
_ARMIJO = 1e-4
_MIN_STEP = 1e-12


@dataclass(frozen=True)
class NewtonOptions:
    """Damped-Newton controls.  tol=None means 1e-10 * (1 + max |psi_tilde|)."""

    tol: float | None = None
    max_iter: int = 50


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
    """One continuation stage.

    ``reason`` says why the stage failed: its NonconvergenceError's message,
    or that Newton used up max_iter steps.  It is None for a converged stage.
    """

    t: float
    converged: bool
    iterations: int
    reason: str | None = None


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

    ``preconditioner_factor_s`` is the time of the preconditioner's one
    build, which continuation_solve shares between its stages; it is 0 when
    no Newton step ran.
    """

    converged: bool = False
    residual_norm: float = float("nan")
    final_margin: float = float("nan")
    iterations: list[IterationRecord] = field(default_factory=list)
    continuation: list[StageRecord] = field(default_factory=list)
    diagnostics: Diagnostics | None = None
    preconditioner_factor_s: float = 0.0

    def to_dict(self) -> dict:
        """The report.json payload: the fields above, records nested as dicts."""
        return asdict(self)


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
    stride = m ** np.arange(n - 1, -1, -1)
    cols = np.concatenate([nodes[:, None] + step * stride[a] * depth for a, step, nodes in grid.faces()])
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


def _axis_transforms(x: np.ndarray, mats) -> np.ndarray:
    """x, the flat C-order values of a (p,)*n block, with mats[a] applied along axis a; flat again.

    Each einsum takes the leading axis and writes it last, so after n of them
    the axes are back in order.  einsum calls no BLAS (see _dot).
    """
    for mat in mats:
        x = np.einsum("ij,jk->ki", mat, x.reshape(mat.shape[1], -1))
    return x.ravel()


def _laplace_robin_solve(grid: BoxGrid, beta: float, mat: sp.csr_matrix):
    """A solve of mat = laplace_robin(grid, beta), exact up to rounding, by fast diagonalization.

    Let d be a node's face count.  The Robin row of a d-node holds only itself
    and (d-1)-nodes (m >= 9 keeps its one-sided stencil off the opposite
    face), and an interior row only interior and 1-nodes, since mat stores no
    mixed taps.  So once the interior is known the boundary classes follow in
    the order d = 1..n, and eliminating the 1-nodes from the interior rows
    leaves the Kronecker sum (n-1) sum_a I x..x T_a / h_a^2 x..x I.  T_a is
    [1, -2, 1] on the m-2 interior points of axis a but at its two ends: there
    the face row w0 u_0 + w1 u_1 + w2 u_2 + 2 h_a beta u_0 = 2 h_a b, with
    w = _OUTWARD_D1, gives u_0 = (2 h_a b - w1 u_1 - w2 u_2) / g_a,
    g_a = w0 + 2 h_a beta, which adds -w1/g_a to the end diagonal and -w2/g_a
    to the end off-diagonal.  With g_a >= 3 the end off-diagonals have a
    positive product c_a = 1 - w2/g_a, so D T_a D^-1 is symmetric for
    D = diag(s, 1, .., 1, s), s = c_a^-1/2, and eigh_tridiagonal gives it as
    Q_a diag(lam_a) Q_a^T.  The interior solve is n axis transforms by
    Q_a^T D, a division by the eigenvalue sums and n transforms by D^-1 Q_a
    (Lynch, Rice & Thomas 1964).

    Returns the solve, a function of a flat right-hand side.
    """
    n, m, h = grid.n, grid.m, grid.h
    p = m - 2
    diag = mat.diagonal()
    fc = grid.face_count().ravel()
    inner = np.flatnonzero(fc == 0)
    classes = [(idx, mat[idx], diag[idx]) for idx in (np.flatnonzero(fc == d) for d in range(1, n + 1))]
    faces, _, face_diag = classes[0]
    fold = (mat[inner][:, faces] @ sp.diags(1.0 / face_diag)).tocsr()  # L_IF D_F^-1
    forward, backward, lam = [], [], np.zeros(())
    w0, w1, w2 = _OUTWARD_D1
    for a in range(n):
        g = w0 + 2.0 * h[a] * beta
        t_diag = np.full(p, -2.0)
        t_diag[[0, -1]] -= w1 / g
        t_off = np.ones(p - 1)
        t_off[[0, -1]] = np.sqrt(1.0 - w2 / g)
        vals, vecs = eigh_tridiagonal(t_diag, t_off)
        s = np.ones(p)
        s[[0, -1]] = 1.0 / t_off[0]
        forward.append(vecs.T * s)
        backward.append(vecs / s[:, None])
        lam = np.add.outer(lam, (n - 1) * vals / h[a] ** 2)
    lam = lam.ravel()

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.zeros_like(b)
        x[inner] = _axis_transforms(_axis_transforms(b[inner] - fold @ b[faces], forward) / lam, backward)
        for idx, rows, d in classes:  # x is still 0 on class d, so rows @ x reads class d-1 only
            x[idx] = (b[idx] - rows @ x) / d
        return x

    return solve


class _GridOperators:
    """The sparse maps of one (grid, beta), built once per solve, and the preconditioner.

    ``hess`` is _hessian_operator(grid).  ``robin`` maps u to u_nu + beta * u
    on the boundary nodes, u_nu averaging the outward one-sided differences
    of a node's faces, and has empty interior rows.

    The preconditioner is a direct solve of laplace_robin(grid, beta) by
    _laplace_robin_solve, built on first use and shared by every Newton step
    on the grid; ``factor_s`` is the time of that build.  Strict ellipticity
    keeps each Jacobian spectrally equivalent to that operator, so
    preconditioned GMRES needs a mesh-independent number of iterations.
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
        self.factor_s = 0.0
        self._solve = None
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
        """P^-1 = L^-1 diag(diag(L) / diag(J)): L with its rows scaled to the Jacobian's diagonal."""
        if self._solve is None:
            t0 = time.perf_counter()
            mat = self.laplace_robin()
            self._diag = mat.diagonal()
            self._solve = _laplace_robin_solve(self.grid, self.beta, mat)
            self.factor_s = time.perf_counter() - t0
        solve, scale = self._solve, self._diag / jac_diag
        return lambda v: solve(scale * v.ravel())


def hessian_at(u: ScalarField, node: tuple[int, ...]) -> np.ndarray:
    """Central-difference Hessian of u at one interior node (exact on quadratics)."""
    grid = u.grid
    node = tuple(int(i) for i in node)
    if len(node) != grid.n or any(not 1 <= i <= grid.m - 2 for i in node):
        raise ValueError(f"node {node} is not interior to the grid")
    return _interior_hessians(_hessian_operator(grid), u.values)[tuple(i - 1 for i in node)]


def _eta_tensors(values: np.ndarray, op: OperatorSpec, ops: _GridOperators):
    """newton_tensors of eta = trace(H) I - H at all interior nodes, up to the cone order: (sigma table, tensors)."""
    return newton_tensors(_eta(_interior_hessians(ops.hess, values)), op.cone_order)


def _evaluate(values: np.ndarray, sig, op: OperatorSpec, psi_t, phi, ops: _GridOperators, what: str):
    """(least cone margin, residual) at values, whose interior eta tensors are sig = _eta_tensors(values).

    psi_t is the normalized right-hand side and phi the boundary data, both
    full-grid arrays.  Raises ConeError at the worst node, in full-grid
    indices, unless every interior node is strictly admissible.
    """
    margin = _check_in_gamma(sig[0], what, origin=1)
    out = (ops.robin @ values.ravel()).reshape(values.shape) - phi
    core = ops.grid.interior()
    out[core] = _value_from_sigmas(sig[0], op) - psi_t[core]
    return margin, out


def _max_admissible_step(
    values: np.ndarray, delta: np.ndarray, op: OperatorSpec, ops: _GridOperators, alpha_out: float, e_in, e_out
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
    c = op.cone_order
    s = np.arange(c + 1) / c  # alpha / alpha_out
    inner = [_eta_tensors(values + (alpha_out * x) * delta, op, ops)[0] for x in s[1:-1]]
    e = np.stack([table[1:] for table in (e_in, *inner, e_out)])
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
    sig = _eta_tensors(u.values, spec.op, ops)
    _, res = _evaluate(u.values, sig, spec.op, spec.psi_tilde(), spec.phi.values, ops, "iterate")
    return ScalarField(spec.grid, res)


def jacobian(u: ScalarField, spec: ProblemSpec) -> sp.csr_matrix:
    """Sparse derivative of the residual with respect to every nodal value; raises ConeError off the cone."""
    ops = _GridOperators(spec.grid, spec.beta)
    sig = _eta_tensors(u.values, spec.op, ops)
    _check_in_gamma(sig[0], "iterate", origin=1)
    return ops.jacobian(_grad_from_tensors(*sig, spec.op))


def laplace_robin(grid: BoxGrid, beta: float) -> sp.csr_matrix:
    """The state-independent k = 1 Jacobian: (n-1) times the Laplacian inside, the Robin rows on the boundary.

    Its interior rows hold only the (2n+1)-point pattern: the sparse product
    drops the exact zeros of the mixed-pair taps, so an interior row reaches
    no edge or corner node, which _laplace_robin_solve relies on.
    """
    return _GridOperators(grid, beta).laplace_robin()


def _dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """Inner product of two grid vectors.

    einsum sums in its own loop.  np.dot and np.linalg.norm reach BLAS ddot,
    which OpenBLAS splits over threads past 10 000 entries; its idle worker
    then spins after every call, and GMRES makes hundreds of them.
    """
    return np.einsum("i,i", a, b)


def _norm(a: np.ndarray) -> np.float64:
    return np.sqrt(_dot(a, a))


def _newton_direction(mat: sp.csr_matrix, rhs: np.ndarray, precond: _GridOperators):
    """Solve mat @ x = rhs by preconditioned GMRES; returns (x, Krylov iterations), x None if GMRES missed _GMRES_RTOL.

    The algorithm of scipy 1.17's real gmres from x0 = 0 (Saad & Schultz
    1986): left preconditioning, restarts of _GMRES_RESTART iterations, at
    most _GMRES_MAXITER of them, modified Gram-Schmidt, Givens rotations from
    LAPACK's dlartg, and the gh-8400 control of the inner tolerance ptol on
    the preconditioned residual.  It stops on the true residual r = rhs -
    mat @ x, once |r| <= _GMRES_RTOL |rhs| or, tested only when that fails,
    |r| <= 16 eps (| |mat| |x| | + |rhs|), all 2-norms.

    The second test is a normwise backward error of at most 16 eps: x then
    solves exactly a system whose matrix and right-hand side differ from mat
    and rhs by at most that relative amount (Rigal & Gaches 1967; Arioli,
    Duff & Ruiz 1992).  Forming r in float64 rounds each entry by up to
    p eps (|mat| |x| + |rhs|), p the taps of its row (Higham 2002, 3.5), and
    errors of either sign grow like sqrt(p) eps, about 4 eps for the 19 taps
    of a 3-D interior row; so 16 eps lies just above the floor below which
    the computed |r| says nothing.  On a fine grid or at a small beta the
    1e-10 test can lie below that floor, where no x passes it.
    """
    psolve = precond.solver(mat.diagonal())
    eps = np.finfo(float).eps
    iterations = 0
    # With data at the edge of float64 (|phi| near 1e154, or beta far from 1)
    # the 2-norms of rhs and of its preconditioned image overflow.  An infinite
    # |rhs| makes the tolerance infinite, which any x would meet, so it is a
    # miss; otherwise the step is no descent direction, the line search
    # underflows and the caller reports a NonconvergenceError, so numpy need
    # not warn as well.  Every norm is a numpy scalar, so a zero or infinite
    # one divides to inf or nan.
    with np.errstate(all="ignore"):
        bnrm2 = _norm(rhs)
        if bnrm2 == 0:
            return rhs, 0
        if not np.isfinite(bnrm2):
            return None, 0
        atol = _GMRES_RTOL * bnrm2
        restart = min(_GMRES_RESTART, rhs.size)
        x = np.zeros_like(rhs)
        z = psolve(rhs)  # the preconditioned residual at x0 = 0
        ptol_max_factor = 1.0
        ptol = _norm(z) * min(ptol_max_factor, atol / bnrm2)
        v = np.empty((restart + 1, rhs.size))
        h = np.zeros((restart, restart + 1))  # h[col] is column col of the Hessenberg matrix
        givens = np.zeros((restart, 2))
        for _ in range(_GMRES_MAXITER):
            znrm = _norm(z)
            np.multiply(z, 1 / znrm, out=v[0])
            s_rhs = np.zeros(restart + 1)  # right-hand side of the rotated least-squares problem
            s_rhs[0] = znrm
            breakdown = False
            for col in range(restart):
                w = psolve(mat @ v[col])
                h0 = _norm(w)
                for k in range(col + 1):
                    h[col, k] = _dot(v[k], w)
                    w -= h[col, k] * v[k]
                h1 = h[col, col + 1] = _norm(w)
                v[col + 1] = w
                if h1 <= eps * h0:  # the Krylov space is invariant: x is exact
                    h[col, col + 1] = 0
                    breakdown = True
                else:
                    v[col + 1] *= 1 / h1
                for k in range(col):
                    c, s = givens[k]
                    h[col, k], h[col, k + 1] = c * h[col, k] + s * h[col, k + 1], c * h[col, k + 1] - s * h[col, k]
                c, s, h[col, col] = dlartg(h[col, col], h[col, col + 1])
                givens[col] = c, s
                s_rhs[col + 1] = -s * s_rhs[col]
                s_rhs[col] *= c
                presid = abs(s_rhs[col + 1])
                iterations += 1
                if presid <= ptol or breakdown:
                    break
            if h[col, col] == 0:
                s_rhs[col] = 0
            y = s_rhs[: col + 1]
            for k in range(col, -1, -1):  # back substitution, skipping zero entries as scipy does
                if y[k] != 0:
                    y[k] /= h[k, k]
                    y[:k] -= y[k] * h[k, :k]
            x += np.einsum("i,ij", y, v[: col + 1])  # no BLAS gemv either
            r = rhs - mat @ x
            rnorm = _norm(r)
            ok = rnorm <= atol or rnorm <= _GMRES_BACKWARD * (_norm(abs(mat) @ np.abs(x)) + bnrm2)
            if ok or breakdown:
                break
            if presid <= ptol:
                ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
            else:
                ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
            ptol = presid * min(ptol_max_factor, atol / rnorm)
            z = psolve(r)
    return (x if ok else None), iterations


# ---------------------------------------------------------------------------
# Newton and continuation
# ---------------------------------------------------------------------------


def newton_solve(u0: ScalarField, spec: ProblemSpec, opts: NewtonOptions | None = None):
    """Damped Newton from an admissible start.

    Solves J delta = -R by GMRES preconditioned with one direct solver of
    laplace_robin(grid, beta), and halves the step until the trial iterate is
    strictly admissible at every interior node and the residual sup norm
    satisfies the Armijo decrease.  The first trial that leaves the cone is
    followed by one at _FRACTION_TO_BOUNDARY times the largest admissible
    step, and halving resumes from there.  No iterate is eigendecomposed:
    the accepted trial's Newton tensors build the next Jacobian.  Terminates
    at opts.tol (residual sup norm) or opts.max_iter; returns (solution,
    report) with report.converged telling which.  A GMRES run that misses its
    tolerance, or a line-search step below _MIN_STEP, raises
    NonconvergenceError.
    """
    if u0.grid != spec.grid:
        raise ValueError("initial guess lives on a different grid")
    ops = _GridOperators(spec.grid, spec.beta)
    report = SolveReport()
    u = _newton(u0.values.copy(), spec.op, spec.psi_tilde(), spec.phi.values, opts, ops, report)
    solution = ScalarField(spec.grid, u)
    report.diagnostics = diagnostics(solution, ops=ops)
    return solution, report


def _newton(u, op: OperatorSpec, psi_t, phi, opts: NewtonOptions | None, ops: _GridOperators, report: SolveReport):
    """newton_solve's iteration on arrays: from the values u, with normalized data psi_t and phi on ops' grid.

    Appends one IterationRecord per accepted step to report and keeps its
    converged, residual_norm, final_margin and preconditioner_factor_s those
    of the current iterate, so a raised NonconvergenceError carries report
    as it stood.  Returns the last iterate's values; report.converged says
    whether it met the tolerance.
    """
    opts = opts or NewtonOptions()
    tol = float(opts.tol) if opts.tol is not None else 1e-10 * (1.0 + float(np.abs(psi_t).max()))
    sig = _eta_tensors(u, op, ops)
    mmin, res = _evaluate(u, sig, op, psi_t, phi, ops, "initial guess")
    rnorm = float(np.abs(res).max())
    steps = 0
    while True:
        report.converged = bool(rnorm <= tol)
        report.residual_norm, report.final_margin = rnorm, mmin
        if report.converged or steps >= opts.max_iter:
            return u
        steps += 1
        delta, krylov = _newton_direction(ops.jacobian(_grad_from_tensors(*sig, op)), -res.ravel(), ops)
        report.preconditioner_factor_s = ops.factor_s
        if delta is None:
            reason = f"GMRES missed its tolerance {_GMRES_RTOL:g} in {krylov} iterations"
            raise NonconvergenceError(f"{reason} at residual {rnorm:.3e}", report)
        delta = delta.reshape(u.shape)

        alpha, max_step = 1.0, None
        trials = cone_rejections = armijo_rejections = 0
        while True:
            if alpha < _MIN_STEP:
                reason = f"line search underflow (step < {_MIN_STEP:g})"
                raise NonconvergenceError(f"{reason} at residual {rnorm:.3e}", report)
            trials += 1
            trial = u + alpha * delta
            sig_t = _eta_tensors(trial, op, ops)
            try:
                mmin_t, res_t = _evaluate(trial, sig_t, op, psi_t, phi, ops, "trial iterate")
            except ConeError:
                cone_rejections += 1
                if max_step is None:
                    max_step = _max_admissible_step(u, delta, op, ops, alpha, sig[0], sig_t[0])
                    alpha = _FRACTION_TO_BOUNDARY * max_step
                    continue
            else:
                rnorm_t = float(np.abs(res_t).max())
                if rnorm_t <= (1.0 - _ARMIJO * alpha) * rnorm:
                    break
                armijo_rejections += 1
            alpha *= 0.5
        u, sig, res, rnorm, mmin = trial, sig_t, res_t, rnorm_t, mmin_t
        report.iterations.append(
            IterationRecord(rnorm, alpha, mmin, krylov, trials, cone_rejections, armijo_rejections, max_step)
        )


def continuation_solve(spec: ProblemSpec, opts: NewtonOptions | None = None):
    """Continuation from the exactly solvable paraboloid data to the target.

    The start u0 = |x - center|^2 / 2 solves the discrete problem with its own
    data (psi0, phi0) exactly.  Stage t runs Newton on the blend of the
    normalized data, psi_t = (1-t) psi0_tilde + t psi_tilde and
    phi_t = (1-t) phi0 + t phi, warm-starting each stage from the previous
    solution.  The stages are the schedule's entries below 1, then t = 1, so
    a problem without a schedule starts at the target data.  A nonconverged
    stage halves the step from the last converged t, down to 1/256.  Every
    stage appends its Newton steps to the one report, whose residual_norm
    and final_margin are those of the last stage attempted, converged or not.
    """
    grid, op = spec.grid, spec.op
    spec0, u_start = manufactured_problem(paraboloid(grid.center), op, spec.beta, grid)
    psi0_t, psi1_t = spec0.psi_tilde(), spec.psi_tilde()
    phi0, phi1 = spec0.phi.values, spec.phi.values
    targets = [t for t in spec.schedule or () if t < 1.0] + [1.0]

    report = SolveReport()
    ops = _GridOperators(grid, spec.beta)
    u = u_start.values
    t_prev = 0.0
    i = 0
    while i < len(targets):
        t = targets[i]
        before = len(report.iterations)
        try:
            u_t = _newton(u, op, (1.0 - t) * psi0_t + t * psi1_t, (1.0 - t) * phi0 + t * phi1, opts, ops, report)
            reason = None
        except NonconvergenceError as exc:
            reason = str(exc)
        steps = len(report.iterations) - before
        if reason is None and not report.converged:
            reason = f"no convergence in {steps} Newton steps at residual {report.residual_norm:.3e}"
        report.continuation.append(StageRecord(t, report.converged, steps, reason))
        if report.converged:
            u, t_prev, i = u_t, t, i + 1
        else:
            step = 0.5 * (t - t_prev)
            if step < _MIN_CONTINUATION_STEP:
                raise ContinuationError(
                    f"continuation stalled at t = {t_prev:g} (minimum step {_MIN_CONTINUATION_STEP:g} reached)",
                    report,
                )
            targets.insert(i, t_prev + step)

    solution = ScalarField(grid, u)
    report.diagnostics = diagnostics(solution, ops=ops)
    return solution, report


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def diagnostics(u: ScalarField, *, ops: _GridOperators | None = None) -> Diagnostics:
    """Discrete gradient/Hessian/boundary suprema of a grid field; ``ops``, made for u's grid, lends its Hessian map."""
    grid, values = u.grid, u.values
    if ops is not None and ops.grid != grid:
        raise ValueError("the grid operators were built for a different grid")
    hess = _hessian_operator(grid) if ops is None else ops.hess
    sup_gradient = float(np.sqrt(sum(d * d for d in np.gradient(values, *grid.h, edge_order=2))).max())
    sup_hessian_eig = float(np.linalg.eigvalsh(_interior_hessians(hess, values))[..., -1].max())
    second, _ = _face_rows(grid, _NORMAL_D2, grid.h**-2.0)
    sup_normal_second = float(np.abs(second @ values.ravel()).max())
    return Diagnostics(sup_gradient, sup_hessian_eig, sup_normal_second)
