import math
import os
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hessneumann import solver
from hessneumann.fieldio import read_field_binary
from hessneumann.grid import BoxGrid, ScalarField
from hessneumann.operator import OperatorSpec, eta_matrix, grad_at_eta
from hessneumann.problem import build_case, load_problem, manufactured_problem, paraboloid, perturbed_paraboloid
from hessneumann.solver import (
    ContinuationError,
    NewtonOptions,
    NonconvergenceError,
    continuation_solve,
    diagnostics,
    hessian_at,
    jacobian,
    laplace_robin,
    newton_solve,
    residual,
)
from hessneumann.symfun import ConeError


REPO = Path(__file__).resolve().parent.parent


def paraboloid_spec(m=9, n=3, k=2, beta=1.0):
    lo, hi = (0.0,) * n, (1.0,) * n
    grid = BoxGrid(lo, hi, m)
    return manufactured_problem(paraboloid(grid.center), OperatorSpec(n, k), beta, grid)


def psi_zero_spec(m=9):
    """The paraboloid problem with psi = 12 |x - c|^2, which vanishes at the center."""
    spec0, _ = paraboloid_spec(m=m)
    grid = spec0.grid
    pts = grid.points()
    psi = 12.0 * ((pts - 0.5) ** 2).sum(axis=1).reshape(grid.shape)
    return type(spec0)(grid, spec0.op, 1.0, ScalarField(grid, psi), spec0.phi)


def quadratic_field(grid, a, b, c=0.0):
    pts = grid.points()
    vals = 0.5 * np.einsum("pi,ij,pj->p", pts, a, pts) + pts @ b + c
    return ScalarField(grid, vals.reshape(grid.shape))


class TestHessianAt:
    def test_exact_on_random_quadratic(self):
        rng = np.random.default_rng(0)
        grid = BoxGrid((0, 0, 0), (1, 2, 1.5), 9)
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        u = quadratic_field(grid, a, rng.standard_normal(3), 1.3)
        for node in ((1, 1, 1), (4, 4, 4), (7, 3, 2)):
            np.testing.assert_allclose(hessian_at(u, node), a, atol=1e-11)

    def test_identity_for_half_norm_squared(self):
        grid = BoxGrid((0, 0), (1, 1), 9)
        u = quadratic_field(grid, np.eye(2), np.zeros(2))
        np.testing.assert_allclose(hessian_at(u, (3, 5)), np.eye(2), atol=1e-12)

    def test_second_order_on_sine(self):
        errs = []
        for m in (17, 33):
            grid = BoxGrid((0, 0), (1, 1), m)
            u = ScalarField.from_points(grid, lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
            mid = (m // 2, m // 2)
            x = grid.points().reshape(grid.shape + (2,))[mid]
            s1, s2 = np.sin(np.pi * x[0]), np.sin(np.pi * x[1])
            c1, c2 = np.cos(np.pi * x[0]), np.cos(np.pi * x[1])
            exact = np.pi**2 * np.array([[-s1 * s2, c1 * c2], [c1 * c2, -s1 * s2]])
            errs.append(np.abs(hessian_at(u, mid) - exact).max())
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0  # halving h quarters the error

    def test_boundary_rejected(self):
        grid = BoxGrid((0, 0), (1, 1), 9)
        u = ScalarField.constant(grid, 0.0)
        with pytest.raises(ValueError):
            hessian_at(u, (0, 4))


class TestResidual:
    def test_zero_at_manufactured_solution(self):
        spec, u_star = paraboloid_spec(m=9)
        r = residual(u_star, spec)
        assert np.abs(r.values).max() < 1e-11

    def test_k1_reduces_to_laplacian(self):
        grid = BoxGrid((0, 0), (1, 1), 9)
        spec, u_star = manufactured_problem(perturbed_paraboloid(2, 0.05), OperatorSpec(2, 1), 1.0, grid)
        r = residual(u_star, spec)
        core = grid.interior()
        u = u_star.values
        h = grid.h
        lap = (
            (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h[0] ** 2
            + (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h[1] ** 2
        )
        np.testing.assert_allclose(r.values[core], lap - spec.psi.values[core], atol=1e-12)

    def test_boundary_rows_exact_on_quadratic(self):
        spec, u_star = paraboloid_spec(m=9)
        r = residual(u_star, spec)
        mask = spec.grid.boundary_mask()
        assert np.abs(r.values[mask]).max() < 1e-12

    def test_cone_error_names_node(self):
        spec, u_star = paraboloid_spec(m=9)
        bad = ScalarField(spec.grid, -u_star.values)
        with pytest.raises(ConeError) as info:
            residual(bad, spec)
        assert info.value.node is not None and len(info.value.node) == 3
        assert info.value.value <= 0


class TestJacobian:
    @pytest.mark.parametrize("case,m", [("perturbed-paraboloid-2d", 9), ("perturbed-paraboloid", 9)])
    def test_matches_fd_jacobian(self, case, m):
        spec, u_star = build_case(case, m)
        rng = np.random.default_rng(5)
        u = ScalarField(spec.grid, u_star.values + 1e-3 * rng.standard_normal(spec.grid.shape))
        mat = jacobian(u, spec)
        r0 = residual(u, spec).values
        eps = 1e-6
        for trial in range(3):
            delta = rng.standard_normal(spec.grid.shape)
            delta /= np.abs(delta).max()
            up = ScalarField(spec.grid, u.values + eps * delta)
            dn = ScalarField(spec.grid, u.values - eps * delta)
            fd = (residual(up, spec).values - residual(dn, spec).values) / (2 * eps)
            jv = (mat @ delta.ravel()).reshape(spec.grid.shape)
            denom = max(1.0, np.abs(fd).max())
            assert np.abs(jv - fd).max() / denom < 1e-5

    def test_k1_jacobian_independent_of_state(self):
        spec, u_star = build_case("perturbed-paraboloid-2d", 9)
        a = jacobian(u_star, spec)
        other = ScalarField(spec.grid, u_star.values + 0.3 * np.ones(spec.grid.shape))
        b = jacobian(other, spec)
        assert abs(a - b).max() < 1e-12

    def test_quadratic_rows_translation_invariant(self):
        # same Hessian, different linear part: identical Jacobian
        spec, _ = paraboloid_spec(m=9)
        grid = spec.grid
        u1 = quadratic_field(grid, np.eye(3), np.zeros(3))
        u2 = quadratic_field(grid, np.eye(3), np.array([0.4, -0.2, 0.1]), 5.0)
        assert abs(jacobian(u1, spec) - jacobian(u2, spec)).max() < 1e-10

    def test_stencil_support_bound(self):
        spec, u_star = paraboloid_spec(m=9)
        mat = jacobian(u_star, spec)
        per_row = np.diff(mat.indptr)
        assert per_row.max() <= 3**3 + 2


def _eigh_jacobian(u, spec):
    """The Jacobian through the eigendecomposition: dF/dr = trace(a) I - a with a = Q diag(grad_at_eta) Q^T."""
    ops = solver._GridOperators(spec.grid, spec.beta)
    hess = solver._interior_hessians(ops.hess, u.values)
    lam, q = np.linalg.eigh(eta_matrix(hess))
    a = np.einsum("...ij,...j,...kj->...ik", q, grad_at_eta(lam, spec.op), q)
    fw = np.trace(a, axis1=-2, axis2=-1)[..., None, None] * np.eye(spec.grid.n) - a
    return ops.jacobian(fw)


class TestNewtonTensorJacobian:
    @pytest.mark.parametrize("n,k,l", [(2, 1, None), (3, 1, None), (3, 2, None), (3, 2, 1)])
    def test_matches_the_eigendecomposition(self, n, k, l):
        grid = BoxGrid((0.0,) * n, (1.0,) * (n - 1) + (1.5,), 9)
        spec, u_star = manufactured_problem(perturbed_paraboloid(n, 0.05), OperatorSpec(n, k, l), 1.0, grid)
        rng = np.random.default_rng(n + 10 * k)
        u = ScalarField(grid, u_star.values + 1e-3 * rng.standard_normal(grid.shape))
        want = _eigh_jacobian(u, spec)
        assert abs(jacobian(u, spec) - want).max() <= 1e-13 * abs(want).max()

    def test_inadmissible_iterate_named_by_node(self):
        spec, u_star = paraboloid_spec(m=9)
        # every interior eta-matrix is -2 I, so the first interior node is the worst
        message = r"iterate: sigma_1 = -6 at node \(1, 1, 1\), outside the order-2 cone"
        with pytest.raises(ConeError, match=message) as info:
            jacobian(ScalarField(spec.grid, -u_star.values), spec)
        assert (info.value.order, info.value.value, info.value.node) == (1, -6.0, (1, 1, 1))


class TestLaplaceRobin:
    def test_equals_k1_jacobian(self):
        spec, u_star = build_case("perturbed-paraboloid-2d", 9)
        assert abs(laplace_robin(spec.grid, spec.beta) - jacobian(u_star, spec)).max() < 1e-12

    def test_stores_no_zeros(self):
        spec, _ = paraboloid_spec(m=9)
        mat = laplace_robin(spec.grid, spec.beta)
        assert (mat.data != 0).all()
        core = spec.grid.flat_index()[spec.grid.interior()].ravel()
        assert np.diff(mat.indptr)[core].max() == 2 * 3 + 1

    @pytest.mark.parametrize("n,m", [(2, 33), (3, 9), (3, 17)])
    @pytest.mark.parametrize("stretch", [1.0, 10.0, 0.01])
    @pytest.mark.parametrize("beta", [1e-6, 1.0, 1e6])
    def test_preconditioner_lu_pivots_on_the_diagonal(self, n, m, stretch, beta):
        # the direct solve divides only by diagonal entries (the boundary rows) and
        # by eigenvalue sums of the interior Kronecker sum
        grid = BoxGrid((0.0,) * n, (1.0,) * (n - 1) + (stretch,), m)
        mat = laplace_robin(grid, beta)
        b = np.random.default_rng(m).standard_normal(grid.size)
        x = solver._GridOperators(grid, beta).solver(mat.diagonal())(b)
        norm = spla.norm(mat, np.inf)
        backward = np.abs(mat @ x - b).max() / (norm * np.abs(x).max() + np.abs(b).max())
        assert backward <= 1e-13
        # SuperLU's solution agrees within 1e-12, or within eps times a lower bound
        # of L's condition number where that is larger: both are backward stable,
        # but at beta = 1e-6 L is near the singular Neumann operator
        lu = spla.splu(mat.tocsc())
        want = lu.solve(b)
        kappa = norm * np.abs(lu.solve(np.ones(grid.size))).max()
        assert np.abs(x - want).max() <= max(1e-12, np.finfo(float).eps * kappa) * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_interior_schur_complement_is_a_kronecker_sum(self, n):
        # L_II - L_IF D_F^-1 L_FI, assembled from laplace_robin, against the sum of
        # 1-D operators that _laplace_robin_solve diagonalizes
        grid, beta = BoxGrid((0.0,) * n, (1.0, 2.5, 0.4)[:n], 9), 0.7
        mat = laplace_robin(grid, beta).tocsr()
        fc = grid.face_count().ravel()
        inner, faces = np.flatnonzero(fc == 0), np.flatnonzero(fc == 1)
        d_f = mat[faces][:, faces]
        assert d_f.nnz == faces.size  # D_F is diagonal
        schur = mat[inner][:, inner] - mat[inner][:, faces] @ sp.diags(1.0 / d_f.diagonal()) @ mat[faces][:, inner]
        p, h = grid.m - 2, grid.h
        want = 0.0
        for a in range(n):
            g = 3.0 + 2.0 * h[a] * beta
            t = np.diag(np.full(p, -2.0)) + np.eye(p, k=1) + np.eye(p, k=-1)
            t[0, 0] = t[-1, -1] = -2.0 + 4.0 / g
            t[0, 1] = t[-1, -2] = 1.0 - 1.0 / g
            factors = [np.eye(p)] * n
            factors[a] = (n - 1) * t / h[a] ** 2
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            want = want + term
        assert np.abs(schur.toarray() - want).max() <= 1e-12 * np.abs(want).max()


def mid_continuation_iterate(spec):
    """Solution of the halfway stage of continuation_solve(spec), as the next stage's start."""
    spec0, _ = manufactured_problem(paraboloid(spec.grid.center), spec.op, spec.beta, spec.grid)
    blend = 0.5 * (spec0.psi_tilde() + spec.psi_tilde())
    half = type(spec)(
        spec.grid,
        spec.op,
        spec.beta,
        ScalarField(spec.grid, blend**spec.op.degree),
        ScalarField(spec.grid, 0.5 * (spec0.phi.values + spec.phi.values)),
    )
    sol, rep = continuation_solve(half)
    assert rep.converged
    return sol


def _direction_case(case):
    """(Jacobian, right-hand side, grid operators) of a Newton step the GMRES tests solve."""
    if case == "quotient":
        grid = BoxGrid((0, 0, 0), (1, 1, 1), 9)
        spec, u_star = manufactured_problem(paraboloid(grid.center), OperatorSpec(3, 2, 1), 1.0, grid)
        rng = np.random.default_rng(7)
        u = ScalarField(grid, u_star.values + 1e-3 * rng.standard_normal(grid.shape))
    else:
        spec = psi_zero_spec(m=9)
        u = mid_continuation_iterate(spec)
    return jacobian(u, spec), -residual(u, spec).values.ravel(), solver._GridOperators(spec.grid, spec.beta)


def _other_threads_cpu_s():
    """CPU seconds used so far by the process's threads other than the calling one."""
    me, total = threading.get_native_id(), 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            try:
                with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except FileNotFoundError:  # the thread ended
                continue
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")


class TestNewtonDirection:
    CASES = ["psi-zero-mid-continuation", "quotient"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_direct_solve(self, case):
        mat, rhs, ops = _direction_case(case)
        want = spla.splu(mat.tocsc()).solve(rhs)
        got, iterations = solver._newton_direction(mat, rhs, ops)
        assert got is not None and iterations > 1
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("case", CASES)
    def test_same_iterations_and_solution_as_scipy_gmres(self, case):
        mat, rhs, ops = _direction_case(case)
        got, iterations = solver._newton_direction(mat, rhs, ops)
        counted = []
        pinv = spla.LinearOperator(mat.shape, matvec=ops.solver(mat.diagonal()), dtype=float)
        want, info = spla.gmres(
            mat,
            rhs,
            rtol=solver._GMRES_RTOL,
            atol=0.0,
            restart=solver._GMRES_RESTART,
            maxiter=solver._GMRES_MAXITER,
            M=pinv,
            callback=counted.append,
            callback_type="pr_norm",
        )
        assert info == 0 and iterations == len(counted)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_gmres_miss_ends_the_solve(self, monkeypatch):
        # from a quadratic the preconditioner solves the first step exactly, in one
        # iteration; the manufactured solution's Jacobian needs more
        spec, u0 = build_case("perturbed-paraboloid", 9)
        built = []
        real_build = solver._laplace_robin_solve

        def build(*args):
            built.append(args[0])
            return real_build(*args)

        monkeypatch.setattr(solver, "_laplace_robin_solve", build)
        # one restart of one iteration cannot reach the 1e-10 tolerance
        monkeypatch.setattr(solver, "_GMRES_RESTART", 1)
        monkeypatch.setattr(solver, "_GMRES_MAXITER", 1)
        with pytest.raises(NonconvergenceError, match="GMRES missed its tolerance 1e-10 in 1 iterations") as info:
            newton_solve(u0, spec)
        rep = info.value.report
        assert not rep.converged and rep.iterations == []
        assert rep.residual_norm == np.abs(residual(u0, spec).values).max() and rep.final_margin > 0
        assert built == [spec.grid]  # one preconditioner build for the grid

    def test_zero_preconditioner_misses_without_raising(self):
        mat, rhs, _ = _direction_case("quotient")
        zeros = SimpleNamespace(solver=lambda diag: lambda v: np.zeros_like(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, iterations = solver._newton_direction(mat, rhs, zeros)
        assert got is None and iterations == solver._GMRES_RESTART * solver._GMRES_MAXITER

    def test_overflowing_right_hand_side_is_a_miss(self):
        # |rhs| = inf makes the tolerance 1e-10 |rhs| infinite, which any x would meet
        spec, u0 = build_case("perturbed-paraboloid", 9)
        rhs = np.full(spec.grid.size, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, iterations = solver._newton_direction(jacobian(u0, spec), rhs, solver._GridOperators(spec.grid, spec.beta))
        assert got is None and iterations == 0

    @pytest.mark.skipif(not os.access("/proc/self/task", os.R_OK), reason="needs /proc/self/task")
    def test_m25_solve_keeps_other_threads_idle(self):
        # np.dot and np.linalg.norm on the 15 625-node vectors woke an OpenBLAS
        # worker that then spun; it added about 0.2-0.3 s of CPU to this solve
        spec, _ = build_case("perturbed-paraboloid", 25)
        _, u0 = manufactured_problem(paraboloid(spec.grid.center), spec.op, spec.beta, spec.grid)
        time.sleep(0.5)  # let a worker woken by the set-up go back to sleep
        before = _other_threads_cpu_s()
        _, rep = newton_solve(u0, spec)
        assert rep.converged
        assert _other_threads_cpu_s() - before < 0.02


def _outward_direction(op, m, amplitude):
    """A manufactured paraboloid start and the direction -2 u* + noise, which leaves the cone by alpha = 1."""
    grid = BoxGrid((0.0,) * op.n, (1.0,) * op.n, m)
    spec, u_star = manufactured_problem(paraboloid(grid.center), op, 1.0, grid)
    rng = np.random.default_rng(11)
    return spec, u_star.values, -2.0 * u_star.values + amplitude * rng.standard_normal(grid.shape)


def _psi_zero_17_newton_direction():
    """A mid-continuation psi-zero-17 iterate and its Newton direction towards the target data."""
    spec = load_problem(REPO / "problems" / "psi-zero-17.json")
    u = mid_continuation_iterate(spec)
    delta = spla.splu(jacobian(u, spec).tocsc()).solve(-residual(u, spec).values.ravel())
    return spec, u.values, delta.reshape(spec.grid.shape)


def _first_step_outside(values, delta, spec):
    """The first of alpha = 1, 2, 4, ... at which values + alpha * delta leaves the cone."""
    alpha = 1.0
    while alpha < 1e6:
        try:
            residual(ScalarField(spec.grid, values + alpha * delta), spec)
        except ConeError:
            return alpha
        alpha *= 2.0
    raise AssertionError("the direction never leaves the cone")


def _bisect_max_step(values, delta, spec, alpha_out):
    """Largest admissible step by bisection on residual's own cone check, to float resolution."""
    lo, hi = 0.0, alpha_out
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        try:
            residual(ScalarField(spec.grid, values + mid * delta), spec)
        except ConeError:
            hi = mid
        else:
            lo = mid
    return lo


class TestMaxAdmissibleStep:
    CASES = {
        "k1": lambda: _outward_direction(OperatorSpec(2, 1), 9, 1e-3),
        "k2": lambda: _outward_direction(OperatorSpec(3, 2), 9, 1e-3),
        "k2-psi-zero-17-mid-continuation": _psi_zero_17_newton_direction,
        # grids are 2-D or 3-D and k <= n - 1, so cone order 3 is the quotient's
        "quotient-cone-order-3": lambda: _outward_direction(OperatorSpec(3, 2, 1), 9, 1e-3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_bisection_on_the_eigenvalues(self, case):
        spec, values, delta = self.CASES[case]()
        alpha_out = _first_step_outside(values, delta, spec)
        want = _bisect_max_step(values, delta, spec, alpha_out)
        ops = solver._GridOperators(spec.grid, spec.beta)
        got = solver._max_admissible_step(
            values,
            delta,
            spec.op,
            ops,
            alpha_out,
            solver._eta_tensors(values, spec.op, ops)[0],
            solver._eta_tensors(values + alpha_out * delta, spec.op, ops)[0],
        )
        assert 0.0 < want < alpha_out
        assert abs(got - want) <= 1e-8 * want
        residual(ScalarField(spec.grid, values + solver._FRACTION_TO_BOUNDARY * got * delta), spec)


class _Proxy:
    """A module whose named attributes are replaced and whose others are delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestNewton:
    def test_converges_immediately_from_exact_start(self):
        spec, u_star = paraboloid_spec(m=9)
        sol, rep = newton_solve(u_star, spec)
        assert rep.converged and len(rep.iterations) <= 2
        assert rep.residual_norm < 1e-11

    def test_k1_single_iteration(self):
        spec, u_star = build_case("perturbed-paraboloid-2d", 9)
        grid = spec.grid
        u0 = ScalarField(grid, quadratic_field(grid, np.eye(2), np.zeros(2)).values)
        sol, rep = newton_solve(u0, spec)
        assert rep.converged and len(rep.iterations) == 1
        assert rep.iterations[0].step == 1.0
        # the preconditioner equals the k = 1 Jacobian up to its diagonal scaling
        assert rep.iterations[0].krylov_iterations == 1
        assert rep.to_dict()["iterations"][0]["krylov_iterations"] == 1

    def test_uniqueness_from_distinct_starts(self):
        spec, u_star = paraboloid_spec(m=9)
        grid = spec.grid
        pts = grid.points()
        tilt = (0.2 * pts[:, 0] - 0.1 * pts[:, 2]).reshape(grid.shape)
        sol_a, rep_a = newton_solve(u_star, spec)
        sol_b, rep_b = newton_solve(ScalarField(grid, u_star.values + tilt), spec)
        assert rep_a.converged and rep_b.converged
        assert np.abs(sol_a.values - sol_b.values).max() < 1e-6

    def test_inadmissible_start_rejected(self):
        spec, u_star = paraboloid_spec(m=9)
        with pytest.raises(ConeError):
            newton_solve(ScalarField(spec.grid, -u_star.values), spec)

    def test_start_on_another_grid_rejected(self):
        spec, _ = paraboloid_spec(m=9)
        _, other = paraboloid_spec(m=11)
        with pytest.raises(ValueError) as info:
            newton_solve(other, spec)
        assert str(info.value) == "initial guess lives on a different grid"

    def test_monotone_residual_and_positive_margins(self):
        spec, u_star = build_case("perturbed-paraboloid", 9)
        grid = spec.grid
        u0 = ScalarField(grid, quadratic_field(grid, np.eye(3), np.zeros(3)).values)
        sol, rep = newton_solve(u0, spec)
        assert rep.converged
        norms = [r.residual_norm for r in rep.iterations]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert all(r.min_margin > 0 for r in rep.iterations)

    def test_no_eigendecomposition_per_iterate(self, monkeypatch):
        spec, u_star = build_case("perturbed-paraboloid", 9)
        grid = spec.grid
        u0 = ScalarField(grid, quadratic_field(grid, np.eye(3), np.zeros(3)).values)
        staged = replace(psi_zero_spec(m=9), schedule=[0.5, 1.0])
        callers = {"eigh": [], "eigvalsh": [], "diagnostics": []}

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                callers[name].append(sys._getframe(1).f_code.co_name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        # every caller of numpy's eigensolvers is seen, not only the solver module's
        counted(np.linalg, "eigh")
        counted(np.linalg, "eigvalsh")
        sol, rep = newton_solve(u0, spec)
        assert rep.converged and rep.iterations and rep.diagnostics is not None
        assert callers == {"eigh": [], "eigvalsh": ["diagnostics"], "diagnostics": []}

        # a multi-stage continuation with clipped steps: the stages skip the diagnostics
        counted(solver, "diagnostics")
        callers["eigvalsh"].clear()
        sol, rep = continuation_solve(staged)
        assert rep.converged and len(rep.continuation) > 1
        assert any(r.max_step is not None for r in rep.iterations)
        # the paraboloid start data come from Newton tensors too, and no stage decomposes
        want = {"eigh": [], "eigvalsh": ["diagnostics"], "diagnostics": ["continuation_solve"]}
        assert callers == want
        assert rep.diagnostics == diagnostics(sol)

    def test_krylov_iterations_are_mesh_independent(self):
        # the preconditioner is spectrally equivalent to every Jacobian, so GMRES
        # needs about as many iterations on the finer grid
        krylov, errs = {}, {}
        for m in (17, 33):
            spec, u_exact = build_case("perturbed-paraboloid", m)
            sol, rep = newton_solve(u_exact, spec)
            assert rep.converged
            krylov[m] = [r.krylov_iterations for r in rep.iterations]
            errs[m] = np.abs(sol.values - u_exact.values).max()
        assert krylov[17] and max(krylov[33]) <= max(krylov[17]) + 3
        assert abs(math.log2(errs[17] / errs[33]) - 2.0) <= 0.3

    def test_lone_solve_reports_the_preconditioner_build(self):
        spec, _ = build_case("perturbed-paraboloid", 9)
        u0 = quadratic_field(spec.grid, np.eye(3), np.zeros(3))
        sol, rep = newton_solve(u0, spec)
        assert rep.converged and rep.iterations and rep.preconditioner_factor_s > 0

    def test_max_iter_reports_nonconvergence(self):
        spec, u_star = build_case("perturbed-paraboloid", 9)
        grid = spec.grid
        u0 = ScalarField(grid, quadratic_field(grid, np.eye(3), np.zeros(3)).values)
        sol, rep = newton_solve(u0, spec, NewtonOptions(max_iter=1))
        assert not rep.converged and len(rep.iterations) == 1


class TestContinuation:
    def test_identity_homotopy_single_stage(self):
        spec, u_star = paraboloid_spec(m=9)
        sol, rep = continuation_solve(spec)
        assert rep.converged
        assert [s.t for s in rep.continuation] == [1.0]
        assert len(rep.iterations) <= 2
        assert np.abs(sol.values - u_star.values).max() < 1e-11

    def test_recovers_paraboloid_from_full_path(self):
        spec, u_star = paraboloid_spec(m=9)
        # a schedule that stops short of 1 is completed by the stage t = 1
        for schedule in ([0.5, 1.0], [0.5]):
            sol, rep = continuation_solve(replace(spec, schedule=schedule))
            assert rep.converged and [s.t for s in rep.continuation] == [0.5, 1.0]
            assert np.abs(sol.values - u_star.values).max() < 1e-9

    @pytest.mark.parametrize(
        "case", ["psi=0.1", "psi=1000", "phi=10", "quotient-psi=8r^2", "psi-zero-beta=1e-3", "psi-zero-beta=100"]
    )
    def test_target_data_solve_in_one_stage(self, case):
        """Damped Newton from the paraboloid start solves these at t = 1, so no stage is inserted."""
        base, _ = paraboloid_spec(m=9)
        grid = base.grid
        r2 = ((grid.points() - grid.center) ** 2).sum(axis=1).reshape(grid.shape)
        spec = {
            "psi=0.1": lambda: replace(base, psi=ScalarField.constant(grid, 0.1)),
            "psi=1000": lambda: replace(base, psi=ScalarField.constant(grid, 1000.0)),
            "phi=10": lambda: replace(base, phi=ScalarField.constant(grid, 10.0)),
            "quotient-psi=8r^2": lambda: replace(
                manufactured_problem(paraboloid(grid.center), OperatorSpec(3, 2, 1), 1.0, grid)[0],
                psi=ScalarField(grid, 8.0 * r2),
            ),
            "psi-zero-beta=1e-3": lambda: replace(psi_zero_spec(m=9), beta=1e-3),
            "psi-zero-beta=100": lambda: replace(psi_zero_spec(m=9), beta=100.0),
        }[case]()
        sol, rep = continuation_solve(spec)
        assert rep.converged and [s.t for s in rep.continuation] == [1.0]
        assert rep.final_margin > 0 and all(r.min_margin > 0 for r in rep.iterations)

    def test_armijo_rejection_keeps_the_residual_falling(self):
        """Boundary data far from the paraboloid's: one full step stays admissible but fails the Armijo test."""
        spec, _ = paraboloid_spec(m=17)
        x = spec.grid.points()
        phi = ScalarField(spec.grid, (np.sin(3.0 * x[:, 0]) + np.cos(2.0 * x[:, 1])).reshape(spec.grid.shape))
        sol, rep = continuation_solve(replace(spec, phi=phi))
        assert rep.converged
        assert any(r.armijo_rejections >= 1 for r in rep.iterations)
        assert all(r.trials == 1 + r.cone_rejections + r.armijo_rejections for r in rep.iterations)
        norms = [r.residual_norm for r in rep.iterations]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_psi_with_zero_completes_with_positive_margins(self):
        spec0, u0 = paraboloid_spec(m=9)
        grid = spec0.grid
        pts = grid.points()
        psi = 12.0 * ((pts - 0.5) ** 2).sum(axis=1).reshape(grid.shape)
        spec = type(spec0)(grid, spec0.op, 1.0, ScalarField(grid, psi), spec0.phi)
        sol, rep = continuation_solve(spec)
        assert rep.converged
        assert rep.final_margin > 0
        assert min(r.min_margin for r in rep.iterations) > 0
        assert rep.continuation[-1].t == 1.0

    def test_psi_zero_17_steps_short_of_the_cone_boundary(self):
        spec = load_problem(REPO / "problems" / "psi-zero-17.json")
        sol, rep = continuation_solve(spec)
        assert rep.converged and rep.continuation[-1].t == 1.0
        assert rep.continuation[-1].iterations <= 8 and len(rep.iterations) <= 30
        assert all(r.min_margin > 0 for r in rep.iterations)
        assert all(r.trials == 1 + r.cone_rejections + r.armijo_rejections for r in rep.iterations)
        clipped = [r for r in rep.iterations if r.max_step is not None]
        assert clipped and all(r.cone_rejections >= 1 and r.step <= 0.99 * r.max_step for r in clipped)
        _, _, ref = read_field_binary(REPO / "bench" / "ref" / "psi-zero-17.bin")
        tol = 1e-10 * (1.0 + np.abs(spec.psi_tilde()).max())
        assert np.abs(sol.values - ref).max() <= tol

    def test_paraboloid_17_never_clips(self):
        spec = load_problem(REPO / "problems" / "paraboloid-17.json")
        _, rep = continuation_solve(spec)
        grid = spec.grid
        tilt = (0.3 * grid.points()[:, 0] - 0.2 * grid.points()[:, 1]).reshape(grid.shape)
        _, tilted = newton_solve(ScalarField(grid, quadratic_field(grid, np.eye(3), -grid.center).values + tilt), spec)
        assert rep.converged and tilted.converged and tilted.iterations
        for r in rep.iterations + tilted.iterations:
            assert r.max_step is None and r.cone_rejections == 0
            assert r.trials == 1 + r.armijo_rejections

    def test_stalling_raises_continuation_error(self):
        spec0, u0 = paraboloid_spec(m=9)
        grid = spec0.grid
        spec = type(spec0)(grid, spec0.op, 1.0, ScalarField.constant(grid, 40.0), spec0.phi)
        with pytest.raises(ContinuationError) as info:
            continuation_solve(spec, opts=NewtonOptions(max_iter=1))
        assert info.value.report.continuation  # path record present

    def test_quotient_operator_solve(self):
        grid = BoxGrid((0, 0, 0), (1, 1, 1), 9)
        spec, u_star = manufactured_problem(paraboloid(grid.center), OperatorSpec(3, 2, 1), 1.0, grid)
        np.testing.assert_allclose(spec.psi.values, 2.0)  # sigma_2/sigma_1 of 2I
        sol, rep = continuation_solve(spec)
        assert rep.converged
        assert np.abs(sol.values - u_star.values).max() < 1e-9


class TestDiagnostics:
    def test_quadratic_values(self):
        grid = BoxGrid((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), 9)
        u = quadratic_field(grid, np.eye(3), np.zeros(3))
        d = diagnostics(u)
        assert d.sup_gradient == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
        assert d.sup_hessian_eig == pytest.approx(1.0, rel=1e-11)
        assert d.sup_normal_second == pytest.approx(1.0, rel=1e-10)

    def test_constant_field(self):
        grid = BoxGrid((0, 0), (1, 1), 9)
        d = diagnostics(ScalarField.constant(grid, 4.0))
        assert abs(d.sup_gradient) < 1e-12
        assert abs(d.sup_hessian_eig) < 1e-12
        assert abs(d.sup_normal_second) < 1e-12

    def test_refinement_second_order(self):
        # the interior eigenvalue sup of a smooth field converges at O(h^2);
        # the gradient and boundary sups of this field sit exactly on corner
        # values at every h, so they are not informative here
        field = perturbed_paraboloid(2, 0.05)
        sups = []
        for m in (9, 17, 33):
            grid = BoxGrid((0, 0), (1, 1), m)
            u = ScalarField.from_points(grid, field.value)
            sups.append(diagnostics(u).sup_hessian_eig)
        d1, d2 = abs(sups[0] - sups[1]), abs(sups[1] - sups[2])
        assert d2 < d1
        assert 2.5 < d1 / d2 < 6.0

    def test_anisotropic_quadratic_closed_forms(self):
        # unequal spacings per axis, and diagonal entries of similar size, so
        # that a wrong spacing on any axis moves each of the three suprema
        grid = BoxGrid((0.0, 0.0, 0.0), (1.0, 2.0, 1.5), 9)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, (1.0, 0.9, 1.1))
        b = rng.standard_normal(3)
        d = diagnostics(quadratic_field(grid, a, b))
        grad = grid.points() @ a + b
        assert d.sup_gradient == pytest.approx(np.sqrt((grad**2).sum(axis=1)).max(), rel=1e-12)
        assert d.sup_hessian_eig == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-10)
        assert d.sup_normal_second == pytest.approx(np.abs(np.diag(a)).max(), rel=1e-10)

    def test_grid_operators_give_the_same_diagnostics(self):
        grid = BoxGrid((0.0, 0.0, 0.0), (1.0, 2.0, 1.5), 9)
        u = ScalarField.from_points(grid, perturbed_paraboloid(3, 0.05).value)
        assert diagnostics(u, ops=solver._GridOperators(grid, 1.0)) == diagnostics(u)
        with pytest.raises(ValueError, match="different grid"):
            diagnostics(u, ops=solver._GridOperators(BoxGrid((0.0,) * 3, (1.0,) * 3, 9), 1.0))

    def test_solves_report_the_diagnostics_of_their_solution(self):
        spec, u0 = paraboloid_spec()
        for solution, report in (newton_solve(u0, spec), continuation_solve(spec)):
            assert report.diagnostics == diagnostics(solution)


class TestSharedRobinOperator:
    @pytest.mark.parametrize("case", ["perturbed-paraboloid", "perturbed-paraboloid-2d"])
    def test_residual_and_jacobian_boundary_rows_agree(self, case):
        spec, u_star = build_case(case, 9)
        grid = spec.grid
        rng = np.random.default_rng(13)
        amplitude = 1e-2 * grid.h.max() ** 2
        u = ScalarField(grid, u_star.values + amplitude * rng.standard_normal(grid.shape))
        v = amplitude * rng.standard_normal(grid.shape)
        bmask = grid.boundary_mask()
        mat = jacobian(u, spec)
        jv = (mat @ v.ravel()).reshape(grid.shape)[bmask]
        dr = (residual(ScalarField(grid, u.values + v), spec).values - residual(u, spec).values)[bmask]
        assert np.abs(jv - dr).max() <= 1e-10 * np.abs(jv).max()
        bidx = grid.flat_index()[bmask]
        assert np.array_equal(mat[bidx].toarray(), laplace_robin(grid, spec.beta)[bidx].toarray())


class TestMmsConvergence:
    def test_2d_k1_observed_order(self):
        errs = {}
        for m in (17, 33, 65):
            spec, u_exact = build_case("perturbed-paraboloid-2d", m)
            sol, rep = newton_solve(u_exact, spec)
            assert rep.converged
            errs[m] = np.abs(sol.values - u_exact.values).max()
        o1 = math.log(errs[17] / errs[33]) / math.log(2.0)
        o2 = math.log(errs[33] / errs[65]) / math.log(2.0)
        assert abs(o1 - 2.0) <= 0.3
        assert abs(o2 - 2.0) <= 0.3
