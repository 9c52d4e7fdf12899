import math

import numpy as np
import pytest

from hessneumann.ellipticity import sample_block
from hessneumann.operator import (
    OperatorSpec,
    admissible,
    eta_from_lambda,
    eta_matrix,
    f_grad,
    f_grad_matrix,
    f_value,
    grad_at_eta,
    lambda_from_eta,
    newton_tensors,
)
from hessneumann.symfun import ConeError, sigma_all, sigma_grad


def admissible_lambdas(n, k, count, seed, quotient=False):
    """Random lam with eta strictly inside the required cone.

    Identity checks need well-conditioned points, so the raw cone stream
    (which deliberately grazes the boundary) is shifted one unit up the
    diagonal ray; that keeps membership and bounds every sigma_i below by
    the binomial coefficient.
    """
    eta = sample_block(n, k + 1 if quotient else k, seed=seed, scale=1.0, start=0, count=count)
    return lambda_from_eta(eta + 1.0)


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestTransforms:
    def test_swap_for_n2(self):
        np.testing.assert_array_equal(eta_from_lambda([3.0, 5.0]), [5.0, 3.0])

    def test_example(self):
        np.testing.assert_array_equal(eta_from_lambda([1, 2, 3]), [5.0, 4.0, 3.0])

    def test_inverse_formula(self):
        np.testing.assert_array_equal(lambda_from_eta([5, 4, 3]), [1.0, 2.0, 3.0])

    def test_uniform(self):
        n = 4
        lam = lambda_from_eta(np.full(n, 6.0))
        np.testing.assert_allclose(lam, 6.0 / (n - 1))

    def test_roundtrips(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 6):
            lam = rng.standard_normal((20, n))
            np.testing.assert_allclose(lambda_from_eta(eta_from_lambda(lam)), lam, atol=1e-13)
            np.testing.assert_allclose(eta_from_lambda(lambda_from_eta(lam)), lam, atol=1e-13)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_eta([1.0])


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestSpectrumMajorKernels:
    """The public functions convert to and from spectrum-major kernels; they equal the row formulas bit for bit."""

    @pytest.mark.parametrize("shape", [(), (9,), (3, 4)])
    def test_transforms_with_zeros(self, shape):
        rng = np.random.default_rng(3)
        for n in range(2, 8):
            vals = rng.standard_normal(shape + (n,)) * 10.0 ** rng.integers(-5, 5, shape + (n,))
            vals[rng.random(vals.shape) < 0.2] = 0.0
            vals[rng.random(vals.shape) < 0.1] = -0.0
            total = vals.sum(axis=-1, keepdims=True)
            assert bitwise_equal(eta_from_lambda(vals), total - vals), n
            assert bitwise_equal(lambda_from_eta(vals), total / (n - 1) - vals), n

    @pytest.mark.parametrize("shape", [(), (9,), (3, 4)])
    def test_gradients_with_zeros(self, shape):
        rng = np.random.default_rng(4)
        for n in range(2, 8):
            for k in range(1, n):
                for l in (None, *range(1, k)):
                    spec = OperatorSpec(n, k, l)
                    c = spec.cone_order
                    # nonnegative with at least c positive entries: inside the order-c cone
                    eta = rng.uniform(0.1, 2.0, shape + (n,)) * 10.0 ** rng.integers(-3, 3, shape + (n,))
                    eta[..., : n - c][rng.random(shape + (n - c,)) < 0.5] = 0.0
                    e, tk = sigma_all(eta, c), sigma_grad(eta, k)
                    if l is None:
                        want = ((1.0 / k) * e[..., k] ** (1.0 / k - 1.0))[..., None] * tk
                    else:
                        sk, sl = e[..., k, None], e[..., l, None]
                        w = (tk * sl - sk * sigma_grad(eta, l)) / sl**2
                        want = (1.0 / spec.degree) * (sk / sl) ** (1.0 / spec.degree - 1.0) * w
                    assert bitwise_equal(grad_at_eta(eta, spec), want), (n, k, l)
                    lam = lambda_from_eta(eta)
                    g = grad_at_eta(eta_from_lambda(lam), spec)
                    assert bitwise_equal(f_grad(lam, spec), g.sum(axis=-1, keepdims=True) - g), (n, k, l)


class TestEtaMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(eta_matrix(np.eye(3)), 2.0 * np.eye(3))

    def test_diagonal(self):
        np.testing.assert_array_equal(eta_matrix(np.diag([1.0, 2.0, 3.0])), np.diag([5.0, 4.0, 3.0]))

    def test_spectral_commutation(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n))
            r = 0.5 * (a + a.T)
            lhs = np.sort(np.linalg.eigvalsh(eta_matrix(r)))
            rhs = np.sort(eta_from_lambda(np.linalg.eigvalsh(r)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_asymmetry_rejected(self):
        bad = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(ValueError):
            eta_matrix(bad)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3,)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError) as info:
            eta_matrix(np.ones(shape))
        assert str(info.value) == "expected one or more square matrices of size >= 2"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            eta_matrix(np.array([[1.0, bad], [bad, 1.0]]))
        assert str(info.value) == "matrix entries must be finite"


def _eta_batch(n, c, case, rng, count=200):
    """Symmetric eta-matrices in the order-c cone with eigenvectors in general position."""
    if case == "random":
        w = sample_block(n, c, seed=int(rng.integers(1 << 30)), scale=1.0, start=0, count=count)
    elif case == "rank-one-near-boundary":  # 10 e_1 + 1e-8: sigma_2 .. sigma_n of order 1e-7 and below
        w = np.broadcast_to(np.r_[10.0, np.zeros(n - 1)] + 1e-8, (count, n))
    else:  # "cone-vertex": entries ~1e-11, as at the psi-zero-17 center node
        w = 1e-11 * (1.0 + 1e-3 * rng.standard_normal((count, n)))
    q = np.stack([random_orthogonal(n, rng) for _ in range(count)])
    return np.einsum("pij,pj,pkj->pik", q, w, q)


class TestNewtonTensors:
    @pytest.mark.parametrize("case", ["random", "rank-one-near-boundary", "cone-vertex"])
    @pytest.mark.parametrize("n,c", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_matches_the_eigendecomposition(self, n, c, case):
        eta = _eta_batch(n, c, case, np.random.default_rng(10 * n + c))
        e, tensors = newton_tensors(eta, c)
        lam, q = np.linalg.eigh(eta)
        scale = np.abs(lam).max(axis=-1)
        assert e.shape == (c + 1, len(eta)) and len(tensors) == c
        for i in range(c + 1):
            err = np.abs(e[i] - sigma_all(lam, c)[:, i])
            assert (err <= 1e-13 * math.comb(n, i) * scale**i).all()
        for i, t in enumerate(tensors):
            # T_i = d sigma_{i+1} / d eta = Q diag(sigma_i(lam | j)) Q^T
            want = np.einsum("pij,pj,pkj->pik", q, sigma_grad(lam, i + 1), q)
            err = np.abs(t - want).max(axis=(-2, -1))
            assert (err <= 1e-13 * scale**i).all()


class TestOperatorSpec:
    def test_k_range(self):
        with pytest.raises(ValueError):
            OperatorSpec(3, 3)
        with pytest.raises(ValueError):
            OperatorSpec(3, 0)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError) as info:
            OperatorSpec(1, 1)
        assert str(info.value) == "n must be at least 2"

    def test_l_zero_is_pure(self):
        spec = OperatorSpec(4, 2, 0)
        assert spec.l is None and spec.cone_order == 2 and spec.degree == 2

    def test_quotient_orders(self):
        spec = OperatorSpec(4, 3, 1)
        assert spec.cone_order == 4 and spec.degree == 2
        with pytest.raises(ValueError):
            OperatorSpec(4, 2, 2)


class TestValue:
    def test_uniform_example(self):
        assert f_value([1.0, 1.0, 1.0], OperatorSpec(3, 2)) == pytest.approx(math.sqrt(12.0), rel=1e-14)

    def test_k1_is_linear(self):
        rng = np.random.default_rng(2)
        for n in (2, 4):
            spec = OperatorSpec(n, 1)
            lam = np.abs(rng.standard_normal(n)) + 0.5
            assert f_value(lam, spec) == pytest.approx((n - 1) * lam.sum(), rel=1e-13)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for n, k in ((3, 2), (5, 3)):
            spec = OperatorSpec(n, k)
            lam = admissible_lambdas(n, k, 50, seed=9)
            base = f_value(lam, spec)
            for t in (0.5, 2.0, 10.0):
                np.testing.assert_allclose(f_value(t * lam, spec), t * base, rtol=1e-12)

    def test_cone_error_carries_margin(self):
        with pytest.raises(ConeError) as info:
            f_value([-1.0, -1.0, -1.0], OperatorSpec(3, 1))
        assert info.value.order == 1
        assert info.value.value == pytest.approx(-6.0)

    def test_quotient_value(self):
        # eta = (2, 2, 2): sigma_2/sigma_1 = 12/6 = 2
        spec = OperatorSpec(3, 2, 1)
        assert f_value([1.0, 1.0, 1.0], spec) == pytest.approx(2.0, rel=1e-14)

    def test_quotient_needs_higher_cone(self):
        # eta(lam) = (3, 3, -1) is in the order-2 cone but not order-3
        lam = lambda_from_eta(np.array([3.0, 3.0, -1.0]))
        assert f_value(lam, OperatorSpec(3, 2)) > 0
        with pytest.raises(ConeError):
            f_value(lam, OperatorSpec(3, 2, 1))


class TestGradient:
    def test_uniform_example(self):
        g = f_grad([1.0, 1.0, 1.0], OperatorSpec(3, 2))
        np.testing.assert_allclose(g, 2.0 / math.sqrt(3.0), rtol=1e-13)

    def test_euler_identity(self):
        for n, k, l in ((2, 1, None), (3, 2, None), (5, 3, None), (4, 3, 1), (6, 4, 2)):
            spec = OperatorSpec(n, k, l)
            lam = admissible_lambdas(n, k, 400, seed=21, quotient=l is not None)
            fg = f_grad(lam, spec)
            euler = (fg * lam).sum(axis=-1)
            np.testing.assert_allclose(euler, f_value(lam, spec), rtol=1e-11)

    def test_positivity_and_ordering(self):
        for n, k, l in ((4, 2, None), (5, 4, None), (5, 3, 1)):
            spec = OperatorSpec(n, k, l)
            lam = admissible_lambdas(n, k, 300, seed=33, quotient=l is not None)
            lam = -np.sort(-lam, axis=-1)  # descending
            fg = f_grad(lam, spec)
            assert (fg > 0).all()
            assert (np.diff(fg, axis=-1) >= -1e-12 * np.abs(fg[..., :1])).all()

    def test_matches_finite_differences(self):
        for n, k, l in ((2, 1, None), (3, 2, None), (6, 5, None), (3, 2, 1), (6, 4, 2)):
            spec = OperatorSpec(n, k, l)
            lam = admissible_lambdas(n, k, 30, seed=55, quotient=l is not None)
            fg = f_grad(lam, spec)
            for i in range(n):
                h = 1e-5 * (1.0 + np.abs(lam[:, i]))
                up, dn = lam.copy(), lam.copy()
                up[:, i] += h
                dn[:, i] -= h
                fd = (f_value(up, spec) - f_value(dn, spec)) / (2.0 * h)
                np.testing.assert_allclose(fg[:, i], fd, rtol=1e-6, atol=1e-10)


class TestGradientMatrix:
    def test_uniform_diagonal(self):
        out = f_grad_matrix(np.eye(3), OperatorSpec(3, 2))
        np.testing.assert_allclose(out, (2.0 / math.sqrt(3.0)) * np.eye(3), atol=1e-13)

    def test_diagonal_consistency(self):
        spec = OperatorSpec(3, 2)
        out = f_grad_matrix(np.diag([1.0, 2.0, 3.0]), spec)
        np.testing.assert_allclose(np.diag(np.diag(out)), out, atol=1e-13)
        np.testing.assert_allclose(np.diag(out), f_grad([1.0, 2.0, 3.0], spec), rtol=1e-12)

    def test_directional_derivative(self):
        rng = np.random.default_rng(8)
        for n, k, l in ((2, 1, None), (3, 2, None), (4, 3, None), (4, 3, 1)):
            spec = OperatorSpec(n, k, l)
            lam = admissible_lambdas(n, k, 20, seed=77, quotient=l is not None) + 0.5
            for row in lam:
                q = random_orthogonal(n, rng)
                r = q @ np.diag(row) @ q.T
                e = rng.standard_normal((n, n))
                e = 0.5 * (e + e.T)
                t = 1e-5
                fd = (f_value(np.linalg.eigvalsh(r + t * e), spec) - f_value(np.linalg.eigvalsh(r - t * e), spec)) / (
                    2.0 * t
                )
                got = float((f_grad_matrix(r, spec) * e).sum())
                assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(12)
        spec = OperatorSpec(4, 2)
        lam = admissible_lambdas(4, 2, 10, seed=91)
        for row in lam:
            r = np.diag(row)
            q = random_orthogonal(4, rng)
            lhs = f_grad_matrix(q @ r @ q.T, spec)
            rhs = q @ f_grad_matrix(r, spec) @ q.T
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


    def test_outside_the_cone_raises(self):
        with pytest.raises(ConeError) as info:
            f_grad_matrix(-np.eye(3), OperatorSpec(3, 1))  # eta = -2 I, so sigma_1(eta) = -6
        assert (info.value.order, info.value.value) == (1, -6.0)
        with pytest.raises(ConeError) as info:
            f_grad_matrix(np.diag([10.0, 0.0, 0.0]), OperatorSpec(3, 2, 1))  # sigma_3(eta) = 0
        assert (info.value.order, info.value.value) == (3, 0.0)


class TestAdmissible:
    def test_identity(self):
        for n in (2, 3, 4):
            ok, margin = admissible(np.eye(n), OperatorSpec(n, n - 1))
            assert ok and margin > 0

    def test_near_boundary_rank_one(self):
        ok, margin = admissible(np.diag([10.0, 0.0, 0.0]), OperatorSpec(3, 2))
        assert ok
        assert margin == pytest.approx(20.0, rel=1e-12)

    def test_negative_identity(self):
        ok, margin = admissible(-np.eye(3), OperatorSpec(3, 1))
        assert not ok
        assert margin == pytest.approx(-6.0, rel=1e-12)
