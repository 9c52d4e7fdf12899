import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessneumann.symfun import (
    ConeError,
    _columns,
    _deleted_sigmas,
    _largest_root,
    cone_margin,
    in_gamma,
    newton_maclaurin_gap,
    sigma,
    sigma_excl,
    sigma_excl2,
    sigma_all,
    sigma_grad,
)


def sigma_brute(values, k):
    """Independent oracle: enumerate all k-subsets and fsum their products."""
    if k == 0:
        return 1.0
    return math.fsum(math.prod(combo) for combo in itertools.combinations(values, k))


def sigma_brute_scale(values, k):
    if k == 0:
        return 1.0
    return math.fsum(abs(math.prod(c)) for c in itertools.combinations(values, k))


spectra = st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=7)


def textbook_sigmas(vals, kmax):
    """sigma_0..sigma_kmax by the coefficient recurrence, written out plainly."""
    out = np.zeros(vals.shape[:-1] + (kmax + 1,))
    out[..., 0] = 1.0
    for j in range(vals.shape[-1]):
        for q in range(min(j + 1, kmax), 0, -1):
            out[..., q] += vals[..., j] * out[..., q - 1]
    return out


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def spectra_with_zeros(shape, n, seed):
    """Normal draws over ten decades, with exact zeros and negative zeros mixed in."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(shape + (n,)) * 10.0 ** rng.integers(-5, 5, shape + (n,))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    vals[rng.random(vals.shape) < 0.1] = -0.0
    return vals


BATCH_SHAPES = [(), (9,), (3, 4)]


class TestSigma:
    def test_all_ones(self):
        assert sigma([1, 1, 1], 2) == 3.0

    def test_full_product(self):
        assert sigma([1, 2, 3], 3) == 6.0

    def test_mixed_signs_against_brute_force(self):
        vals = [2.0, -1.0, 3.0]
        expected = sigma_brute(vals, 2)
        assert expected == 1.0
        assert sigma(vals, 2) == pytest.approx(expected, rel=1e-13)

    def test_sigma_zero_is_one(self):
        assert sigma([4.0, -2.0], 0) == 1.0

    def test_binomial_counts_exact(self):
        for n in range(2, 13):
            ones = np.ones(n)
            for k in range(n + 1):
                assert sigma(ones, k) == math.comb(n, k)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for _ in range(50):
                vals = rng.standard_normal(n)
                for k in range(n + 1):
                    want = sigma_brute(vals, k)
                    scale = max(1.0, sigma_brute_scale(vals, k))
                    assert abs(sigma(vals, k) - want) <= 1e-12 * scale

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((40, 5))
        got = sigma(batch, 3)
        for row, val in zip(batch, got):
            assert val == sigma(row, 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sigma([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            sigma([1.0, 2.0], -1)
        with pytest.raises(ValueError):
            sigma([1.0], 1)
        with pytest.raises(ValueError):
            sigma([1.0, np.nan], 1)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_sigma_all_is_the_textbook_recurrence_bit_for_bit(self, shape):
        for n in range(2, 8):
            vals = spectra_with_zeros(shape, n, seed=n)
            for kmax in range(n + 1):
                assert bitwise_equal(sigma_all(vals, kmax), textbook_sigmas(vals, kmax)), (n, kmax)

    @given(spectra)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, vals):
        n = len(vals)
        ref = [sigma(vals, k) for k in range(n + 1)]
        perm = list(reversed(vals))
        for k in range(n + 1):
            scale = max(1.0, abs(ref[k]))
            assert abs(sigma(perm, k) - ref[k]) <= 1e-13 * scale


class TestDeleted:
    def test_single_survivor(self):
        assert sigma_excl([5, 7], 1, 0) == 7.0

    def test_example_and_identity(self):
        vals = [1.0, 2.0, 3.0]
        assert sigma_excl(vals, 2, 0) == 6.0
        # deletion identity: sigma_2 = sigma_2(|0) + lam_0 * sigma_1(|0)
        assert sigma(vals, 2) == sigma_excl(vals, 2, 0) + vals[0] * sigma_excl(vals, 1, 0)

    def test_two_index_variant(self):
        assert sigma_excl2([1, 2, 3], 2, 0, 1) == 0.0
        with pytest.raises(ValueError):
            sigma_excl2([1, 2, 3], 2, 1, 1)

    @pytest.mark.parametrize("i,j", [(0, 3), (-1, 1)])
    def test_two_index_variant_out_of_range(self, i, j):
        with pytest.raises(ValueError) as info:
            sigma_excl2([1, 2, 3], 2, i, j)
        assert str(info.value) == f"indices ({i}, {j}) outside [0, 3)"

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_excl([1, 2, 3], 2, 3)

    def test_oracle_enumeration(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(6)
        for i in range(6):
            rest = np.delete(vals, i)
            for k in range(6):
                want = sigma_brute(rest, k) if k <= 5 else 0.0
                scale = max(1.0, sigma_brute_scale(rest, min(k, 5)))
                assert abs(sigma_excl(vals, k, i) - want) <= 1e-12 * scale

    @given(spectra, st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_deletion_identity_random(self, vals, i):
        n = len(vals)
        i = i % n
        for k in range(1, n + 1):
            lhs = sigma(vals, k)
            rhs = sigma_excl(vals, k, i) + vals[i] * sigma_excl(vals, k - 1, i)
            scale = max(1.0, abs(lhs), abs(sigma_excl(vals, k, i)), abs(vals[i] * sigma_excl(vals, k - 1, i)))
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestGradient:
    def test_first_order_is_ones(self):
        np.testing.assert_array_equal(sigma_grad([1, 1, 1], 1), [1.0, 1.0, 1.0])

    def test_example(self):
        np.testing.assert_allclose(sigma_grad([1, 2, 3], 2), [5.0, 4.0, 3.0])

    @pytest.mark.parametrize("k", [0, 4])
    def test_order_out_of_range(self, k):
        with pytest.raises(ValueError) as info:
            sigma_grad([1, 2, 3], k)
        assert str(info.value) == f"order k={k} outside [1, 3]"

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 7):
            vals = rng.standard_normal(n) + 2.0
            for k in range(1, n + 1):
                grad = sigma_grad(vals, k)
                for i in range(n):
                    h = 1e-5 * (1.0 + abs(vals[i]))
                    up, dn = vals.copy(), vals.copy()
                    up[i] += h
                    dn[i] -= h
                    fd = (sigma(up, k) - sigma(dn, k)) / (2.0 * h)
                    assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_deleted_table_is_the_textbook_recurrence_per_deleted_entry(self, shape):
        for n in range(2, 8):
            vals = spectra_with_zeros(shape, n, seed=10 + n)
            d = _deleted_sigmas(_columns(vals), n - 1)
            assert d.shape == (n, n, math.prod(shape))
            for i in range(n):
                kept = vals.copy()
                kept[..., i] = 0.0
                want = textbook_sigmas(kept, n - 1).reshape(-1, n)
                assert bitwise_equal(d[:, i, :], want.T), (n, i)
            for j in range(n):
                assert bitwise_equal(d[j].T.reshape(shape + (n,)), sigma_grad(vals, j + 1)), (n, j)


class TestCone:
    def test_examples(self):
        assert in_gamma([1, 1, 1], 3) is True
        assert in_gamma([-1, -1, -1], 1) is False
        assert in_gamma([3, 1, -1], 2) is False

    def test_margin_signed(self):
        assert cone_margin([1, 1, 1], 2) == 3.0
        assert cone_margin([3, 1, -1], 2) == -1.0

    @pytest.mark.parametrize("fn", [in_gamma, cone_margin])
    @pytest.mark.parametrize("k", [0, 4])
    def test_cone_index_out_of_range(self, fn, k):
        with pytest.raises(ValueError) as info:
            fn([1, 2, 3], k)
        assert str(info.value) == f"cone index k={k} outside [1, 3]"

    def test_boundary_is_excluded(self):
        # sigma_2((1, 1, -0.5)) = 1 - 0.5 - 0.5 = 0 exactly
        assert in_gamma([1.0, 1.0, -0.5], 2) is False

    @given(spectra)
    @settings(max_examples=100, deadline=None)
    def test_cone_nesting(self, vals):
        n = len(vals)
        for k in range(n, 1, -1):
            if in_gamma(vals, k):
                assert in_gamma(vals, k - 1)


class TestNewtonMaclaurin:
    def test_zero_at_uniform(self):
        for c in (0.5, 1.0, 7.0):
            assert newton_maclaurin_gap([c, c, c], 2, 0, 1, 0) == pytest.approx(0.0, abs=1e-14)

    def test_direct_value(self):
        want = 2.0 - math.sqrt(11.0 / 3.0)
        assert newton_maclaurin_gap([1, 2, 3], 2, 0, 1, 0) == pytest.approx(want, rel=1e-13)

    def test_preconditions(self):
        with pytest.raises(ConeError):
            newton_maclaurin_gap([-1, -1, -1], 2, 0, 1, 0)
        with pytest.raises(ValueError):
            newton_maclaurin_gap([1, 2, 3], 2, 0, 3, 0)  # r > k
        with pytest.raises(ValueError):
            newton_maclaurin_gap([1, 2, 3], 2, 2, 1, 0)  # k == l

    def test_random_cone_sweep(self):
        from hessneumann.ellipticity import sample_block

        for n in (3, 5, 6):
            for k in range(1, n + 1):
                eta = sample_block(n, k, seed=101, scale=1.0, start=0, count=2000)
                quads = [(k, 0, 1, 0)]
                if k >= 2:
                    quads.append((k, 1, k - 1, 0))
                for kk, ll, rr, ss in quads:
                    gap = newton_maclaurin_gap(eta, kk, ll, rr, ss)
                    assert gap.min() >= -1e-12


def _sweep_error(monkeypatch):
    """sigma_3 of stream sample 2053, the sixth of the second 2048-row block, reads -1 in a sweep's table."""
    from hessneumann import ellipticity

    real = ellipticity._Tables.sigmas
    named = []

    def sigmas(self, name):
        e = real(self, name)
        if name == "eta" and self.origin == 2048:
            e = e.copy()
            e[3, 5] = -1.0
            named.append(self.spectra("eta")[:, 5].copy())
        return e

    monkeypatch.setattr(ellipticity._Tables, "sigmas", sigmas)
    with pytest.raises(ConeError) as info:
        ellipticity.run_plan([("maclaurin-ratio", 3, 2, 1)], samples=5000, seed=9)
    # the stream index names the sample that sample-cone writes on that row
    assert np.array_equal(ellipticity.sample_block(3, 3, 9, 1.0, 2053, 1)[0], named[0])
    return info.value, "maclaurin_ratio", 3, -1.0, (2053,)


def _matrix_error(monkeypatch):
    """f_grad_matrix on a (2, 3) batch: eta = -2 I at (1, 2) is worse than a sigma_2 < 0 at (0, 1)."""
    from hessneumann.operator import OperatorSpec, f_grad_matrix

    r = np.broadcast_to(np.eye(3), (2, 3, 3, 3)).copy()
    r[0, 1] = np.diag([1.0, 1.0, -1.9])  # eta = (-0.9, -0.9, 2): sigma_2 = -2.79
    r[1, 2] = -np.eye(3)  # eta = -2 I: sigma_1 = -6
    with pytest.raises(ConeError) as info:
        f_grad_matrix(r, OperatorSpec(3, 2))
    return info.value, "operator gradient", 1, -6.0, (1, 2)


def _manufactured_error(monkeypatch):
    """A closed-form field whose Hessian is -I at node (2, 3, 4) and diag(1, 1, -1.9) at (1, 1, 1)."""
    from hessneumann.grid import BoxGrid
    from hessneumann.operator import OperatorSpec
    from hessneumann.problem import ClosedFormField, manufactured_problem, paraboloid

    grid = BoxGrid((0.0,) * 3, (1.0,) * 3, 9)
    field = paraboloid(grid.center)

    def hessian(p):
        h = field.hessian(p)
        h[np.ravel_multi_index((1, 1, 1), grid.shape)] = np.diag([1.0, 1.0, -1.9])
        h[np.ravel_multi_index((2, 3, 4), grid.shape)] = -np.eye(3)
        return h

    with pytest.raises(ConeError) as info:
        manufactured_problem(ClosedFormField(field.value, field.gradient, hessian), OperatorSpec(3, 2), 1.0, grid)
    return info.value, "manufactured field", 1, -6.0, (2, 3, 4)


def _iterate_error(monkeypatch):
    """The paraboloid solution raised by 1 at the center node, whose Hessian is then 1 - 2 / h^2 = -127 times I."""
    from hessneumann.grid import BoxGrid, ScalarField
    from hessneumann.operator import OperatorSpec, admissible
    from hessneumann.problem import manufactured_problem, paraboloid
    from hessneumann.solver import hessian_at, residual

    grid = BoxGrid((0.0,) * 3, (1.0,) * 3, 9)
    spec, u_star = manufactured_problem(paraboloid(grid.center), OperatorSpec(3, 2), 1.0, grid)
    values = u_star.values.copy()
    values[4, 4, 4] += 1.0
    u = ScalarField(grid, values)
    nodes = list(np.ndindex((7, 7, 7)))
    margins = admissible(np.stack([hessian_at(u, np.add(node, 1)) for node in nodes]), spec.op)[1]
    worst = int(np.argmin(margins))
    with pytest.raises(ConeError) as info:
        residual(u, spec)
    return info.value, "iterate", 1, float(margins[worst]), tuple(int(i) + 1 for i in nodes[worst])


class TestOneConeCheck:
    @pytest.mark.parametrize(
        "source",
        [_sweep_error, _matrix_error, _manufactured_error, _iterate_error],
        ids=["sweep", "f_grad_matrix", "manufactured", "iterate"],
    )
    def test_error_names_the_least_margin_and_its_node(self, monkeypatch, source):
        exc, what, order, value, node = source(monkeypatch)
        assert (exc.order, exc.value, exc.node) == (order, value, node)
        cone = 3 if what == "maclaurin_ratio" else 2
        assert f"{what}: sigma_{order} = {value:.6g} at node {node}, outside the order-{cone} cone" in str(exc)


def _clustered_cubics(count, width, seed):
    """(coefficients (4, count) highest first, largest roots): cubics whose other two roots lie within width below it."""
    rng = np.random.default_rng(seed)
    top = 1.0 + rng.random(count)
    roots = np.column_stack([top[:, None] * (1.0 - width * rng.random((count, 2))), top])
    return 27.0 * np.array([np.poly(r) for r in roots]).T, top


class TestLargestRoot:
    def test_separated_roots_converge_to_rounding(self):
        coef, top = _clustered_cubics(200, 0.5, seed=1)
        t, converged = _largest_root(coef[1:], 27.0)
        assert converged.all()
        np.testing.assert_allclose(t, top, rtol=1e-11)  # the rounded coefficients' roots move that far

    def test_clustered_roots_return_the_last_iterate_unconverged(self):
        # within 2 % the polynomial's rounding keeps some of Newton's steps above its 1e-12 test
        coef, top = _clustered_cubics(200, 0.02, seed=0)
        t, converged = _largest_root(coef[1:], 27.0)
        assert np.isfinite(t).all() and not converged.all()
        np.testing.assert_allclose(t[~converged], top[~converged], rtol=1e-9)

    def test_a_double_top_root_is_bounded_only_up_to_rounding(self):
        # Newton bounds the root from above only up to rounding: near a root of
        # multiplicity r it stops within about eps^(1/r), on either side
        t, _ = _largest_root(np.poly([0.5, 1.0, 1.0])[1:, None], 1.0)
        assert abs(t[0] - 1.0) <= 1e-7

    def test_a_lead_per_column_gives_the_scalar_leads_floats(self):
        coef, _ = _clustered_cubics(50, 0.5, seed=2)
        t, converged = _largest_root(coef[1:], 27.0)
        t_cols, converged_cols = _largest_root(coef[1:], np.full(50, 27.0))
        assert np.array_equal(t, t_cols) and np.array_equal(converged, converged_cols)
