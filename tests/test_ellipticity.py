import csv
import json
import math
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hessneumann import ellipticity
from hessneumann.ellipticity import (
    ConeSampler,
    _shift_bisect,
    _shift_into_cone,
    default_sweep_plan,
    deleted_term_share,
    ellipticity_ratio,
    maclaurin_bound,
    maclaurin_ratio,
    run_plan,
    run_sweep,
    sample_block,
    sample_eta,
    sweep_deleted_term_share,
    sweep_ellipticity_ratio,
    sweep_maclaurin_ratio,
    sweep_trace_bound,
    trace_check,
    trace_lower_bound,
)
from hessneumann.operator import OperatorSpec, eta_from_lambda, f_grad, lambda_from_eta
from hessneumann.symfun import ConeError, cone_margin, in_gamma


def textbook_sigmas(vals, kmax):
    """sigma_0..sigma_kmax by the coefficient recurrence, written out plainly."""
    out = np.zeros(vals.shape[:-1] + (kmax + 1,))
    out[..., 0] = 1.0
    for j in range(vals.shape[-1]):
        for q in range(min(j + 1, kmax), 0, -1):
            out[..., q] += vals[..., j] * out[..., q - 1]
    return out


def bisection_oracle(g, k, margin=1e-6, tol=1e-10):
    """Reference for _shift_into_cone: the same bisection, on the textbook recurrence with fresh arrays."""

    def pred(t):
        return np.all(textbook_sigmas(g + t[:, None], k)[..., 1:] > margin, axis=-1)

    done = pred(np.zeros(len(g)))
    hi = np.ones(len(g))
    while (~done).any():
        grow = ~done & ~pred(hi)
        if not grow.any():
            break
        hi[grow] *= 2.0
    lo = np.zeros(len(g))
    active = ~done
    while active.any():
        mid = 0.5 * (lo + hi)
        active = active & (mid != lo) & (mid != hi)
        ok = pred(mid)
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid, lo)
        active = active & ((hi - lo) > tol)
    return np.where(done, 0.0, hi)


def exact_threshold(g, k, margin=1e-6):
    """The largest root of sigma_k(g + t*ones) - margin for one spectrum g, in rational arithmetic to about 1e-30."""

    def excess(t):
        s = [Fraction(1)] + [Fraction(0)] * k
        for x in g:
            v = Fraction(float(x)) + t
            for q in range(k, 0, -1):
                s[q] += v * s[q - 1]
        return s[k] - Fraction(margin)

    # the bisection ends within 1e-10 above the root, which is simple for these draws
    near = Fraction(float(bisection_oracle(g[None, :], k)[0]))
    lo, hi = near - Fraction(1, 10**9), near + Fraction(1, 10**9)
    assert excess(lo) < 0 < excess(hi)
    for _ in range(70):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if excess(mid) > 0 else (mid, hi)
    return hi


def draws_with_threshold(n, k, targets, seed):
    """Rows g, one per target, whose exact threshold t* lies within 1e-15 of that target."""
    rng = np.random.default_rng(seed)
    rows = []
    for target in targets:
        g = rng.standard_normal(n) - 3.0
        rows.append(g + float(exact_threshold(g, k) - Fraction(target)))
    return np.array(rows)


@pytest.fixture
def fallback_rows(monkeypatch):
    """The number of rows _shift_into_cone hands to the bisection itself, per call since the fixture started."""
    calls = []
    real = ellipticity._shift_bisect
    monkeypatch.setattr(ellipticity, "_shift_bisect", lambda g, k: calls.append(len(g)) or real(g, k))
    return calls


class TestSampler:
    def test_every_sample_in_cone(self):
        for n, k in ((2, 1), (3, 2), (5, 3), (6, 6)):
            eta = sample_block(n, k, seed=4, scale=1.0, start=0, count=500)
            assert in_gamma(eta, k).all()

    def test_replay_is_bitwise_identical(self):
        a = ConeSampler(3, 2, seed=42).draw_batch(300)
        b = ConeSampler(3, 2, seed=42).draw_batch(300)
        assert np.array_equal(a, b)

    def test_single_draws_match_batch(self):
        s = ConeSampler(3, 2, seed=42)
        singles = np.stack([s.draw() for _ in range(20)])
        batch = ConeSampler(3, 2, seed=42).draw_batch(20)
        assert np.array_equal(singles, batch)
        assert s.position == 20

    def test_chunk_split_invariance(self):
        whole = sample_block(4, 2, seed=9, scale=1.0, start=0, count=400)
        parts = np.concatenate(
            [sample_block(4, 2, seed=9, scale=1.0, start=s, count=c) for s, c in ((0, 123), (123, 200), (323, 77))]
        )
        assert np.array_equal(whole, parts)

    def test_seed_changes_stream(self):
        a = ConeSampler(3, 2, seed=1).draw_batch(10)
        b = ConeSampler(3, 2, seed=2).draw_batch(10)
        assert not np.array_equal(a, b)

    def test_scale(self):
        eta = ConeSampler(3, 2, seed=5, scale=50.0).draw_batch(200)
        assert in_gamma(eta, 2).all()
        assert np.abs(eta).max() > 20.0

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, 1e300])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            ConeSampler(3, 2, seed=1, scale=scale)

    def test_sample_block_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            sample_block(3, 2, seed=1, scale=1e8, start=0, count=5)

    def test_shift_ends_where_float64_cannot_resolve_the_tolerance(self):
        # for a draw of size 1e8 the shift is about 1e8, where one ulp exceeds the bisection tolerance
        g = 1e8 * np.random.default_rng(3).standard_normal((4, 6))
        t = _shift_into_cone(g, 6)
        assert np.isfinite(t).all() and (t > 1e6).all()
        assert in_gamma(g + t[:, None], 6).all()

    def test_stream_equals_the_bisection_oracle(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                g = ellipticity._block_normals(8, n, 100, 300)
                want = g + bisection_oracle(g, k)[:, None]
                assert np.array_equal(sample_block(n, k, seed=8, scale=1.0, start=100, count=300), want)

    def test_rows_already_in_the_cone_are_not_shifted(self):
        g = np.abs(np.random.default_rng(2).standard_normal((200, 5))) + 0.1
        g[::2] -= 1.5  # every other row outside the order-4 cone
        t = _shift_into_cone(g, 4)
        assert np.array_equal(t, bisection_oracle(g, 4))
        assert (t[1::2] == 0).all() and (t[::2] > 0).all()
        assert np.array_equal(_shift_into_cone(np.abs(g) + 1.0, 4), np.zeros(200))

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 1), (5, 3), (6, 5), (6, 6)])
    def test_thresholds_at_the_doubling_bounds(self, n, k):
        # t* within 2e-12 of a power of two, where the bisection's doubling stops
        deltas = (-2e-12, -1e-12, -4e-13, 0.0, 4e-13, 1e-12, 2e-12)
        g = draws_with_threshold(n, k, [p + d for p in (1.0, 2.0, 4.0) for d in deltas], seed=n * 10 + k)
        t = _shift_into_cone(g, k)
        assert np.array_equal(t, bisection_oracle(g, k))
        assert {1.0, 2.0, 4.0} <= set(t.tolist())

    def test_thresholds_in_the_first_cell_take_the_fast_path(self, fallback_rows):
        # t* below one grid cell 2^-34: the check's lower end is t = 0, outside the cone
        g = draws_with_threshold(6, 4, [1e-13, 5e-13, 8e-13, 3e-12, 1e-9], seed=4)
        assert np.array_equal(_shift_into_cone(g, 4), bisection_oracle(g, 4))
        assert sum(fallback_rows) == 0

    def test_clustered_roots(self):
        # repeated entries: Newton's start lies far above a root of high multiplicity
        g = np.array(
            [np.full(6, -c) for c in (0.3, 1.0, 2.5, 7.0)]
            + [[-1, -1, -1, -2, -2, 0.5], [-1, -1, -1, -1, -1, -1.0000001], [-3, -3, 0, 0, 0, 0.0]]
        )
        for k in range(1, 7):
            assert np.array_equal(_shift_into_cone(g, k), bisection_oracle(g, k))

    def test_thresholds_at_the_end_of_the_exact_range(self, fallback_rows):
        # past t* = 2^19 the bisection's last halvings are no longer exact in float64
        g = np.random.default_rng(5).standard_normal((10, 6)) - 3.0
        targets = 2.0**19 * np.array([0.9, 0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01, 1.3, 1.6, 1.9])
        g *= (targets / bisection_oracle(g, 5))[:, None]  # t* scales with g up to the margin's 1e-6
        t = _shift_into_cone(g, 5)
        assert np.array_equal(t, bisection_oracle(g, 5))
        assert np.count_nonzero(t > 2.0**19) == 6
        assert sum(fallback_rows) == 10  # Newton's error spans many cells of 2^-34 at t* near 2^19

    @pytest.mark.parametrize("size", [1e5, 1e8])
    def test_large_draws(self, fallback_rows, size):
        # past a shift of 2^19 the bisection leaves float64's exact dyadic range, and the rows take it itself
        g = size * np.random.default_rng(3).standard_normal((60, 6))
        t = _shift_into_cone(g, 5)
        assert np.array_equal(t, bisection_oracle(g, 5))
        assert (sum(fallback_rows) == np.count_nonzero(t)) == (size > 2.0**19)

    @pytest.mark.parametrize("n, k", [(7, 3), (12, 12), (69, 35)])
    def test_large_n_takes_the_bisection(self, fallback_rows, n, k):
        # above n = 6 the threshold's reasoning is not checked; C(69, 35) also passes 2^64
        g = ellipticity._block_normals(3, n, 0, 20)
        assert np.array_equal(_shift_into_cone(g, k), bisection_oracle(g, k))
        assert fallback_rows == [20]

    @pytest.mark.parametrize("seed", [42, 1, 2024])
    def test_full_chunk_equals_the_bisection_oracle(self, seed):
        g = ellipticity._block_normals(seed, 6, 0, ellipticity._CHUNK)
        assert np.array_equal(_shift_into_cone(g, 5), bisection_oracle(g, 5))

    def test_sweep_streams_take_the_fast_path(self, fallback_rows):
        # every (n, cone order) stream of the default plan, two chunks each, at seed 42
        streams = {(n, k + ellipticity._FAMILIES[f][1]) for f, n, k, _ in default_sweep_plan(6)}
        assert len(streams) == 19
        for n, k in sorted(streams):
            for start in (0, ellipticity._CHUNK):
                g = ellipticity._block_normals(42, n, start, ellipticity._CHUNK)
                assert np.array_equal(_shift_into_cone(g, k), _shift_bisect(g, k))
        assert sum(fallback_rows) <= 40  # of 760000 rows; 24 at this seed

    def test_one_chunk_shift_stays_within_5_mb(self):
        g = ellipticity._block_normals(42, 6, 0, ellipticity._CHUNK)
        tracemalloc.start()
        try:
            _shift_into_cone(g, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5e6

    @pytest.mark.parametrize("scale", [0.5, 1e-2, 1e-6, 1e6])
    def test_shift_does_not_depend_on_the_scale(self, scale):
        for n, k in ((2, 1), (4, 3), (6, 4), (6, 6)):
            unit = sample_block(n, k, seed=6, scale=1.0, start=0, count=300)
            assert np.array_equal(sample_block(n, k, seed=6, scale=scale, start=0, count=300), scale * unit)

    def test_coverage_near_boundary_and_interior(self):
        eta = ConeSampler(3, 2, seed=7).draw_batch(10000)
        margins = cone_margin(eta, 2)
        assert (margins > 0).all()
        assert (margins < 0.01).sum() > 0
        assert (margins > 0.1).sum() > 0

    def test_module_level_draw(self):
        s = ConeSampler(3, 2, seed=42)
        eta = sample_eta(s)
        assert eta.shape == (3,) and in_gamma(eta, 2)


class TestDeletedTermShare:
    def test_uniform_is_one_over_n(self):
        for n, k in ((3, 2), (5, 4)):
            assert deleted_term_share(np.full(n, 2.5), k) == pytest.approx(1.0 / n, rel=1e-13)

    def test_direct_example(self):
        assert deleted_term_share([4.0, 1.0, 1.0], 2) == pytest.approx(5.0 / 12.0, rel=1e-13)

    def test_sorting_is_internal(self):
        assert deleted_term_share([1.0, 4.0, 1.0], 2) == deleted_term_share([4.0, 1.0, 1.0], 2)

    def test_positive_on_sweep(self):
        rep = sweep_deleted_term_share(4, 2, samples=5000, seed=11)
        assert rep.violations == 0
        assert rep.min_ratio > 0

    def test_cone_precondition(self):
        with pytest.raises(ConeError):
            deleted_term_share([-1.0, -1.0, -1.0], 2)


RECORDED_SUMMARIES = ["bench/ref/summary-n6-s40000-seed42.csv", "tests/data/summary-n4-s20000-seed7-scale1e-2.csv"]


def _recorded_rows(summary, label):
    """The rows of one sweep label in a recorded summary.csv, a path from the repository root."""
    with open(Path(__file__).resolve().parent.parent / summary, newline="") as f:
        return [r for r in csv.DictReader(f) if r["label"] == label]


class TestEllipticityRatio:
    def test_uniform(self):
        assert ellipticity_ratio([1.0, 1.0, 1.0], OperatorSpec(3, 2)) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_closed_form_example(self):
        assert ellipticity_ratio([1.0, 2.0, 3.0], OperatorSpec(3, 2)) == pytest.approx(0.3125, rel=1e-13)

    def test_scale_invariance(self):
        spec = OperatorSpec(4, 3)
        lam = lambda_from_eta(sample_block(4, 3, seed=13, scale=1.0, start=0, count=500))
        r1 = ellipticity_ratio(lam, spec)
        r10 = ellipticity_ratio(10.0 * lam, spec)
        assert np.abs(r1 - r10).max() <= 1e-12

    def test_sweeps_positive(self):
        rep = sweep_ellipticity_ratio(3, 2, samples=5000, seed=17)
        assert rep.violations == 0 and 0 < rep.min_ratio <= 1.0 / 3.0 + 1e-15
        repq = sweep_ellipticity_ratio(4, 3, 1, samples=5000, seed=17)
        assert repq.violations == 0 and repq.min_ratio > 0


    @pytest.mark.parametrize("summary", RECORDED_SUMMARIES)
    def test_recorded_pure_minima_hold_the_conjectured_bound(self, summary):
        """Conjecture, checked on the recorded sweeps and not proven: min_i f_i / sum_i f_i >= (n-k)/(n(n-1)).

        With share_j = sigma_{k-1}(eta|j) / ((n-k+1) sigma_{k-1}(eta)), the
        pure ratio is (1 - max_j share_j) / (n-1), so the bound is
        sigma_{k-1}(eta|j) <= (k(n-k+1)/n) sigma_{k-1}(eta) on Gamma_k, an
        inequality of Lin-Trudinger type.  At k = 1 the ratio is 1/n exactly.
        """
        rows = _recorded_rows(summary, "ellipticity-ratio")
        assert len(rows) == sum(n - 1 for n in range(2, max(int(r["n"]) for r in rows) + 1))  # every k < n
        for r in rows:
            n, k, got = int(r["n"]), int(r["k"]), float(r["min_ratio"])
            assert got >= (n - k) / (n * (n - 1)) - 1e-12
            assert k > 1 or got == 1.0 / n

    @pytest.mark.parametrize("summary", RECORDED_SUMMARIES)
    def test_recorded_deleted_shares_at_k_n_minus_1_hold_the_conjectured_bound(self, summary):
        """Conjecture, checked on the recorded sweeps and not proven: the deleted-term share at k = n-1 is >= 1/(n(n-1)).

        A Nelder-Mead search from each sweep's argmin reaches 1/(n(n-1))
        itself, so the bound would be sharp.  At n = 2 the share is 1/2 on
        the whole cone.
        """
        rows = [r for r in _recorded_rows(summary, "deleted-term-share") if int(r["k"]) == int(r["n"]) - 1]
        assert [int(r["n"]) for r in rows] == list(range(2, len(rows) + 2))  # every n of the sweep
        for r in rows:
            n, got = int(r["n"]), float(r["min_ratio"])
            assert got >= 1.0 / (n * (n - 1)) - 1e-12


class TestMaclaurinRatio:
    def test_bound_value(self):
        assert maclaurin_bound(3, 2, 1) == pytest.approx(0.25)

    def test_uniform_attains_bound(self):
        for c in (0.5, 2.0, 11.0):
            for p in range(3):
                got = maclaurin_ratio(np.full(3, c), 2, 1, p)
                assert abs(got - 0.25) < 1e-12

    def test_uniform_attains_bound_general(self):
        for n, k, l in ((4, 3, 1), (5, 3, 2), (6, 4, 2)):
            got = maclaurin_ratio(np.full(n, 1.7), k, l, 0)
            assert abs(got - maclaurin_bound(n, k, l)) < 1e-12

    def test_strict_below_bound_off_uniform(self):
        alpha = maclaurin_ratio([1.0, 2.0, 3.0], 2, 1)
        assert (alpha < 0.25).all() and (alpha > 0).all()

    def test_sweep(self):
        rep = sweep_maclaurin_ratio(4, 2, 1, samples=5000, seed=19)
        assert rep.violations == 0
        assert rep.extra["max_alpha"] <= maclaurin_bound(4, 2, 1) + 1e-12

    def test_needs_higher_cone(self):
        with pytest.raises(ConeError):
            maclaurin_ratio([3.0, 3.0, -1.0], 2, 1)

    @pytest.mark.parametrize("k,l", [(3, 1), (2, 2), (1, 0)])
    def test_bad_orders_rejected(self, k, l):
        with pytest.raises(ValueError) as info:
            maclaurin_ratio([1.0, 2.0, 3.0], k, l)
        assert str(info.value) == f"need 1 <= l < k <= n-1, got (k, l) = ({k}, {l})"

    @pytest.mark.parametrize("p", [3, -1])
    def test_bad_deleted_index_rejected(self, p):
        with pytest.raises(ValueError) as info:
            maclaurin_ratio([1.0, 2.0, 3.0], 2, 1, p)
        assert str(info.value) == f"index p={p} outside [0, 3)"


class TestTraceBound:
    def test_bound_value(self):
        assert trace_lower_bound(3, 2) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)

    def test_equality_at_uniform(self):
        from hessneumann.operator import f_grad

        total = f_grad(np.ones(3), OperatorSpec(3, 2)).sum()
        assert abs(total - trace_lower_bound(3, 2)) < 1e-12

    def test_check_and_quotient_rejection(self):
        assert trace_check([1.0, 1.0, 1.0], OperatorSpec(3, 2))
        with pytest.raises(ValueError):
            trace_check([1.0, 1.0, 1.0], OperatorSpec(3, 2, 1))

    def test_sweep(self):
        rep = sweep_trace_bound(5, 3, samples=5000, seed=23)
        assert rep.violations == 0
        assert rep.min_ratio > -1e-10


class TestSweepReports:
    def test_json_and_csv(self):
        rep = sweep_trace_bound(3, 2, samples=1000, seed=29)
        doc = json.loads(rep.to_json())
        assert doc["samples"] == 1000 and doc["label"] == "trace-bound"
        assert len(doc["argmin"]) == 3
        row = rep.csv_row()
        assert row.startswith("trace-bound,3,2,,1000,29,")

    def test_deterministic_modulo_wall_time(self, monkeypatch):
        a = sweep_ellipticity_ratio(3, 2, samples=4000, seed=31)
        monkeypatch.setattr(ellipticity, "_CHUNK", 1500)  # 4000 samples: chunks of 1500, 1500 and 1000
        monkeypatch.setattr(ellipticity, "_SUB_BLOCK", 300)
        b = sweep_ellipticity_ratio(3, 2, samples=4000, seed=31)
        assert a.csv_row() == b.csv_row()
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep_trace_bound(3, 2, samples=0, seed=1)

    @pytest.mark.parametrize("scale", [0.0, math.nan, math.inf, 1e300])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            sweep_trace_bound(3, 2, samples=10, seed=1, scale=scale)


def _json_without_wall_time(rep):
    doc = json.loads(rep.to_json())
    doc.pop("wall_time")
    return doc


class TestRunPlan:
    # every family, with pure and quotient sweeps sharing the (4, 3) stream
    PLAN = [entry for entry in default_sweep_plan(4) if entry[1] == 4 and entry[2] >= 2]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_reports_as_single_sweeps(self, monkeypatch, seed):
        assert {family for family, *_ in self.PLAN} == set(ellipticity._FAMILIES)
        unsplit = run_plan(self.PLAN, samples=1900, seed=seed)
        monkeypatch.setattr(ellipticity, "_CHUNK", 700)  # 1900 samples: chunks of 700, 700 and 500
        for sub_block in (7, 700):
            monkeypatch.setattr(ellipticity, "_SUB_BLOCK", sub_block)
            reports = run_plan(self.PLAN, samples=1900, seed=seed)
            assert len(reports) == len(self.PLAN)
            for (family, n, k, l), rep, whole in zip(self.PLAN, reports, unsplit):
                alone = run_sweep(family, n, k, l, samples=1900, seed=seed)
                assert (rep.label, rep.n, rep.k, rep.l) == (family, n, k, l)
                assert rep.csv_row() == alone.csv_row() == whole.csv_row()
                assert _json_without_wall_time(rep) == _json_without_wall_time(alone) == _json_without_wall_time(whole)
                assert rep.wall_time > 0

    def test_one_draw_per_stream_chunk(self, monkeypatch):
        monkeypatch.setattr(ellipticity, "_CHUNK", 700)
        calls = []
        real = ellipticity.sample_block

        def counting(n, c, seed, scale, start, count):
            calls.append((n, c, start, count))
            return real(n, c, seed, scale, start, count)

        monkeypatch.setattr(ellipticity, "sample_block", counting)
        run_plan(self.PLAN, samples=1900, seed=37)
        streams = {(4, 2), (4, 3), (4, 4)}
        chunks = [(0, 700), (700, 700), (1400, 500)]
        assert sorted(calls) == sorted((n, c, s, m) for n, c in streams for s, m in chunks)

    def test_each_generator_block_is_drawn_once(self, monkeypatch):
        # 40000 samples span blocks 0..9 of 4096; a chunk boundary inside a block drew it twice
        keys = []
        real = np.random.default_rng

        def counting(key):
            keys.append(key)
            return real(key)

        monkeypatch.setattr(np.random, "default_rng", counting)
        run_plan([("ellipticity-ratio", 3, 2, None)], samples=40000, seed=5)
        assert keys == [(5, block) for block in range(10)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cone_error_names_the_first_failing_sweep(self, monkeypatch, seed):
        outside_eta_cone(monkeypatch, n=4)
        message = (
            "maclaurin-ratio n=4 k=2 l=1: a sample left the cone: "
            r"maclaurin_ratio: sigma_3 = -1 at node \(0,\), outside the order-3 cone"
        )
        with pytest.raises(ConeError, match=message) as info:
            run_plan(default_sweep_plan(4), samples=100, seed=seed)
        assert (info.value.order, info.value.value, info.value.node) == (3, -1.0, (0,))

    @pytest.mark.parametrize("first,second", [("ellipticity-ratio", "trace-bound"), ("trace-bound", "ellipticity-ratio")])
    def test_cone_error_names_the_first_failing_sweep_in_plan_order(self, monkeypatch, first, second):
        # both sweeps read the (3, 2) stream: the first in the plan fails at block 3,
        # in the second chunk, after the other one has failed at block 0
        def failing_at(block, order):
            calls = iter(range(100))

            def evaluate(tables, n, k, l):
                if next(calls) == block:
                    raise ConeError(f"fails at block {block}", order=order, value=-1.0)
                eta = tables.spectra("eta")
                return np.ones(eta.shape[1]), eta, 0, {}

            return evaluate

        monkeypatch.setitem(ellipticity._FAMILIES, first, (failing_at(3, 2), 0, 1e-12, None))
        monkeypatch.setitem(ellipticity._FAMILIES, second, (failing_at(0, 1), 0, 1e-12, None))
        monkeypatch.setattr(ellipticity, "_CHUNK", 20)
        monkeypatch.setattr(ellipticity, "_SUB_BLOCK", 10)
        message = f"^{first} n=3 k=2 l=None: a sample left the cone: fails at block 3$"
        with pytest.raises(ConeError, match=message) as info:
            run_plan([(first, 3, 2, None), (second, 3, 2, None)], samples=50, seed=1)
        assert (info.value.order, info.value.value) == (2, -1.0)

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # 4000 samples make 900 more blocks than 400 for each of the two sweeps; a result
        # kept per block and sweep (about 400 bytes) would add over 700 kB to the peak
        monkeypatch.setattr(ellipticity, "_CHUNK", 400)
        monkeypatch.setattr(ellipticity, "_SUB_BLOCK", 4)
        plan = [("trace-bound", 3, 2, None), ("ellipticity-ratio", 3, 2, None)]

        def peak(samples):
            tracemalloc.start()
            try:
                run_plan(plan, samples=samples, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_plan(plan, samples=400, seed=1)  # warm-up: first-use allocations stay out of the peaks
        assert peak(4000) - peak(400) < 240e3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_slack_is_a_violation(self, monkeypatch, bad):
        def bad_at_sample_3(tables, n, k, l):
            eta = tables.spectra("eta")
            slack = np.arange(eta.shape[1], dtype=float)
            slack[3] = bad
            return slack, eta, 0, {}

        monkeypatch.setitem(ellipticity._FAMILIES, "trace-bound", (bad_at_sample_3, 0, 1e-10, None))
        rep = run_sweep("trace-bound", 3, 2, None, samples=10, seed=1)
        assert rep.violations == 1
        assert rep.min_ratio == -math.inf
        assert rep.argmin == sample_block(3, 2, 1, 1.0, 3, 1)[0].tolist()

    def test_extra_counts_add_up_and_maxima_keep_the_largest(self, monkeypatch):
        blocks = iter(range(100))

        def per_block(tables, n, k, l):
            eta = tables.spectra("eta")
            return np.ones(eta.shape[1]), eta, 0, {"positivity_violations": 1, "max_alpha": next(blocks)}

        monkeypatch.setitem(ellipticity._FAMILIES, "trace-bound", (per_block, 0, 1e-10, None))
        monkeypatch.setattr(ellipticity, "_SUB_BLOCK", 7)
        rep = run_sweep("trace-bound", 3, 2, None, samples=100, seed=1)  # blocks 0..14, the last of 2 rows
        assert rep.extra == {"positivity_violations": 15, "max_alpha": 14, "tolerance": 1e-10}

    def test_sweeps_start_no_thread(self, monkeypatch):
        threads_before = threading.active_count()
        seen = []
        real = ellipticity.sample_block

        def recording(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return real(*args)

        monkeypatch.setattr(ellipticity, "sample_block", recording)
        run_plan(default_sweep_plan(3), samples=500, seed=3)
        assert len(seen) == 4  # streams (2, 1), (3, 1), (3, 2) and (3, 3)
        assert set(seen) == {(threading.main_thread(), threads_before)}
        assert threading.active_count() == threads_before

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown sweep family"):
            run_plan([("nope", 3, 2, None)], samples=10, seed=1)

    def test_empty_plan_has_no_reports(self):
        assert run_plan([], samples=10, seed=1) == []

    @pytest.mark.parametrize("scale", [1e-2, 1e6])
    def test_far_scales_stay_in_the_cone(self, scale):
        # a margin of 1e-6 * scale**i on the unscaled draw sinks below round-off here: sigma_4 = -1.6e-21
        rep = run_sweep("ellipticity-ratio-quotient", 6, 3, 1, samples=100000, seed=42, scale=scale)
        assert rep.violations == 0 and rep.min_ratio > 0


def outside_eta_cone(monkeypatch, n):
    """Make sigma_3 of the first sample read -1 in every order-3 sigma table of the samples of size n."""
    real = ellipticity._Tables.sigmas

    def sigmas(self, name):
        e = real(self, name)
        if name == "eta" and (self.c, self.spectra("eta").shape[0]) == (3, n):
            e = e.copy()
            e[3, 0] = -1.0
        return e

    monkeypatch.setattr(ellipticity._Tables, "sigmas", sigmas)


def in_every_table_cone(eta, c):
    """Rows of eta whose samples, tilde = eta_from_lambda(lam) and tilde10 = eta_from_lambda(10 lam) lie in the order-c cone."""
    lam = lambda_from_eta(eta)
    return in_gamma(eta, c) & in_gamma(eta_from_lambda(lam), c) & in_gamma(eta_from_lambda(10.0 * lam), c)


class TestSharedTables:
    """Every family evaluated on one block's shared tables equals the public functions on that block."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_evaluators_equal_the_public_functions(self, n):
        plan = default_sweep_plan(n)
        for c, zeros in [(c, zeros) for c in range(1, n + 1) for zeros in (False, True)]:
            members = [(f, m, k, l) for f, m, k, l in plan if m == n and k + ellipticity._FAMILIES[f][1] == c]
            if not members:
                continue
            eta = sample_block(n, c, seed=5, scale=1.0, start=0, count=400)
            if zeros:
                # exact zeros in a fifth of the entries, keeping the rows that stay in every
                # cone; a spectrum with a zero entry lies outside the order-n cone
                eta[np.random.default_rng(c).random(eta.shape) < 0.2] = 0.0
                eta = eta[in_every_table_cone(eta, c)]
                assert len(eta) > 20 and ((eta == 0.0).any() or c == n), (n, c)
            tables = ellipticity._Tables(eta, c, 0)
            lam = lambda_from_eta(eta)
            for family, _, k, l in members:
                slack, spectra, _, _ = ellipticity._FAMILIES[family][0](tables, n, k, l)
                if family == "deleted-term-share":
                    want = deleted_term_share(eta, k)
                elif family.startswith("ellipticity-ratio"):
                    want = ellipticity_ratio(lam, OperatorSpec(n, k, l))
                elif family == "maclaurin-ratio":
                    alpha = maclaurin_ratio(eta, k, l)
                    want = np.minimum(alpha, maclaurin_bound(n, k, l) - alpha).min(axis=-1)
                else:
                    want = f_grad(lam, OperatorSpec(n, k)).sum(axis=-1) - trace_lower_bound(n, k)
                assert np.array_equal(slack, want), (family, n, k, l)
                assert np.array_equal(spectra.T, eta if family in ("deleted-term-share", "maclaurin-ratio") else lam)
