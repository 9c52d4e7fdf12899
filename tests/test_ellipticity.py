import json
import math

import numpy as np
import pytest

from hessneumann import ellipticity
from hessneumann.ellipticity import (
    ConeSampler,
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
from hessneumann.operator import OperatorSpec, lambda_from_eta
from hessneumann.symfun import ConeError, cone_margin, in_gamma


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
        # at this scale the shift is about 1e7, where one ulp exceeds the bisection tolerance
        g = np.random.default_rng(3).standard_normal((4, 6))
        t = _shift_into_cone(g, 6, 1e8)
        assert np.isfinite(t).all() and (t > 1e6).all()
        assert in_gamma(g + t[:, None], 6).all()

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
        rep = sweep_deleted_term_share(4, 2, samples=5000, seed=11, workers=1)
        assert rep.violations == 0
        assert rep.min_ratio > 0

    def test_cone_precondition(self):
        with pytest.raises(ConeError):
            deleted_term_share([-1.0, -1.0, -1.0], 2)


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
        rep = sweep_ellipticity_ratio(3, 2, samples=5000, seed=17, workers=1)
        assert rep.violations == 0 and 0 < rep.min_ratio <= 1.0 / 3.0 + 1e-15
        repq = sweep_ellipticity_ratio(4, 3, 1, samples=5000, seed=17, workers=1)
        assert repq.violations == 0 and repq.min_ratio > 0


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
        rep = sweep_maclaurin_ratio(4, 2, 1, samples=5000, seed=19, workers=1)
        assert rep.violations == 0
        assert rep.extra["max_alpha"] <= maclaurin_bound(4, 2, 1) + 1e-12

    def test_needs_higher_cone(self):
        with pytest.raises(ConeError):
            maclaurin_ratio([3.0, 3.0, -1.0], 2, 1)


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
        rep = sweep_trace_bound(5, 3, samples=5000, seed=23, workers=1)
        assert rep.violations == 0
        assert rep.min_ratio > -1e-10


class TestSweepReports:
    def test_json_and_csv(self):
        rep = sweep_trace_bound(3, 2, samples=1000, seed=29, workers=1)
        doc = json.loads(rep.to_json())
        assert doc["samples"] == 1000 and doc["label"] == "trace-bound"
        assert len(doc["argmin"]) == 3
        row = rep.csv_row()
        assert row.startswith("trace-bound,3,2,,1000,29,")

    def test_deterministic_modulo_wall_time(self):
        a = sweep_ellipticity_ratio(3, 2, samples=4000, seed=31, workers=1)
        b = sweep_ellipticity_ratio(3, 2, samples=4000, seed=31, workers=2)
        assert a.csv_row() == b.csv_row()
        da, db = json.loads(a.to_json()), json.loads(b.to_json())
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep_trace_bound(3, 2, samples=0, seed=1, workers=1)

    @pytest.mark.parametrize("scale", [0.0, math.nan, math.inf, 1e300])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            sweep_trace_bound(3, 2, samples=10, seed=1, scale=scale, workers=1)


def _json_without_wall_time(rep):
    doc = json.loads(rep.to_json())
    doc.pop("wall_time")
    return doc


class TestRunPlan:
    # every family, with pure and quotient sweeps sharing the (4, 3) stream
    PLAN = [entry for entry in default_sweep_plan(4) if entry[1] == 4 and entry[2] >= 2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_reports_as_single_sweeps(self, monkeypatch, workers):
        assert {family for family, *_ in self.PLAN} == set(ellipticity._FAMILIES)
        monkeypatch.setattr(ellipticity, "_CHUNK", 700)  # 1900 samples: chunks of 700, 700 and 500
        reports = run_plan(self.PLAN, samples=1900, seed=37, workers=workers)
        assert len(reports) == len(self.PLAN)
        for (family, n, k, l), rep in zip(self.PLAN, reports):
            alone = run_sweep(family, n, k, l, samples=1900, seed=37, workers=workers)
            assert (rep.label, rep.n, rep.k, rep.l) == (family, n, k, l)
            assert rep.csv_row() == alone.csv_row()
            assert _json_without_wall_time(rep) == _json_without_wall_time(alone)
            assert rep.wall_time > 0

    def test_one_draw_per_stream_chunk(self, monkeypatch):
        monkeypatch.setattr(ellipticity, "_CHUNK", 700)
        calls = []
        real = ellipticity.sample_block

        def counting(n, c, seed, scale, start, count):
            calls.append((n, c, start, count))
            return real(n, c, seed, scale, start, count)

        monkeypatch.setattr(ellipticity, "sample_block", counting)
        run_plan(self.PLAN, samples=1900, seed=37, workers=2)
        streams = {(4, 2), (4, 3), (4, 4)}
        chunks = [(0, 700), (700, 700), (1400, 500)]
        assert sorted(calls) == sorted((n, c, s, m) for n, c in streams for s, m in chunks)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cone_error_names_the_first_failing_sweep(self, monkeypatch, workers):
        real = ellipticity.maclaurin_ratio

        def outside_at_n4(eta, k, l):
            if eta.shape[-1] == 4:
                raise ConeError("maclaurin_ratio: sigma_3 = -1 <= 0", order=3, value=-1.0)
            return real(eta, k, l)

        monkeypatch.setattr(ellipticity, "maclaurin_ratio", outside_at_n4)
        with pytest.raises(ConeError, match="maclaurin-ratio n=4 k=2 l=1: a sample left the cone") as info:
            run_plan(default_sweep_plan(4), samples=100, seed=1, workers=workers)
        assert info.value.order == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_slack_is_a_violation(self, monkeypatch, bad):
        def bad_at_sample_3(eta, n, k, l):
            slack = np.arange(len(eta), dtype=float)
            slack[3] = bad
            return slack, eta, 0, {}

        monkeypatch.setitem(ellipticity._FAMILIES, "trace-bound", (bad_at_sample_3, 0, 1e-10, None))
        rep = run_sweep("trace-bound", 3, 2, None, samples=10, seed=1, workers=1)
        assert rep.violations == 1
        assert rep.min_ratio == -math.inf
        assert rep.argmin == sample_block(3, 2, 1, 1.0, 3, 1)[0].tolist()

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown sweep family"):
            run_plan([("nope", 3, 2, None)], samples=10, seed=1)
