"""Monte Carlo designs, the quadrature truth, and the coverage driver."""

import math

import numpy as np
import pytest
from scipy import integrate

from partialid.datamodel import RunConfig
from partialid.errors import ConfigError
from partialid.latepoint import TailSpec
from partialid.simulate import (HalfDensity, SimDesign, draw_sample,
                                run_coverage, true_identified_late)


def coverage_cfg(n, b=0.2, h=0.4):
    return RunConfig(
        band=(-2.5, 7.0),
        h=h,
        b=b,
        kappa=math.log(n) / math.sqrt(n),
        tails=TailSpec.sec33(),
        threshold_scale="relative",
    )

# Value obtained by adaptive quadrature over the analytically located
# positive regions of the built-in design's density differences; frozen
# here so regressions are caught at full precision.
SEC33_TRUTH = 1.7438122814589743


class TestHalfDensity:
    def test_pdf_integrates_to_mass(self):
        hd = HalfDensity(0.3, (0.0, 2.0), (1.0, 0.5), (0.6, 0.4))
        val, _ = integrate.quad(lambda y: float(hd.pdf(y)), -np.inf, np.inf)
        assert val == pytest.approx(0.3, abs=1e-9)

    def test_draw_moments(self):
        hd = HalfDensity(1.0, (0.0, 4.0), (1.0, 1.0), (0.5, 0.5))
        draws = hd.draw(np.random.default_rng(0), 200_000)
        assert draws.mean() == pytest.approx(2.0, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HalfDensity(1.5, (0.0,), (1.0,), (1.0,))
        with pytest.raises(ConfigError):
            HalfDensity(0.5, (0.0,), (0.0,), (1.0,))
        with pytest.raises(ConfigError):
            HalfDensity(0.5, (0.0,), (1.0,), (0.7,))
        with pytest.raises(ConfigError):
            HalfDensity(0.5, (0.0, 1.0), (1.0,), (1.0,))


class TestDesign:
    def test_builtin_design_shape(self):
        design = SimDesign.sec33()
        assert design.pr_z1 == 0.6
        assert design.p[1].means == (3.0,)
        assert design.q[1].sds == (math.sqrt(3.0),)
        assert design.band == (-2.5, 7.0)

    def test_mass_check(self):
        good = SimDesign.sec33()
        bad_p = dict(good.p)
        bad_p[1] = HalfDensity(0.7, (3.0,), (1.0,), (1.0,))
        with pytest.raises(ConfigError, match="integrate"):
            SimDesign(pr_z1=0.6, p=bad_p, q=good.q, band=good.band,
                      tails=good.tails)

    def test_band_and_arm_validation(self):
        good = SimDesign.sec33()
        with pytest.raises(ConfigError):
            SimDesign(pr_z1=1.0, p=good.p, q=good.q, band=good.band,
                      tails=good.tails)
        with pytest.raises(ConfigError):
            SimDesign(pr_z1=0.6, p=good.p, q=good.q, band=(7.0, -2.5),
                      tails=good.tails)
        with pytest.raises(ConfigError):
            SimDesign(pr_z1=0.6, p={1: good.p[1]}, q=good.q, band=good.band,
                      tails=good.tails)


class TestTruth:
    def test_builtin_truth_frozen(self):
        assert true_identified_late(SimDesign.sec33()) == pytest.approx(
            SEC33_TRUTH, abs=1e-10)

    def test_swapped_design_negates_truth(self):
        assert true_identified_late(SimDesign.sec33().swapped()) \
            == pytest.approx(-SEC33_TRUTH, abs=1e-10)


class TestDrawSample:
    def test_deterministic_and_distinct_seeds(self):
        design = SimDesign.sec33()
        a = draw_sample(design, 500, seed=7)
        b = draw_sample(design, 500, seed=7)
        c = draw_sample(design, 500, seed=8)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.z, b.z)
        assert not np.array_equal(a.y, c.y)

    def test_cell_frequencies(self):
        design = SimDesign.sec33()
        s = draw_sample(design, 100_000, seed=1)
        assert s.z.mean() == pytest.approx(0.6, abs=0.01)
        # treatment is a fair coin in both arms
        assert s.d[s.z == 1].mean() == pytest.approx(0.5, abs=0.01)
        assert s.d[s.z == 0].mean() == pytest.approx(0.5, abs=0.01)
        # encouraged-arm outcomes are N(3, 1)
        y11 = s.y[(s.z == 1) & (s.d == 1)]
        assert y11.mean() == pytest.approx(3.0, abs=0.03)
        assert y11.std() == pytest.approx(1.0, abs=0.03)

    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigError):
            draw_sample(SimDesign.sec33(), 1, seed=0)


class TestRunCoverage:
    def small_cfg(self):
        return coverage_cfg(600)

    def test_validation(self):
        design = SimDesign.sec33()
        cfg = self.small_cfg()
        with pytest.raises(ConfigError):
            run_coverage(design, "bogus", 200, 10, cfg, seed=0)
        with pytest.raises(ConfigError):
            run_coverage(design, "known", 200, 1, cfg, seed=0)

    def test_deterministic_and_record_schema(self):
        design = SimDesign.sec33()
        cfg = self.small_cfg()
        r1 = run_coverage(design, "known", 600, 8, cfg, seed=3, threads=2)
        r2 = run_coverage(design, "known", 600, 8, cfg, seed=3, threads=1)
        assert r1.coverage == r2.coverage
        assert r1.truth == pytest.approx(SEC33_TRUTH, abs=1e-10)
        assert r1.m == 8 and r1.n == 600
        assert len(r1.records) == 8
        for rec, rec2 in zip(r1.records, r2.records):
            assert set(rec) == {"error", "estimate", "sigma", "ci", "covered"}
            assert rec == rec2
            if rec["error"] is None:
                lo, hi = rec["ci"]
                assert lo <= hi
                assert rec["covered"] == (lo <= SEC33_TRUTH <= hi)

    def test_errors_counted_not_dropped(self):
        design = SimDesign.sec33()
        # an absurd absolute threshold trims everything away -> weak id
        cfg = RunConfig(
            band=(-2.5, 7.0),
            h=0.4,
            b=50.0,
            kappa=0.1,
            tails=TailSpec.sec33(),
            threshold_scale="absolute",
        )
        res = run_coverage(design, "known", 300, 5, cfg, seed=0, threads=1)
        assert res.n_errors == 5
        assert res.coverage == 0.0
        assert all("WeakIdentificationError" in r["error"]
                   for r in res.records)

    def test_union_estimator_runs(self):
        design = SimDesign.sec33()
        cfg = self.small_cfg()
        res = run_coverage(design, "union", 600, 4, cfg, seed=5, threads=2)
        ok = [r for r in res.records if r["error"] is None]
        assert ok, "every replication errored"
        for rec in ok:
            assert rec["ci"][0] <= rec["ci"][1]

    def test_to_jsonable(self):
        design = SimDesign.sec33()
        cfg = self.small_cfg()
        res = run_coverage(design, "known", 400, 3, cfg, seed=1, threads=1)
        out = res.to_jsonable()
        assert set(out) == {"coverage", "truth", "replications", "n",
                            "errors", "estimator"}
        with_rec = res.to_jsonable(include_records=True)
        assert len(with_rec["records"]) == 3
