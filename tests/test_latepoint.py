"""Trimmed complier-mean contrast: point estimator, tails, variance, union."""

import numpy as np
import pytest

from partialid.datamodel import Sample, build_empirical
from partialid.density import Kernel, default_grid, estimate_density_diff
from partialid.errors import ConfigError, WeakIdentificationError
from partialid.latepoint import (TailSpec, TrimmedSet, check_iam_implication,
                                 conservative_union_ci, estimate_late,
                                 estimate_trimmed_sets, known_tail_estimate,
                                 late_variance, wald_estimate)
from partialid.sets import IntervalUnion

from conftest import make_sample


def discrete_sample():
    """Hand-checkable sample: equal arms, outcomes on a small grid.

    Z=1 arm: 4 treated at y=3, 1 control at y=0.
    Z=0 arm: 1 treated at y=3, 4 control at y=0.
    """
    rows = [(3, 1, 1)] * 4 + [(0, 0, 1)] * 1 + [(3, 1, 0)] * 1 + [(0, 0, 0)] * 4
    y, d, z = map(np.array, zip(*rows))
    return Sample(y=y.astype(float), d=d, z=z)


FULL = TrimmedSet(IntervalUnion.real_line(), 0.0)


class TestEstimateLate:
    def test_hand_oracle(self):
        s = discrete_sample()
        est = estimate_late(s, FULL, FULL)
        # complier mass each side: 4/5 - 1/5 = 0.6; treated complier mean 3,
        # control complier mean 0
        assert est.mass1 == pytest.approx(0.6)
        assert est.mass0 == pytest.approx(0.6)
        assert est.point == pytest.approx(3.0)

    def test_trimming_changes_masses(self):
        s = discrete_sample()
        only3 = TrimmedSet(IntervalUnion([(2.5, 3.5)]), 0.0)
        est = estimate_late(s, only3, FULL)
        assert est.mass1 == pytest.approx(0.6)

    def test_weak_identification_raises(self):
        s = discrete_sample()
        nothing = TrimmedSet(IntervalUnion([(100.0, 101.0)]), 0.0)
        with pytest.raises(WeakIdentificationError):
            estimate_late(s, nothing, FULL)


class TestTailSpec:
    def test_sixteen_specs(self):
        specs = TailSpec.all_specs()
        assert len(specs) == 16
        assert len(set(specs)) == 16

    def test_from_string_roundtrip(self):
        spec = TailSpec.from_string("u1,l0")
        assert spec.upper1 and spec.lower0
        assert not spec.lower1 and not spec.upper0
        assert TailSpec.from_string("none") == TailSpec(False, False, False, False)

    def test_tail_set_geometry(self):
        spec = TailSpec(upper1=True, lower1=False, upper0=False, lower0=True)
        band = (-1.0, 2.0)
        t1 = spec.tail_set(1, band)
        assert t1.intervals == ((2.0, np.inf),)
        t0 = spec.tail_set(0, band)
        assert t0.intervals == ((-np.inf, -1.0),)


def _density(sample, h=0.4, band=(-3.0, 8.0)):
    grid = default_grid(band, h)
    return estimate_density_diff(build_empirical(sample), sample, Kernel(),
                                 h, grid)


class TestTrimmedSets:
    def test_absolute_vs_relative(self):
        s = make_sample(800, seed=8)
        est = _density(s)
        tails = TailSpec(False, False, False, False)
        band = (-3.0, 8.0)
        abs1, abs0 = estimate_trimmed_sets(est, tails, 0.01, band)
        rel1, rel0 = estimate_trimmed_sets(est, tails, 0.5, band,
                                           threshold_scale="relative")
        assert abs1.b == pytest.approx(0.01)
        assert rel1.b == pytest.approx(0.5 * float(np.max(est.f1)))
        assert rel0.b == pytest.approx(0.5 * float(np.max(est.f0)))

    def test_rejects_nonpositive_level(self):
        s = make_sample(100, seed=8)
        est = _density(s)
        with pytest.raises(ConfigError):
            estimate_trimmed_sets(est, TailSpec(False, False, False, False),
                                  0.0, (-3.0, 8.0))

    def test_rejects_unknown_scale(self):
        s = make_sample(100, seed=8)
        est = _density(s)
        with pytest.raises(ConfigError, match="threshold_scale"):
            estimate_trimmed_sets(est, TailSpec(False, False, False, False),
                                  0.1, (-3.0, 8.0), threshold_scale="other")

    def test_higher_level_trims_more(self):
        s = make_sample(800, seed=9)
        est = _density(s)
        tails = TailSpec(False, False, False, False)
        lo1, _ = estimate_trimmed_sets(est, tails, 0.2, (-3.0, 8.0),
                                       threshold_scale="relative")
        hi1, _ = estimate_trimmed_sets(est, tails, 0.8, (-3.0, 8.0),
                                       threshold_scale="relative")
        ys = np.linspace(-3, 8, 301)
        assert np.all(lo1.contains(ys) | ~hi1.contains(ys))


class TestImplicationCheck:
    def test_passes_on_generated_data(self):
        s = make_sample(2000, seed=10)
        diag = check_iam_implication(_density(s), b_n=0.05)
        assert diag["passes"]
        assert diag["violation_mass_1"] >= 0.0

    def test_detects_violation(self):
        # flip the instrument so the signed differences go negative
        s = make_sample(2000, seed=10)
        flipped = Sample(y=s.y, d=s.d, z=1 - s.z)
        diag = check_iam_implication(_density(flipped), b_n=0.01)
        assert not diag["passes"]
        assert max(diag["violation_mass_1"], diag["violation_mass_0"]) > 0.05


class TestVariance:
    def test_methods_both_positive_and_differ(self):
        s = make_sample(1500, seed=11)
        sig_out, comp_out = late_variance(s, FULL, FULL, method="outcome")
        sig_grad, comp_grad = late_variance(s, FULL, FULL, method="gradient")
        assert sig_out > 0 and sig_grad > 0
        assert sig_out != pytest.approx(sig_grad, rel=1e-6)
        assert comp_out["Sigma"].shape == (6, 6)
        assert comp_out["Gamma"].shape == (6, 4)

    def test_unknown_method_rejected(self):
        s = make_sample(100, seed=11)
        with pytest.raises(ConfigError, match="method"):
            late_variance(s, FULL, FULL, method="fancy")

    def test_gradient_variance_tracks_monte_carlo(self):
        # fixed full sets: the estimator is a smooth functional, so the
        # plug-in sd of sqrt(n)*estimate should match the replication sd
        n, m = 2000, 120
        sigs, pts = [], []
        for k in range(m):
            s = make_sample(n, seed=1000 + k)
            pts.append(estimate_late(s, FULL, FULL).point)
            if k < 25:
                sigs.append(late_variance(s, FULL, FULL, method="gradient")[0])
        emp = np.std(pts) * np.sqrt(n)
        assert np.mean(sigs) == pytest.approx(emp, rel=0.25)


class TestIntervalEstimators:
    def test_known_tail_ci_centred(self):
        s = make_sample(1200, seed=12)
        est = _density(s)
        late = known_tail_estimate(s, est, TailSpec(False, False, False, False),
                                   b_n=0.3, band=(-3.0, 8.0),
                                   threshold_scale="relative")
        half = late.ci[1] - late.point
        assert late.ci[0] == pytest.approx(late.point - half)
        assert half == pytest.approx(1.959964 * late.sigma / np.sqrt(s.n),
                                     rel=1e-5)

    def test_union_hull_contains_members(self):
        s = make_sample(1200, seed=13)
        est = _density(s)
        res = conservative_union_ci(s, est, 0.3, (-3.0, 8.0),
                                    threshold_scale="relative")
        assert res["feasible"] + res["skipped"] == 16
        for member in res["members"]:
            assert res["ci"][0] <= member.ci[0] + 1e-12
            assert res["ci"][1] >= member.ci[1] - 1e-12

    def test_wald_oracle(self):
        s = discrete_sample()
        # dy = 3*0.8 - 3*0.2 = 1.8, dd = 0.8 - 0.2 = 0.6
        assert wald_estimate(s) == pytest.approx(3.0)

    def test_wald_no_first_stage(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        s = Sample(y=y, d=np.array([1, 0, 1, 0]), z=np.array([1, 1, 0, 0]))
        with pytest.raises(WeakIdentificationError):
            wald_estimate(s)

    def test_jsonable_fields(self):
        s = make_sample(900, seed=14)
        est = _density(s)
        late = known_tail_estimate(s, est, TailSpec(False, False, False, False),
                                   b_n=0.3, band=(-3.0, 8.0),
                                   threshold_scale="relative")
        out = late.to_jsonable()
        for key in ("estimate", "complier_mass_d1", "complier_mass_d0"):
            assert key in out
