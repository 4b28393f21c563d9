"""Sample containers, CSV loaders, tuning rules, and run configuration."""

import dataclasses
import math
import time

import numpy as np
import pytest

from partialid.datamodel import (Sample, build_empirical, load_sample_csv,
                                 load_intervals_csv, RunConfig,
                                 default_empirical_config,
                                 default_simulation_config,
                                 theorem_bandwidth, theorem_trimming,
                                 default_threshold)
from partialid.errors import ConfigError, DataError
from partialid.sets import IntervalUnion
from partialid.simulate import SimDesign, draw_sample

from conftest import make_sample, write_sample_csv


class TestSample:
    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(DataError, match="d must"):
            Sample(y=np.zeros(4), d=np.array([0, 1, 2, 0]),
                   z=np.array([0, 1, 0, 1]))

    def test_rejects_nan_outcome(self):
        with pytest.raises(DataError, match="non-finite"):
            Sample(y=np.array([0.0, np.nan]), d=np.array([0, 1]),
                   z=np.array([0, 1]))

    def test_rejects_single_arm(self):
        with pytest.raises(DataError, match="arms"):
            Sample(y=np.zeros(3), d=np.array([0, 1, 0]),
                   z=np.array([1, 1, 1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            Sample(y=np.zeros(3), d=np.zeros(2), z=np.array([0, 1, 0]))

    def test_pr_z1(self):
        s = Sample(y=np.zeros(4), d=np.zeros(4), z=np.array([1, 1, 0, 0]))
        assert s.pr_z1() == 0.5


class TestEmpirical:
    def test_cell_masses_sum_to_one_per_arm(self):
        s = make_sample(300, seed=2)
        emp = build_empirical(s)
        full = IntervalUnion.real_line()
        for z in (0, 1):
            total = emp.mass(full, 0, z) + emp.mass(full, 1, z)
            assert total == pytest.approx(1.0)

    def test_cdf_step(self):
        s = Sample(y=np.array([1.0, 2.0, 3.0, 9.0]),
                   d=np.array([1, 1, 1, 0]), z=np.array([1, 1, 1, 0]))
        emp = build_empirical(s)
        assert emp.cdf(2.0, d=1, z=1) == pytest.approx(2.0 / 3.0)
        assert emp.cdf(1.99, d=1, z=1) == pytest.approx(1.0 / 3.0)


class TestCsvLoaders:
    def test_roundtrip(self, tmp_path):
        s = make_sample(50, seed=4)
        path = write_sample_csv(tmp_path / "s.csv", s)
        back = load_sample_csv(path)
        assert back.n == 50
        assert np.allclose(back.y, s.y)

    def test_header_only_is_empty_data(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("y,d,z\n")
        with pytest.raises(DataError, match="no data rows"):
            load_sample_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "noheader.csv"
        p.write_text("1.0,0,1\n")
        with pytest.raises(DataError, match="header"):
            load_sample_csv(p)

    def test_bad_treatment_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,d,z\n1.0,0,1\n2.0,2,0\n")
        with pytest.raises(DataError, match="row 3"):
            load_sample_csv(p)

    def test_non_numeric_outcome_names_row(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("y,d,z\nxyz,0,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_sample_csv(p)

    def test_intervals_roundtrip(self, tmp_path):
        p = tmp_path / "iv.csv"
        p.write_text("y_l,y_u\n0.0,1.0\n-2.0,0.5\n")
        lo, hi = load_intervals_csv(p)
        assert lo.tolist() == [0.0, -2.0]
        assert hi.tolist() == [1.0, 0.5]

    def test_intervals_reject_inverted(self, tmp_path):
        p = tmp_path / "iv.csv"
        p.write_text("y_l,y_u\n1.0,0.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_intervals_csv(p)


class TestRules:
    def test_rates(self):
        assert theorem_bandwidth(100000) == pytest.approx(100000 ** -0.2)
        assert theorem_trimming(1000) == pytest.approx(
            1000 ** -0.25 / math.log(1000))
        assert default_threshold(1000) == pytest.approx(
            math.log(1000) / math.sqrt(1000))

    def test_rules_shrink(self):
        for rule in (theorem_bandwidth, theorem_trimming, default_threshold):
            assert rule(10 ** 6) < rule(100)


class TestRunConfig:
    VALUES = dict(h=0.4, b=0.2, kappa=0.1)

    def test_rejects_bad_band(self):
        with pytest.raises(ConfigError):
            RunConfig(band=(2.0, 1.0), **self.VALUES)

    def test_rejects_bad_threshold_scale(self):
        with pytest.raises(ConfigError, match="threshold_scale"):
            RunConfig(band=(0.0, 1.0), threshold_scale="weird",
                      **self.VALUES)

    @pytest.mark.parametrize("name", ["h", "b", "kappa"])
    @pytest.mark.parametrize("value", [0.0, -0.1, math.inf, -math.inf,
                                       math.nan])
    def test_rejects_nonpositive_or_nonfinite_tuning(self, name, value):
        values = dict(self.VALUES, **{name: value})
        with pytest.raises(ConfigError,
                           match=f"^{name} must be positive and finite"):
            RunConfig(band=(0.0, 1.0), **values)

    def test_replace_revalidates_tuning(self):
        cfg = RunConfig(band=(0.0, 1.0), **self.VALUES)
        assert dataclasses.replace(cfg, h=0.3).h == 0.3
        with pytest.raises(ConfigError, match="^b must be"):
            dataclasses.replace(cfg, b=0.0)

    def test_simulation_default_uses_relative_scale(self):
        cfg = default_simulation_config(1000, (-2.5, 7.0))
        assert cfg.threshold_scale == "relative"
        assert cfg.h == theorem_bandwidth(1000)
        assert cfg.b == theorem_trimming(1000)
        assert cfg.kappa == default_threshold(1000)

    def test_jsonable_carries_tuning(self):
        cfg = default_simulation_config(1000, (-2.5, 7.0))
        out = cfg.to_jsonable()
        for key in ("band", "alpha", "h", "b", "kappa", "threshold_scale"):
            assert key in out


class TestEmpiricalConfig:
    def test_small_sample_rejected(self):
        s = make_sample(19, seed=0)
        with pytest.raises(ConfigError, match="n >= 20"):
            default_empirical_config(s)

    def test_band_is_quantile_range(self):
        s = make_sample(500, seed=5)
        cfg = default_empirical_config(s)
        assert cfg.band[0] == pytest.approx(np.quantile(s.y, 0.01))
        assert cfg.band[1] == pytest.approx(np.quantile(s.y, 0.99))
        assert cfg.h > 0 and cfg.b > 0
        assert cfg.tails is not None

    def test_deterministic(self):
        s = make_sample(200, seed=6)
        a = default_empirical_config(s)
        b = default_empirical_config(s)
        assert a.h == b.h and a.b == b.b and a.band == b.band

    def test_tuning_step_is_not_quadratic(self):
        # the density level sums the four cells' kernels at all n outcomes:
        # the sorted sweep takes ~0.3 s here, a direct sum over every
        # (outcome, outcome) pair several minutes
        s = draw_sample(SimDesign.sec33(), 200_000, 12)
        start = time.perf_counter()
        cfg = default_empirical_config(s)
        assert time.perf_counter() - start < 10.0
        assert cfg.h > 0 and cfg.b > 0
