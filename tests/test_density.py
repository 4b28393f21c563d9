"""The kernel, cell sums, and the signed density-difference estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from partialid.datamodel import Sample
from partialid.density import default_grid, cell_sum, estimate_density_diff
from partialid.errors import ConfigError
from partialid.simulate import SimDesign, draw_sample


def epanechnikov(u):
    """The kernel 0.75 (1 - u^2) on its support [-1, 1]."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def direct_cell_sum(sample, h, points, d, z):
    """Oracle for ``cell_sum``: the kernel evaluated at every (point,
    outcome) pair of the cell and summed."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    ys = sample.y[(sample.d == d) & (sample.z == z)]
    n_arm = int(np.count_nonzero(sample.z == z))
    vals = epanechnikov((ys[None, :] - points[:, None]) / h)
    return vals.sum(axis=1) / (h * n_arm)


# outcomes within [-10, 10], continuous or rounded to 0.1 (ties), with
# bandwidths h >= 0.2: the direct sum's own rounding stays below 1e-13
outcomes = st.one_of(st.floats(-10.0, 10.0),
                     st.integers(-100, 100).map(lambda k: k / 10.0))
observations = st.lists(st.tuples(outcomes, st.integers(0, 1),
                                  st.integers(0, 1)),
                        min_size=2, max_size=60)


class TestKernel:
    def test_integrates_to_one(self):
        val, _ = integrate.quad(epanechnikov, -1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_compact_support(self):
        assert np.all(epanechnikov(np.array([-1.01, 1.01, 5.0])) == 0.0)

    def test_symmetric(self):
        u = np.linspace(0, 1, 11)
        assert np.allclose(epanechnikov(u), epanechnikov(-u))

    def test_max_value_at_zero(self):
        assert float(epanechnikov(0.0)) == 0.75
        assert np.all(epanechnikov(np.linspace(-1.0, 1.0, 41)) <= 0.75)


class TestCellSum:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        n = 200
        s = Sample(y=rng.normal(size=n),
                   d=rng.integers(0, 2, n), z=rng.integers(0, 2, n))
        h = 0.3
        pts = np.linspace(-2, 2, 7)
        got = cell_sum(s, h, pts, d=1, z=1)
        n_arm = int(np.sum(s.z == 1))
        for j, p in enumerate(pts):
            acc = 0.0
            for yi, di, zi in zip(s.y, s.d, s.z):
                if di == 1 and zi == 1:
                    acc += float(epanechnikov(np.array([(yi - p) / h]))[0])
            assert got[j] == pytest.approx(acc / (h * n_arm), rel=1e-12)

    def test_arm_normalisation(self):
        # doubling the opposite arm must not change this cell's estimate
        y = np.array([0.0, 0.1, -0.1, 5.0])
        s1 = Sample(y=y, d=np.array([1, 1, 1, 0]), z=np.array([1, 1, 1, 0]))
        y2 = np.concatenate([y, [5.0, 5.0]])
        s2 = Sample(y=y2, d=np.array([1, 1, 1, 0, 0, 0]),
                    z=np.array([1, 1, 1, 0, 0, 0]))
        a = cell_sum(s1, 0.5, [0.0], d=1, z=1)
        b = cell_sum(s2, 0.5, [0.0], d=1, z=1)
        assert a[0] == pytest.approx(b[0])


class TestCellSumOracle:
    """The sorted sweep against the direct sum, to 1e-12 absolute."""

    @given(obs=observations, h=st.floats(0.2, 3.0),
           extra=st.lists(st.floats(-40.0, 40.0), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_sum(self, obs, h, extra):
        y, d, z = (np.array(col) for col in zip(*obs))
        z[:2] = (0, 1)  # both arms present
        s = Sample(y=y, d=d, z=z)
        # the outcomes, the edges of their kernel windows, and points that
        # may lie outside the data range
        pts = np.concatenate([y, y - h, y + h, extra])
        for dz in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = cell_sum(s, h, pts, *dz)
            want = direct_cell_sum(s, h, pts, *dz)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_observation_cell(self):
        s = Sample(y=np.array([0.3, 1.0, 2.0]), d=np.array([1, 0, 0]),
                   z=np.array([1, 1, 0]))
        h = 0.4
        pts = 0.3 + h * np.array([-1.5, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5])
        got = cell_sum(s, h, pts, 1, 1)
        want = direct_cell_sum(s, h, pts, 1, 1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got[3] == pytest.approx(0.75 / (h * 2), abs=1e-15)

    def test_empty_cell_is_zero(self):
        s = Sample(y=np.array([0.3, 1.0, 2.0]), d=np.array([1, 0, 0]),
                   z=np.array([1, 1, 0]))
        got = cell_sum(s, 0.4, [0.3, 2.0, 50.0], 1, 0)
        assert got.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("h", [0.05, 1.0])
    def test_design_sample_at_every_outcome(self, h):
        # a bandwidth far below the data spread: prefix sums about one
        # centre for the whole cell would cancel to ~1e-11 here
        s = draw_sample(SimDesign.sec33(), 3000, 4)
        pts = np.sort(s.y)
        for dz in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = cell_sum(s, h, pts, *dz)
            want = direct_cell_sum(s, h, pts, *dz)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_bandwidth(self):
        s = Sample(y=np.array([0.0, 1.0]), d=np.array([1, 0]),
                   z=np.array([1, 0]))
        with pytest.raises(ConfigError, match="bandwidth"):
            cell_sum(s, 0.0, [0.0], 1, 1)


class TestDensityDiff:
    def test_signed_difference_orientation(self):
        # all treated when z=1, all control when z=0, outcomes separated
        n = 300
        rng = np.random.default_rng(0)
        z = np.repeat([1, 0], n // 2)
        d = z.copy()
        y = np.where(z == 1, rng.normal(2.0, 0.3, n), rng.normal(-2.0, 0.3, n))
        s = Sample(y=y, d=d, z=z)
        grid = np.linspace(-4, 4, 201)
        est = estimate_density_diff(None, s, None, 0.4, grid)
        # f1 = (treated share in z=1 arm) - (in z=0 arm): positive near 2
        assert np.interp(2.0, grid, est.f1) > 0.1
        assert np.interp(-2.0, grid, est.f0) > 0.1
        assert abs(np.interp(-2.0, grid, est.f1)) < 1e-9  # no d=1 mass near -2
        assert abs(np.interp(2.0, grid, est.f0)) < 1e-9

    def test_integrates_to_complier_shares(self):
        rng = np.random.default_rng(7)
        n = 4000
        z = rng.integers(0, 2, n)
        comply = rng.random(n) < 0.7
        d = np.where(comply, z, 1 - z)
        y = rng.normal(0, 1, n)
        s = Sample(y=y, d=d, z=z)
        grid = np.linspace(-6, 6, 801)
        est = estimate_density_diff(None, s, None, 0.3, grid)
        area1 = np.trapezoid(est.f1, grid)
        want = (np.mean(d[z == 1]) - np.mean(d[z == 0]))
        assert area1 == pytest.approx(want, abs=0.02)

    def test_default_grid_covers_band_plus_support(self):
        h = 0.5
        grid = default_grid((-1.0, 2.0), h)
        assert grid[0] == pytest.approx(-1.0 - h)
        assert grid[-1] == pytest.approx(2.0 + h)
        assert grid.size == 512

    @pytest.mark.parametrize("band,h", [((-1e308, 1e308), 0.5),
                                        ((0.0, 1.7e308), 1e307)])
    def test_default_grid_names_an_overflowing_span(self, band, h):
        with pytest.raises(ConfigError, match=r"^band \[.*\] padded by h = "):
            default_grid(band, h)
