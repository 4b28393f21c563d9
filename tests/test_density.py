"""Kernel shapes, cell sums, and the signed density-difference estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from partialid.datamodel import Sample, build_empirical
from partialid.density import (Kernel, default_grid, cell_sum,
                               estimate_density_diff, sup_deviation)
from partialid.errors import ConfigError
from partialid.simulate import SimDesign, draw_sample

KERNELS = [Kernel(shape, A) for shape in ("epanechnikov", "triangular")
           for A in (0.5, 1.0, 2.0)]


def direct_cell_sum(sample, kernel, h, points, d, z):
    """Oracle for ``cell_sum``: the kernel evaluated at every (point,
    outcome) pair of the cell and summed."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    ys = sample.y[(sample.d == d) & (sample.z == z)]
    n_arm = int(np.count_nonzero(sample.z == z))
    vals = kernel((ys[None, :] - points[:, None]) / h)
    return vals.sum(axis=1) / (h * n_arm)


# outcomes within [-10, 10], continuous or rounded to 0.1 (ties), with
# bandwidths h >= 0.2: the direct sum's own rounding stays below 1e-13
outcomes = st.one_of(st.floats(-10.0, 10.0),
                     st.integers(-100, 100).map(lambda k: k / 10.0))
observations = st.lists(st.tuples(outcomes, st.integers(0, 1),
                                  st.integers(0, 1)),
                        min_size=2, max_size=60)


class TestKernel:
    @pytest.mark.parametrize("shape", ["epanechnikov", "triangular"])
    def test_integrates_to_one(self, shape):
        k = Kernel(shape=shape)
        val, _ = integrate.quad(k, -k.A, k.A)
        assert val == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("shape", ["epanechnikov", "triangular"])
    def test_compact_support(self, shape):
        k = Kernel(shape=shape)
        assert np.all(k(np.array([-k.A - 0.01, k.A + 0.01, 5.0])) == 0.0)

    def test_symmetric(self):
        k = Kernel()
        u = np.linspace(0, 1, 11)
        assert np.allclose(k(u), k(-u))

    def test_max_value_at_zero(self):
        for shape in ("epanechnikov", "triangular"):
            k = Kernel(shape=shape)
            assert k.max_value == pytest.approx(float(k(np.array([0.0]))[0]))

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigError):
            Kernel(shape="gaussian")


class TestCellSum:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        n = 200
        s = Sample(y=rng.normal(size=n),
                   d=rng.integers(0, 2, n), z=rng.integers(0, 2, n))
        k = Kernel()
        h = 0.3
        pts = np.linspace(-2, 2, 7)
        got = cell_sum(s, k, h, pts, d=1, z=1)
        n_arm = int(np.sum(s.z == 1))
        for j, p in enumerate(pts):
            acc = 0.0
            for yi, di, zi in zip(s.y, s.d, s.z):
                if di == 1 and zi == 1:
                    acc += float(k(np.array([(yi - p) / h]))[0])
            assert got[j] == pytest.approx(acc / (h * n_arm), rel=1e-12)

    def test_arm_normalisation(self):
        # doubling the opposite arm must not change this cell's estimate
        y = np.array([0.0, 0.1, -0.1, 5.0])
        s1 = Sample(y=y, d=np.array([1, 1, 1, 0]), z=np.array([1, 1, 1, 0]))
        y2 = np.concatenate([y, [5.0, 5.0]])
        s2 = Sample(y=y2, d=np.array([1, 1, 1, 0, 0, 0]),
                    z=np.array([1, 1, 1, 0, 0, 0]))
        k = Kernel()
        a = cell_sum(s1, k, 0.5, [0.0], d=1, z=1)
        b = cell_sum(s2, k, 0.5, [0.0], d=1, z=1)
        assert a[0] == pytest.approx(b[0])


class TestCellSumOracle:
    """The sorted sweep against the direct sum, to 1e-12 absolute."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=repr)
    @given(obs=observations, h=st.floats(0.2, 3.0),
           extra=st.lists(st.floats(-40.0, 40.0), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_sum(self, kernel, obs, h, extra):
        y, d, z = (np.array(col) for col in zip(*obs))
        z[:2] = (0, 1)  # both arms present
        s = Sample(y=y, d=d, z=z)
        w = kernel.A * h
        # the outcomes, the edges of their kernel windows, and points that
        # may lie outside the data range
        pts = np.concatenate([y, y - w, y + w, extra])
        for dz in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = cell_sum(s, kernel, h, pts, *dz)
            want = direct_cell_sum(s, kernel, h, pts, *dz)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS, ids=repr)
    def test_single_observation_cell(self, kernel):
        s = Sample(y=np.array([0.3, 1.0, 2.0]), d=np.array([1, 0, 0]),
                   z=np.array([1, 1, 0]))
        h = 0.4
        w = kernel.A * h
        pts = 0.3 + w * np.array([-1.5, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5])
        got = cell_sum(s, kernel, h, pts, 1, 1)
        want = direct_cell_sum(s, kernel, h, pts, 1, 1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got[3] == pytest.approx(kernel.max_value / (h * 2), abs=1e-15)

    @pytest.mark.parametrize("kernel", KERNELS, ids=repr)
    def test_empty_cell_is_zero(self, kernel):
        s = Sample(y=np.array([0.3, 1.0, 2.0]), d=np.array([1, 0, 0]),
                   z=np.array([1, 1, 0]))
        got = cell_sum(s, kernel, 0.4, [0.3, 2.0, 50.0], 1, 0)
        assert got.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kernel", KERNELS, ids=repr)
    @pytest.mark.parametrize("h", [0.05, 1.0])
    def test_design_sample_at_every_outcome(self, kernel, h):
        # a bandwidth far below the data spread: prefix sums about one
        # centre for the whole cell would cancel to ~1e-11 here
        s = draw_sample(SimDesign.sec33(), 3000, 4)
        pts = np.sort(s.y)
        for dz in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = cell_sum(s, kernel, h, pts, *dz)
            want = direct_cell_sum(s, kernel, h, pts, *dz)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_bandwidth(self):
        s = Sample(y=np.array([0.0, 1.0]), d=np.array([1, 0]),
                   z=np.array([1, 0]))
        with pytest.raises(ConfigError, match="bandwidth"):
            cell_sum(s, Kernel(), 0.0, [0.0], 1, 1)


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
        est = estimate_density_diff(build_empirical(s), s, Kernel(), 0.4, grid)
        # f1 = (treated share in z=1 arm) - (in z=0 arm): positive near 2
        assert est.value(2.0, 1) > 0.1
        assert est.value(-2.0, 0) > 0.1
        assert abs(est.value(-2.0, 1)) < 1e-9   # no d=1 mass near -2
        assert abs(est.value(2.0, 0)) < 1e-9

    def test_integrates_to_complier_shares(self):
        rng = np.random.default_rng(7)
        n = 4000
        z = rng.integers(0, 2, n)
        comply = rng.random(n) < 0.7
        d = np.where(comply, z, 1 - z)
        y = rng.normal(0, 1, n)
        s = Sample(y=y, d=d, z=z)
        grid = np.linspace(-6, 6, 801)
        est = estimate_density_diff(build_empirical(s), s, Kernel(), 0.3, grid)
        area1 = np.trapezoid(est.f1, grid)
        want = (np.mean(d[z == 1]) - np.mean(d[z == 0]))
        assert area1 == pytest.approx(want, abs=0.02)

    def test_default_grid_covers_band_plus_support(self):
        k = Kernel()
        h = 0.5
        grid = default_grid((-1.0, 2.0), h, k)
        assert grid[0] == pytest.approx(-1.0 - k.A * h)
        assert grid[-1] == pytest.approx(2.0 + k.A * h)
        assert grid.size == 512

    def test_sup_deviation_zero_against_self(self):
        rng = np.random.default_rng(1)
        n = 100
        s = Sample(y=rng.normal(size=n), d=rng.integers(0, 2, n),
                   z=rng.integers(0, 2, n))
        grid = np.linspace(-3, 3, 101)
        est = estimate_density_diff(build_empirical(s), s, Kernel(), 0.4, grid)
        assert sup_deviation(est, lambda y: np.interp(y, grid, est.f1), d=1) \
            == pytest.approx(0.0, abs=1e-12)
