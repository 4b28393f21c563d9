"""The kernel, the weighted kernel sum, and the signed density-difference
estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from partialid.datamodel import (Sample, default_empirical_config,
                                 theorem_trimming)
from partialid.density import default_grid, estimate_density_diff, kernel_sum
from partialid.errors import ConfigError
from partialid.simulate import SimDesign, draw_sample


def epanechnikov(u):
    """The kernel 0.75 (1 - u^2) on its support [-1, 1]."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def direct_kernel_sum(y, w, h, points):
    """Oracle for ``kernel_sum``: the weighted kernel evaluated at every
    (point, outcome) pair and summed."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    y = np.asarray(y, dtype=float)
    vals = np.broadcast_to(w, y.shape) * epanechnikov(
        (y[None, :] - points[:, None]) / h)
    return vals.sum(axis=1) / h


def cell(sample, d, z):
    """The (D=d, Z=z) cell's outcomes and their weight 1/#{Z=z}: their
    kernel sum estimates the sub-density of (Y, D=d) given Z=z."""
    return (sample.y[(sample.d == d) & (sample.z == z)],
            1.0 / np.count_nonzero(sample.z == z))


def signed(sample, d):
    """Side d's outcomes and signed weights: +1/#{Z=d} in its own arm and
    -1/#{Z=1-d} in the other, so their kernel sum is f_d."""
    side = sample.d == d
    n_arm = np.bincount(sample.z, minlength=2)
    w = np.where(sample.z == d, 1.0, -1.0) / n_arm[sample.z]
    return sample.y[side], w[side]


# outcomes within [-10, 10], continuous or rounded to 0.1 (ties), with
# bandwidths h >= 0.2: the direct sum's own rounding stays below 1e-13
outcomes = st.one_of(st.floats(-10.0, 10.0),
                     st.integers(-100, 100).map(lambda k: k / 10.0))
observations = st.lists(st.tuples(outcomes, st.integers(0, 1),
                                  st.integers(0, 1)),
                        min_size=2, max_size=60)
# per-observation weights of either sign, divided by the number of
# outcomes, as the arm sizes divide the fit's: integers make ties cancel
weights = st.one_of(st.floats(-1.0, 1.0), st.integers(-2, 2))


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
        got = kernel_sum(*cell(s, 1, 1), h, pts)
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
        a = kernel_sum(*cell(s1, 1, 1), 0.5, [0.0])
        b = kernel_sum(*cell(s2, 1, 1), 0.5, [0.0])
        assert a[0] == pytest.approx(b[0])


class TestCellSumOracle:
    """The sorted sweep against the direct sum, to 1e-12 absolute."""

    @given(obs=observations, h=st.floats(0.2, 3.0),
           extra=st.lists(st.floats(-40.0, 40.0), max_size=10),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_sum(self, obs, h, extra, data):
        y, d, z = (np.array(col) for col in zip(*obs))
        z[:2] = (0, 1)  # both arms present
        s = Sample(y=y, d=d, z=z)
        # the outcomes, the edges of their kernel windows, and points that
        # may lie outside the data range
        pts = np.concatenate([y, y - h, y + h, extra])
        for dz in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = kernel_sum(*cell(s, *dz), h, pts)
            want = direct_kernel_sum(*cell(s, *dz), h, pts)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # each side's signed sweep, as the fit runs it on a grid
        grid = np.unique(pts)
        est = estimate_density_diff(None, s, None, h, grid)
        for d, f in ((1, est.f1), (0, est.f0)):
            want = direct_kernel_sum(*signed(s, d), h, grid)
            np.testing.assert_allclose(f, want, rtol=0, atol=1e-12)
        # mixed-sign weights, tied outcomes among them
        w = np.array(data.draw(st.lists(weights, min_size=y.size,
                                        max_size=y.size))) / y.size
        np.testing.assert_allclose(kernel_sum(y, w, h, pts),
                                   direct_kernel_sum(y, w, h, pts),
                                   rtol=0, atol=1e-12)

    def test_single_observation_cell(self):
        s = Sample(y=np.array([0.3, 1.0, 2.0]), d=np.array([1, 0, 0]),
                   z=np.array([1, 1, 0]))
        h = 0.4
        pts = 0.3 + h * np.array([-1.5, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5])
        got = kernel_sum(*cell(s, 1, 1), h, pts)
        want = direct_kernel_sum(*cell(s, 1, 1), h, pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got[3] == pytest.approx(0.75 / (h * 2), abs=1e-15)

    def test_empty_cell_is_zero(self):
        s = Sample(y=np.array([0.3, 1.0, 2.0]), d=np.array([1, 0, 0]),
                   z=np.array([1, 1, 0]))
        got = kernel_sum(*cell(s, 1, 0), 0.4, [0.3, 2.0, 50.0])
        assert got.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("h", [0.05, 1.0])
    def test_design_sample_at_every_outcome(self, h):
        # a bandwidth far below the data spread: prefix sums about one
        # centre for the whole cell would cancel to ~1e-11 here
        s = draw_sample(SimDesign.sec33(), 3000, 4)
        pts = np.sort(s.y)
        for dz in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = kernel_sum(*cell(s, *dz), h, pts)
            want = direct_kernel_sum(*cell(s, *dz), h, pts)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        est = estimate_density_diff(None, s, None, h, pts)
        for d, f in ((1, est.f1), (0, est.f0)):
            want = direct_kernel_sum(*signed(s, d), h, pts)
            np.testing.assert_allclose(f, want, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            kernel_sum([0.0, 1.0], 1.0, 0.0, [0.0])

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_rejects_a_non_finite_bandwidth(self, h):
        s = Sample(y=np.array([0.0, 1.0]), d=np.array([1, 0]),
                   z=np.array([1, 0]))
        message = f"^bandwidth must be positive and finite, got {h}$"
        with pytest.raises(ConfigError, match=message):
            kernel_sum(s.y, 1.0, h, [0.0])
        with pytest.raises(ConfigError, match=message):
            estimate_density_diff(None, s, None, h, [0.0, 1.0])


class TestExactCancellation:
    @pytest.mark.parametrize("seed", range(40))
    def test_arms_with_equal_cells_give_exact_zeros(self, seed):
        # each D = d cell holds the same outcomes in both arms, which are
        # equally large: the four-cell difference is exactly 0, and so must
        # the signed sweeps be, or b's sign, and the rate-rule fallback with
        # it, would turn on rounding (+-6e-17 without the merged ties); odd
        # seeds round the outcomes, so that an arm ties them too
        rng = np.random.default_rng(seed)
        ys = [rng.normal(2.0 * d, 1.0, rng.integers(6, 30)) for d in (0, 1)]
        if seed % 2:
            ys = [np.round(cell, 1) for cell in ys]
        y = np.concatenate([rng.permutation(ys[d]) for z in (0, 1)
                            for d in (0, 1)])
        d = np.concatenate([np.full(ys[d].size, d) for z in (0, 1)
                            for d in (0, 1)])
        z = np.repeat([0, 1], y.size // 2)
        s = Sample(y=y, d=d, z=z)
        grid = np.linspace(-4.0, 6.0, 101)
        est = estimate_density_diff(None, s, None, 0.3, grid)
        assert not est.f1.any() and not est.f0.any()
        cfg = default_empirical_config(s)
        assert cfg.b == theorem_trimming(s.n)
        assert cfg.notes == ("average density level non-positive; fell "
                             "back to the rate rule for b",)


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
