"""Dilation-based set estimation and inference for interval-mean data."""

import math
import time

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from partialid.dilation import (CharacterizingFunction, _check_intervals,
                                _dilated, _shift_knots,
                                bootstrap_critical_value, confidence_region,
                                estimated_identified_set, interval_data_stats,
                                interval_mean_model)
from partialid.errors import ConfigError, DataError


def interval_sample(n=200, seed=0, width=1.0):
    rng = np.random.default_rng(seed)
    lows = rng.normal(0.0, 1.0, n)
    return np.column_stack([lows, lows + width * rng.uniform(0.5, 1.5, n)])


def _max_mean_shift(values, eps, direction):
    """Largest mean change produced by moving the ECDF of ``values``
    vertically by at most ``eps`` inside the data range.

    ``direction='down'`` raises the CDF (mean decreases); ``'up'`` lowers it
    (mean increases).  Both are integrals of min(band headroom, eps) over
    the gaps between consecutive order statistics.
    """
    gaps, head = _shift_knots(values, direction)
    return float(np.sum(gaps * np.minimum(head, eps)))


def _invert_mean_shift(values, target, direction):
    """Smallest band height whose maximal mean shift reaches ``target``, at
    each target of an array (a scalar gives a float): the exact inverse of
    a piecewise-linear shift.

    shift(eps) = sum_k gap_k * min(head_k, eps) increases and is linear
    between consecutive heads, so its inverse interpolates the swapped
    knots (shift at each head, head) linearly from (0, 0).  With the heads
    ascending, the shift at the i-th head is A_i, the gap-weighted sum of
    the lower heads, plus head_i times G_i, the total gap at or above head
    i.  A target no band of height 1 reaches (beyond a 1e-12 rounding
    allowance) gives inf; one within that allowance gives the largest head
    (0 without one), where the shift stops growing.
    """
    target = np.asarray(target, dtype=float)
    gaps, head = _shift_knots(values, direction)
    top = float(np.sum(gaps * np.minimum(head, 1.0)))
    if direction == "down":  # heads 1 - F decrease along the values
        gaps, head = gaps[::-1], head[::-1]
    below = np.cumsum(gaps * head) - gaps * head  # A_i
    above = np.cumsum(gaps[::-1])[::-1]  # G_i
    eps = np.interp(target, np.append(0.0, below + head * above),
                    np.append(0.0, head))
    eps = np.where(target <= 0, 0.0,
                   np.where(top < target - 1e-12, math.inf, eps))
    return eps if eps.ndim else float(eps)


def interval_mean_distance(theta, sample):
    """Sup-norm distance from the interval-data evidence to the nearest
    distribution band whose mean interval contains theta, at each theta of
    an array (a scalar gives a float): the sets' oracle, a grid point being
    in the estimated set when its distance is below the radius and in the
    region when it is at most the radius."""
    arr, mean_l, mean_u = _check_intervals(sample)
    theta = np.asarray(theta, dtype=float)
    dist = np.zeros(theta.shape)
    low, high = theta < mean_l, theta > mean_u
    if low.any():
        dist[low] = _invert_mean_shift(arr[:, 0], mean_l - theta[low], "down")
    if high.any():
        dist[high] = _invert_mean_shift(arr[:, 1], theta[high] - mean_u, "up")
    return dist if dist.ndim else float(dist)


def bisect_inverse(values, target, direction):
    """Reference inverse of the mean shift: 80 bisection steps on [0, 1].

    Returns 1.0 when the target lies within the 1e-12 allowance above the
    largest shift, which no bisection step reaches."""
    if target <= 0:
        return 0.0
    if _max_mean_shift(values, 1.0, direction) < target - 1e-12:
        return math.inf
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _max_mean_shift(values, mid, direction) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def bisect_distance(theta, sample):
    """``interval_mean_distance`` with the reference inverse."""
    mean_l, mean_u = sample[:, 0].mean(), sample[:, 1].mean()
    if mean_l <= theta <= mean_u:
        return 0.0
    if theta < mean_l:
        return bisect_inverse(sample[:, 0], mean_l - theta, "down")
    return bisect_inverse(sample[:, 1], theta - mean_u, "up")


class TestConfig:
    def test_default_shrinks_like_logn_over_rootn(self):
        x = interval_sample(10_000, seed=6)
        n = x.shape[0]
        grid = np.linspace(x[:, 0].min(), x[:, 1].max(), 401)
        dist = interval_mean_distance(grid, x)
        est = estimated_identified_set(interval_mean_model(grid), x)
        assert list(est) == list(grid[dist < math.log(n) / math.sqrt(n)])
        assert 0 < est.size < grid.size

    def test_rejects_bad_alpha_and_boot(self):
        x = interval_sample(40)
        with pytest.raises(ConfigError, match="alpha"):
            bootstrap_critical_value(x, 500, 0.0, seed=0)
        with pytest.raises(ConfigError, match="bootstrap resamples"):
            bootstrap_critical_value(x, 5, 0.05, seed=0)
        # alpha is checked first when both are bad
        with pytest.raises(ConfigError, match="alpha"):
            bootstrap_critical_value(x, 5, 0.0, seed=0)

    def test_characterizing_function_validation(self):
        with pytest.raises(ConfigError):
            CharacterizingFunction(theta_grid=np.empty(0))
        with pytest.raises(ConfigError):
            CharacterizingFunction(theta_grid=np.zeros((2, 2)))


class TestBootstrap:
    def test_deterministic_given_seed(self):
        x = interval_sample(80, seed=3)
        a = bootstrap_critical_value(x, 200, 0.05, seed=11)
        b = bootstrap_critical_value(x, 200, 0.05, seed=11)
        assert a == b
        assert a > 0.0

    def test_monotone_in_alpha(self):
        x = interval_sample(80, seed=3)
        strict = bootstrap_critical_value(x, 400, 0.01, seed=1)
        loose = bootstrap_critical_value(x, 400, 0.20, seed=1)
        assert strict > loose > 0.0

    def test_validation(self):
        x = interval_sample(40)
        with pytest.raises(ConfigError):
            bootstrap_critical_value(x, 10, 0.05, seed=0)
        with pytest.raises(ConfigError):
            bootstrap_critical_value(x, 200, 1.5, seed=0)
        for seed in (-1, 1.5):
            with pytest.raises(ConfigError,
                               match=r"^seed must be a non-negative "
                                     rf"integer, got {seed}$"):
                bootstrap_critical_value(x, 200, 0.05, seed=seed)
        with pytest.raises(DataError):
            bootstrap_critical_value(np.array([1.0]), 200, 0.05, seed=0)
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            bootstrap_critical_value(bad, 200, 0.05, seed=0)

    def test_sup_matches_direct_computation(self):
        # re-derive one bootstrap statistic by brute force on a tiny sample
        vals = np.array([0.0, 1.0, 1.0, 3.0])
        n = vals.size
        rng = np.random.default_rng(7)
        draws = rng.integers(0, n, size=n)
        grid = np.unique(vals)
        fn = np.searchsorted(np.sort(vals), grid, side="right") / n
        fb = np.searchsorted(np.sort(vals[draws]), grid, side="right") / n
        want = math.sqrt(n) * np.abs(fb - fn).max()
        # a one-resample bootstrap with the same rng must reproduce it
        got = bootstrap_critical_value(vals, 100, 1.0, seed=7)
        # alpha = 1 gives the minimum over resamples; instead recompute
        # the first statistic directly through the internal path
        rng2 = np.random.default_rng(7)
        counts = np.bincount(rng2.integers(0, n, size=n), minlength=n)
        order = np.argsort(vals, kind="stable")
        cum = np.cumsum(counts[order])
        ends = np.array([0, 2, 3])
        base = np.array([1.0, 3.0, 4.0])
        first = math.sqrt(n) * (np.abs(cum[ends] - base) / n).max()
        assert first == pytest.approx(want, abs=1e-12)
        assert got >= 0.0


class TestMeanShift:
    def test_hand_oracle_two_points(self):
        # values {0, 1}, each mass 1/2.  Raising the CDF by eps on the gap
        # moves mass eps from 1 down to 0: mean falls by eps (eps <= 1/2).
        vals = [0.0, 1.0]
        assert _max_mean_shift(vals, 0.2, "down") == pytest.approx(0.2)
        assert _max_mean_shift(vals, 0.9, "down") == pytest.approx(0.5)
        # lowering the CDF moves mass from 0 up to 1, capped at F(0) = 1/2
        assert _max_mean_shift(vals, 0.2, "up") == pytest.approx(0.2)
        assert _max_mean_shift(vals, 0.9, "up") == pytest.approx(0.5)

    def test_degenerate_values_shift_nothing(self):
        assert _max_mean_shift([2.0, 2.0, 2.0], 0.5, "down") == 0.0

    def test_inversion_recovers_height(self):
        vals = np.random.default_rng(1).normal(size=50)
        for eps in (0.05, 0.2, 0.4):
            shift = _max_mean_shift(vals, eps, "down")
            assert _invert_mean_shift(vals, shift, "down") == pytest.approx(
                eps, abs=1e-9)

    def test_inversion_edge_cases(self):
        vals = [0.0, 1.0]
        assert _invert_mean_shift(vals, 0.0, "up") == 0.0
        assert _invert_mean_shift(vals, 5.0, "up") == math.inf

    def test_target_at_the_largest_shift_gives_the_largest_head(self):
        # n = 4 distinct values: the shift stops growing at 1 - 1/4; just
        # above that, within the allowance, the bisection stays at 1
        vals = [0.0, 1.0, 2.0, 3.0]
        for direction in ("down", "up"):
            top = _max_mean_shift(vals, 1.0, direction)
            assert _invert_mean_shift(vals, top, direction) == 0.75
            assert _invert_mean_shift(vals, top + 5e-13, direction) == 0.75
            assert bisect_inverse(vals, top + 5e-13, direction) == 1.0

    def test_one_distinct_value(self):
        vals = [2.0, 2.0, 2.0]
        assert _invert_mean_shift(vals, 0.5, "up") == math.inf
        assert _invert_mean_shift(vals, 1e-13, "down") == 0.0
        assert _invert_mean_shift(vals, [0.5, 1e-13, -1.0], "up").tolist() \
            == [math.inf, 0.0, 0.0]

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_array_of_targets_equals_one_call_each(self, direction):
        vals = np.round(np.random.default_rng(2).normal(size=60), 1)
        top = _max_mean_shift(vals, 1.0, direction)
        targets = np.concatenate([np.linspace(-0.1, 1.1, 49) * top,
                                  [top + 5e-13, top + 1e-11]])
        got = _invert_mean_shift(vals, targets, direction)
        assert got.tolist() == [_invert_mean_shift(vals, t, direction)
                                for t in targets]


# Distinct values at least 0.05 apart: the shift's slope is a sum of gaps,
# and it must stay well above rounding for a 1e-12 comparison of heights.
# Continuous values are cumulative sums of such gaps; rounded ones sit on a
# 0.1 grid, so that many of them are tied.  The test adds repeats to both.
spaced_values = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=30).map(
    lambda gaps: list(np.cumsum(gaps) - 10.0))
rounded_values = st.lists(st.integers(-100, 100), min_size=2,
                          max_size=40).map(lambda k: [i / 10.0 for i in k])


class TestExactInverseOracle:
    @pytest.mark.parametrize("direction", ["down", "up"])
    @given(values=st.one_of(spaced_values, rounded_values),
           repeats=st.lists(st.integers(0, 29), max_size=10),
           fractions=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection(self, direction, values, repeats, fractions):
        values = values + [values[i % len(values)] for i in repeats]
        _, head = _shift_knots(values, direction)
        top = _max_mean_shift(values, 1.0, direction)
        targets = [f * top for f in fractions] + [0.0, -1.0, top,
                                                  top * (1 - 1e-15),
                                                  top + 5e-13, top + 1e-11]
        for target in targets:
            got = _invert_mean_shift(values, target, direction)
            want = bisect_inverse(values, target, direction)
            if target <= 0:
                assert got == want == 0.0
            elif want == math.inf:
                assert got == math.inf
            elif want < 1.0:
                assert got == pytest.approx(want, abs=1e-12)
            else:  # within the allowance above the largest shift
                assert got == pytest.approx(head.max() if head.size else 0.0,
                                            abs=1e-12)


class TestIntervalMeanDistance:
    def test_zero_inside_identified_interval(self):
        x = interval_sample(100, seed=2)
        lo, hi = x[:, 0].mean(), x[:, 1].mean()
        assert interval_mean_distance(0.5 * (lo + hi), x) == 0.0
        assert interval_mean_distance(lo, x) == 0.0
        assert interval_mean_distance(hi, x) == 0.0

    def test_positive_and_monotone_outside(self):
        x = interval_sample(100, seed=2)
        lo = x[:, 0].mean()
        d1 = interval_mean_distance(lo - 0.1, x)
        d2 = interval_mean_distance(lo - 0.3, x)
        assert 0.0 < d1 < d2

    def test_two_point_hand_oracle(self):
        # lows {0, 1}: theta = 0.5 - 0.2 needs a mean drop of 0.2 = band 0.2
        x = np.array([[0.0, 2.0], [1.0, 3.0]])
        assert interval_mean_distance(0.3, x) == pytest.approx(0.2, abs=1e-9)
        # uppers {2, 3}: theta = 2.5 + 0.3 needs band 0.3
        assert interval_mean_distance(2.8, x) == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_grid_call_equals_per_theta_calls(self, rounded):
        # one call builds the knots once for the whole grid; each distance
        # must be the value a call at that theta alone gives, including the
        # unreachable (inf) points beyond the data range
        x = interval_sample(300, seed=7)
        if rounded:
            x = np.round(x, 1)
        grid = np.linspace(x[:, 0].min() - 0.5, x[:, 1].max() + 0.5, 301)
        dist = interval_mean_distance(grid, x)
        assert dist.shape == grid.shape
        assert dist.tolist() == [interval_mean_distance(th, x) for th in grid]
        assert isinstance(interval_mean_distance(grid[0], x), float)
        assert math.inf in dist.tolist() and 0.0 in dist.tolist()

    def test_rejects_malformed_intervals(self):
        with pytest.raises(DataError):
            interval_mean_distance(0.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DataError):
            interval_mean_distance(0.0, np.array([[0.0], [1.0]]))


# A grid point whose oracle distance is within TIE of the radius lies on
# the band's reach up to rounding, where the oracle's inverse and the
# sets' forward shift each round their own way, so either verdict passes.
# Such ties are the data's extremes at a radius equal to the largest head
# (at small n, c*/sqrt(n) lands on a head k/n or one ulp off it), radius 0
# on data of one distinct value, and rounded data whose reach ends on a
# grid point.  Over 1,500 drawn examples, every point decided the other
# way was an extreme within 1.7e-14 of the radius, or at radius 0.
TIE = 1e-9


def assert_oracle_points(got, grid, dist, radius, closed):
    """``got`` holds the grid points whose oracle distance is below
    ``radius`` (at most it when ``closed``), in grid order, up to ties."""
    kept = np.isin(grid, got)
    assert list(got) == list(grid[kept])
    inside = (dist <= radius) if closed else (dist < radius)
    differ = kept != inside
    tie = np.abs(dist - radius) <= TIE
    if differ.any():
        event("a grid point that ties the radius is decided the other way")
    assert not (differ & ~tie).any()


@st.composite
def interval_data(draw):
    """Interval data with n >= 2, continuous or rounded to 0.1, with some
    lower ends tied at the smallest and upper ends at the largest."""
    n = draw(st.integers(2, 300))
    x = interval_sample(n, seed=draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x = np.round(x, 1)
    # lowering y_l to the minimum and raising y_u to the maximum keep
    # every y_l <= y_u
    x[:draw(st.integers(0, n)), 0] = x[:, 0].min()
    x[:draw(st.integers(0, n)), 1] = x[:, 1].max()
    return x


class TestSetAndRegion:
    def test_estimated_set_brackets_sample_means(self):
        x = interval_sample(400, seed=4)
        lo, hi = x[:, 0].mean(), x[:, 1].mean()
        grid = np.linspace(lo - 2, hi + 2, 801)
        T = interval_mean_model(grid)
        est = estimated_identified_set(T, x)
        assert est.size > 0
        assert est.min() < lo < hi < est.max()

    def test_confidence_region_contains_estimated_set_interior(self):
        x = interval_sample(400, seed=4)
        grid = np.linspace(-4, 4, 401)
        T = interval_mean_model(grid)
        cr, cstar = confidence_region(T, x, 0.05, 300, seed=9)
        assert cstar > 0.0
        lo, hi = x[:, 0].mean(), x[:, 1].mean()
        inside = grid[(grid >= lo) & (grid <= hi)]
        assert set(inside).issubset(set(cr))

    def test_region_shrinks_with_alpha(self):
        x = interval_sample(400, seed=4)
        grid = np.linspace(-4, 4, 1601)
        T = interval_mean_model(grid)
        wide, _ = confidence_region(T, x, 0.01, 300, seed=9)
        narrow, _ = confidence_region(T, x, 0.50, 300, seed=9)
        assert set(narrow).issubset(set(wide))

    @pytest.mark.parametrize("seed,rounded", [(0, False), (1, False),
                                              (2, True), (3, True)])
    def test_keeps_the_oracle_grid_points(self, seed, rounded):
        x = interval_sample(300, seed=seed)
        if rounded:
            x = np.round(x, 1)
        n = x.shape[0]
        grid = np.linspace(x[:, 0].min(), x[:, 1].max(), 201)
        T = interval_mean_model(grid)
        oracle = np.array([bisect_distance(th, x) for th in grid])
        est = estimated_identified_set(T, x)
        radius = math.log(n) / math.sqrt(n)
        assert list(est) == list(grid[oracle < radius])
        cr, cstar = confidence_region(T, x, 0.05, 300, seed=seed)
        assert list(cr) == list(grid[oracle <= cstar / math.sqrt(n)])
        assert 0 < cr.size < est.size < grid.size

    @given(x=interval_data(), k=st.sampled_from([1, 2, 5, 201]),
           with_means=st.booleans(), alpha=st.sampled_from([0.05, 0.5]),
           seed=st.integers(0, 3))
    @settings(max_examples=250, deadline=None)
    def test_keeps_the_oracle_grid_points_on_drawn_data(self, x, k,
                                                        with_means, alpha,
                                                        seed):
        # at the two shipped radii, and at each side's largest head, 2^-20
        # below and above it
        n = x.shape[0]
        lo, hi = x[:, 0].min(), x[:, 1].max()
        grid = np.linspace(lo, hi, k)
        if with_means:
            grid = np.unique(np.concatenate(
                [grid, [lo, hi, x[:, 0].mean(), x[:, 1].mean()]]))
        T = interval_mean_model(grid)
        dist = interval_mean_distance(grid, x)
        assert_oracle_points(estimated_identified_set(T, x), grid, dist,
                             math.log(n) / math.sqrt(n), closed=False)
        cr, cstar = confidence_region(T, x, alpha, 100, seed=seed)
        assert_oracle_points(cr, grid, dist, cstar / math.sqrt(n),
                             closed=True)
        for col, direction in ((0, "down"), (1, "up")):
            largest = _shift_knots(x[:, col], direction)[1].max(initial=0.0)
            for radius in (largest - 2.0 ** -20, largest,
                           largest + 2.0 ** -20):
                if radius < 0:
                    continue
                for closed in (False, True):
                    assert_oracle_points(_dilated(T, x, radius, closed),
                                         grid, dist, radius, closed)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_the_extreme_at_the_largest_head(self, rounded):
        # a band as high as the largest head moves each mean exactly to the
        # data's extreme: the closed region keeps it and the open set does
        # not, while a band any higher keeps it in both, at any scale
        x = interval_sample(50, seed=3)
        if rounded:
            x = np.round(x, 1)
        for scale in (1.0, 2.0 ** -300, 2.0 ** 300):
            y = x * scale
            lo, hi = y[:, 0].min(), y[:, 1].max()
            T = interval_mean_model(np.linspace(lo, hi, 201))
            for col, direction, end in ((0, "down", lo), (1, "up", hi)):
                largest = _shift_knots(y[:, col], direction)[1].max()
                assert end not in _dilated(T, y, largest, closed=False)
                assert end in _dilated(T, y, largest, closed=True)
                above = np.nextafter(largest, 1.0)
                assert end in _dilated(T, y, above, closed=False)

    def test_grid_scan_is_fast(self):
        # 201 grid points against one sort of the 20k values per side take
        # well under a second; 80 bisection steps per point, each with a
        # sort, took 22 s on a 2-core machine
        x = interval_sample(20_000, seed=5)
        T = interval_mean_model(np.linspace(x[:, 0].min(), x[:, 1].max(),
                                            201))
        start = time.perf_counter()
        est = estimated_identified_set(T, x)
        cr, _ = confidence_region(T, x, 0.05, 500, seed=1)
        assert time.perf_counter() - start < 10.0
        assert 0 < cr.size < est.size


# Inference on a design with a known identified set: Y* ~ N(0, 1), seen as
# [Y* - E_l, Y* + E_u] with E_l, E_u ~ Exp(mean 0.5), so the identified set
# of E[Y*] is [-0.5, 0.5].
ALPHA = 0.05
REPS = 40


def widened_normal(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, n)
    return np.column_stack([y - rng.exponential(0.5, n),
                            y + rng.exponential(0.5, n)])


def upper_cdf(x):
    """CDF of Y* + E_u: the exponentially modified normal of rate 2."""
    from scipy.stats import norm
    return norm.cdf(x) - np.exp(2.0 - 2.0 * x) * norm.cdf(x - 2.0)


def sup_distance(values, cdf):
    """sqrt(n) sup |F_n - F| between a sample and a continuous CDF."""
    v = np.sort(values)
    n, f = v.size, cdf(v)
    i = np.arange(1, n + 1)
    return math.sqrt(n) * max((i / n - f).max(), (f - (i - 1) / n).max())


def binomial_floor(level, m):
    """``level`` less three binomial standard errors of a share of m."""
    return level - 3.0 * math.sqrt(level * (1.0 - level) / m)


@pytest.fixture(scope="module")
def replications():
    """Per n, the shares of replications whose region covers the set and
    whose dilation of radius c*/sqrt(n) holds both true CDFs, and the mean
    Hausdorff distance from the estimated set to the set."""
    grid = np.linspace(-3.0, 3.0, 601)
    model = interval_mean_model(grid)
    in_set = grid[np.abs(grid) <= 0.5 + 1e-9]
    out = {}
    for n in (200, 1000):
        reps = []
        for k in range(REPS):
            x = widened_normal(n, [n, k])
            region, cstar = confidence_region(model, x, ALPHA, 200, seed=k)
            est = estimated_identified_set(model, x)
            truth = max(sup_distance(x[:, 0], lambda v: 1.0 - upper_cdf(-v)),
                        sup_distance(x[:, 1], upper_cdf))
            # both sets are intervals: Hausdorff is the larger end gap
            reps.append((np.isin(in_set, region).all(), truth <= cstar,
                         max(abs(est.min() + 0.5), abs(est.max() - 0.5))))
        out[n] = np.mean(reps, axis=0)
    return out


class TestInference:
    """What `dilate region` claims, measured over 40 replications at each
    of n = 200 and 1000 (about 1 s)."""

    @pytest.mark.parametrize("n", [200, 1000])
    def test_region_covers_the_identified_set(self, replications, n):
        assert replications[n][0] >= binomial_floor(1.0 - ALPHA, REPS)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_dilation_holds_the_true_distribution(self, replications, n):
        # the region covers the set whenever the true CDFs lie within
        # c*/sqrt(n) of the empirical ones.  That event has probability
        # 1 - alpha, while the region's own coverage is near 1 here, so
        # this is the check that sees the bootstrap quantile's level
        assert replications[n][1] >= binomial_floor(1.0 - ALPHA, REPS)

    def test_hausdorff_falls_no_faster_than_the_radius(self, replications):
        # the estimate overshoots the set by the mean shift that a CDF band
        # of height log n / sqrt(n) buys.  That shift is concave in the
        # height and zero at zero, so it falls with n by a factor no
        # smaller than the radius's own
        ratio = replications[1000][2] / replications[200][2]
        radius = [math.log(n) / math.sqrt(n) for n in (200, 1000)]
        assert radius[1] / radius[0] <= ratio < 1.0


class TestIntervalDataStats:
    def test_zero_when_hypothesis_interval_matches(self):
        x = np.array([[0.0, 2.0], [1.0, 3.0]])  # mean interval [0.5, 2.5]
        t_nf, t_con = interval_data_stats(x, 0.5, 2.5)
        assert t_nf == 0.0 and t_con == 0.0

    def test_hand_values(self):
        x = np.array([[0.0, 2.0], [1.0, 3.0]])  # n=2, means 0.5 and 2.5
        # hypothesis [3, 4] misses: nonrefutable shortfall (2.5-3)^2
        t_nf, t_con = interval_data_stats(x, 3.0, 4.0)
        assert t_nf == pytest.approx(math.sqrt(2) * 0.25)
        # containment fails on both sides: (4-2.5 ok), (0.5-3)^2 binds
        assert t_con == pytest.approx(math.sqrt(2) * 6.25)
        # hypothesis [0, 1]: meets the interval, containment fails above
        t_nf2, t_con2 = interval_data_stats(x, 0.0, 1.0)
        assert t_nf2 == 0.0
        assert t_con2 == pytest.approx(math.sqrt(2) * 2.25)

    def test_rejects_reversed_hypothesis(self):
        with pytest.raises(DataError):
            interval_data_stats(np.array([[0.0, 1.0], [0.0, 1.0]]), 2.0, 1.0)
