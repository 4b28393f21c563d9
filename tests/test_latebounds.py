"""Complier-mass gap regimes, threshold scans, and interval bound estimators."""

import math

import numpy as np
import pytest

from partialid.datamodel import Sample, theorem_bandwidth
from partialid.errors import ConfigError, WeakIdentificationError
from partialid.latebounds import (DeltaEstimate, _bound, _label_swap,
                                  _scan_threshold, estimate_bounds,
                                  estimate_delta)
from partialid.latepoint import (_Moments, _late_variance,
                                 estimate_late)
from partialid.sets import IntervalUnion
from partialid.simplex import solve_lp


def gap_population():
    """40-observation population with a hand-computed bound oracle.

    Equal instrument arms (20/20).  Trimmed sets [2, 5] for d=1 and [0, 1]
    for d=0.  Complier masses 0.3 (d=1) and 0.4 (d=0), so the gap is -0.1.
    The pointwise-minimum sub-density on the d=1 side has mass 0.1 at y=2
    (opposite arm inside the set) and 0.1 at y=7 (own arm outside), making
    both threshold scans hit the target exactly.
    """
    rows = []
    rows += [(3, 1, 1)] * 4 + [(4, 1, 1)] * 4 + [(7, 1, 1)] * 2
    rows += [(2, 1, 0)] * 2 + [(6, 1, 0)] * 9
    rows += [(0, 0, 0)] * 5 + [(1, 0, 0)] * 4
    rows += [(1, 0, 1)] * 1 + [(6, 0, 1)] * 9
    y, d, z = map(np.array, zip(*rows))
    sample = Sample(y=y.astype(float), d=d, z=z)
    set1 = IntervalUnion([(2.0, 5.0)])
    set0 = IntervalUnion([(0.0, 1.0)])
    return sample, set1, set0


class TestDelta:
    def test_gap_and_regime(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        assert de.delta == pytest.approx(-0.1)
        assert de.regime == "below"
        assert de.mass1 == pytest.approx(0.3)
        assert de.mass0 == pytest.approx(0.4)

    def test_point_regime_inside_kappa(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.5)
        assert de.regime == "point"

    def test_above_regime_via_swap(self):
        s, set1, set0 = gap_population()
        swapped = Sample(y=s.y, d=1 - s.d, z=1 - s.z)
        de = estimate_delta(swapped, set0, set1, kappa=0.01)
        assert de.regime == "above"
        assert de.delta == pytest.approx(0.1)

    def test_near_boundary_flag(self):
        s, set1, set0 = gap_population()
        assert estimate_delta(s, set1, set0, kappa=0.09).near_boundary
        assert not estimate_delta(s, set1, set0, kappa=0.01).near_boundary

    def test_kappa_must_be_positive(self):
        s, set1, set0 = gap_population()
        with pytest.raises(ConfigError):
            estimate_delta(s, set1, set0, kappa=0.0)
        with pytest.raises(ConfigError, match="kappa must be positive"):
            estimate_delta(s, set1, set0, kappa=float("nan"))


class TestThresholdScan:
    def test_low_direction_exact_hit(self):
        y = np.array([1.0, 2.0, 3.0])
        contrib = np.array([0.2, 0.3, 0.5])
        t, multiple, saturated = _scan_threshold(y, contrib, 0.5)["low"]
        assert t == 2.0 and not multiple and not saturated

    def test_high_direction(self):
        y = np.array([1.0, 2.0, 3.0])
        contrib = np.array([0.2, 0.3, 0.5])
        t, multiple, saturated = _scan_threshold(y, contrib, 0.5)["high"]
        assert t == 3.0 and not saturated

    def test_saturated_flag(self):
        y = np.array([1.0, 2.0])
        t, _, saturated = _scan_threshold(y, np.array([0.1, 0.1]), 5.0)["low"]
        assert saturated and t == 2.0

    def test_empty_cut_candidate(self):
        # target zero: t = -inf achieves it exactly
        y = np.array([1.0, 2.0])
        t, _, _ = _scan_threshold(y, np.array([0.3, 0.3]), 0.0)["low"]
        assert t == -np.inf

    def test_grid_search_agreement(self):
        # brute-force minimisation over all support cuts agrees within one
        # support point
        rng = np.random.default_rng(5)
        y = np.round(rng.uniform(0, 10, 60), 1)
        contrib = rng.uniform(0, 0.05, 60)
        target = 0.6
        t, _, _ = _scan_threshold(y, contrib, target)["low"]
        support = np.unique(y)
        crits = [(np.sum(contrib[y <= c]) - target) ** 2 for c in support]
        brute = support[int(np.argmin(crits))]
        pos_t = np.searchsorted(support, t)
        pos_b = np.searchsorted(support, brute)
        assert abs(pos_t - pos_b) <= 1


class TestBoundsOracle:
    def test_hand_computed_bounds(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        be = estimate_bounds(s, set1, set0, de, h=theorem_bandwidth(s.n))
        assert be.regime == "below"
        assert be.lower == pytest.approx(3.125, abs=1e-12)
        assert be.upper == pytest.approx(4.375, abs=1e-12)
        assert be.t_lower == 2.0

    def test_lp_cross_check(self):
        # reallocating gap mass within the pointwise-minimum capacities is a
        # transportation LP; its optima must reproduce the corrections
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        be = estimate_bounds(s, set1, set0, de, h=theorem_bandwidth(s.n))
        # capacities: y=2 carries 0.1, y=7 carries 0.1
        ys = np.array([2.0, 7.0])
        cap = np.array([0.1, 0.1])
        gap = abs(de.delta)
        # minimise / maximise sum(y * nu) s.t. 0 <= nu <= cap, sum(nu) = gap
        a_eq = np.array([[1.0, 1.0]])
        a_ub = np.eye(2)
        lo_val, lo_x = solve_lp(ys, a_eq, np.array([gap]), a_ub, cap)
        hi_val, hi_x = solve_lp(-ys, a_eq, np.array([gap]), a_ub, cap)
        base1 = 1.2   # trimmed treated contrast mean
        base0 = 0.15  # trimmed control contrast mean
        denom = 0.4
        assert be.lower == pytest.approx((base1 + lo_val - base0) / denom,
                                         abs=1e-9)
        assert be.upper == pytest.approx((base1 - hi_val - base0) / denom,
                                         abs=1e-9)

    def test_point_regime_collapses_to_point(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.5)
        be = estimate_bounds(s, set1, set0, de, h=theorem_bandwidth(s.n))
        point = estimate_late(s, set1, set0).point
        assert be.lower == be.upper == pytest.approx(point)

    def test_lower_not_above_upper(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        be = estimate_bounds(s, set1, set0, de, h=theorem_bandwidth(s.n))
        assert be.lower <= be.upper

    def test_above_regime_negates_swapped_bounds(self):
        # flipping both treatment and instrument negates the estimand, so
        # the bounds swap and change sign
        s, set1, set0 = gap_population()
        # the d=0 side of a bound is pinned to the d=1 side: the standard
        # errors swap with the bounds
        de = estimate_delta(s, set1, set0, kappa=0.01)
        be = estimate_bounds(s, set1, set0, de, h=theorem_bandwidth(s.n))
        flipped = Sample(y=s.y, d=1 - s.d, z=1 - s.z)
        de_f = estimate_delta(flipped, set0, set1, kappa=0.01)
        be_f = estimate_bounds(flipped, set0, set1, de_f,
                               h=theorem_bandwidth(s.n))
        assert be_f.regime == "above"
        assert be_f.lower == pytest.approx(-be.upper, abs=1e-12)
        assert be_f.upper == pytest.approx(-be.lower, abs=1e-12)
        assert be_f.sigma_lower == pytest.approx(be.sigma_upper, abs=1e-12)
        assert be_f.sigma_upper == pytest.approx(be.sigma_lower, abs=1e-12)

    def test_above_is_the_swapped_below_bit_for_bit(self):
        # an 'above' delta runs the 'below' path on the label-swapped
        # sample: the bounds come back negated and exchanged with their
        # sigmas, and the thresholds and flags as they are
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        be = estimate_bounds(s, set1, set0, de, h=0.5)
        flipped = Sample(y=s.y, d=1 - s.d, z=1 - s.z)
        de_f = DeltaEstimate(delta=-de.delta, kappa=de.kappa, regime="above",
                             mass1=de.mass0, mass0=de.mass1,
                             near_boundary=de.near_boundary)
        be_f = estimate_bounds(flipped, set0, set1, de_f, h=0.5)
        assert (be.regime, be_f.regime) == ("below", "above")
        assert (be_f.lower, be_f.upper) == (-be.upper, -be.lower)
        assert (be_f.sigma_lower, be_f.sigma_upper) == (be.sigma_upper,
                                                        be.sigma_lower)
        assert (be_f.t_lower, be_f.t_upper) == (be.t_lower, be.t_upper)
        assert be_f.flags == be.flags and be_f.n == be.n

    def test_saturated_threshold_is_flagged(self):
        # the collected min-pair mass minus |delta| is Pr(D=1 | Z=1) -
        # mass0, so a d=0 contrast mass above Pr(D=1 | Z=1) leaves the gap
        # more than all the mass a threshold can collect
        rng = np.random.default_rng(0)
        n = 4000
        z = (rng.random(n) < 0.5).astype(int)
        d = (rng.random(n) < np.where(z == 1, 0.2, 0.1)).astype(int)
        y = np.where(d == 1, rng.normal(0, 1, n),
                     np.where(z == 1, rng.normal(5, 1, n),
                              rng.normal(0, 0.3, n)))
        s = Sample(y=y, d=d, z=z)
        set1 = IntervalUnion([(-2.0, 2.0)])
        set0 = IntervalUnion([(-1.0, 1.0)])
        de = estimate_delta(s, set1, set0, kappa=0.1)
        tab = _Moments(s, set1, set0)
        collected = float(np.sum(tab.column(tab.min_pair_parts())[tab.code])
                          / tab.n)
        assert collected - abs(de.delta) == pytest.approx(
            d[z == 1].mean() - de.mass0, abs=1e-12)
        assert collected < abs(de.delta)
        be = estimate_bounds(s, set1, set0, de, h=theorem_bandwidth(n))
        assert be.regime == "below"
        assert "threshold_saturated" in be.flags
        assert be.lower <= be.upper

    def test_weak_identification(self):
        s, set1, set0 = gap_population()
        empty = IntervalUnion([(100.0, 101.0)])
        de = DeltaEstimate(delta=-0.5, kappa=0.01, regime="below",
                           mass1=0.0, mass0=0.0, near_boundary=False)
        with pytest.raises(WeakIdentificationError):
            estimate_bounds(s, empty, empty, de, h=theorem_bandwidth(s.n))


def bound_at(s, set1, set0, delta, t, which, h):
    """The sigma and components of one bound at a threshold of the test's
    choosing, which ``estimate_bounds`` never takes.  An 'above' delta goes
    through the label swap as in ``estimate_bounds``: its lower bound is
    the swapped sample's upper, cut from the high end."""
    if delta.regime == "above":
        s, set1, set0, delta = _label_swap(s, set1, set0, delta)
        which = "upper" if which == "lower" else "lower"
    direction = "low" if which == "lower" else "high"
    return _bound(_Moments(s, set1, set0), set1, delta, t, direction, h)[1:]


class TestBoundVariance:
    def test_runs_and_reports_components(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        sig, comp = bound_at(s, set1, set0, de, t=2.0, which="lower", h=0.5)
        assert sig > 0
        # six means and the Z=1 indicator
        assert comp["grad"].shape == (6,)
        assert comp["Sigma"].shape == (7, 7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("t, beyond", [(-np.inf, -100.0), (np.inf, 100.0)])
    def test_infinite_threshold_is_the_limit_beyond_the_data(self, which, t,
                                                             beyond):
        # past the data by more than h the kernel density is 0, so the cut
        # and the variance no longer move with t: the infinite t gives the
        # same sigma, with a zero threshold term
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        sig, comp = bound_at(s, set1, set0, de, t, which, h=0.5)
        far, far_comp = bound_at(s, set1, set0, de, beyond, which, h=0.5)
        assert math.isfinite(sig) and sig == far
        assert not comp["threshold"].any()
        assert not far_comp["threshold"].any()

    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_threshold_term_is_t_however_small_the_density(self, which):
        # inside h of the cell's top value 7 the kernel density is positive
        # but tiny (about 6e-8); the collected mass still grows there, so
        # the threshold term is t times the criterion's coefficients over
        # the larger complier mass, in full, and nothing flags it
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        t = 7.5 - 1e-7
        _, comp = bound_at(s, set1, set0, de, t, which, h=0.5)
        denom = max(de.mass1, de.mass0)
        assert np.array_equal(comp["threshold"],
                              np.r_[0.0, 0.0, 0.0, -t, t, -t] / denom)
        assert set(comp) == {"grad", "threshold", "Sigma"}

    def test_full_bounds_with_variance_and_ci(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        be = estimate_bounds(s, set1, set0, de, h=0.5)
        assert be.sigma_lower > 0 and be.sigma_upper > 0
        lo, hi = be.ci(0.05)
        assert lo < be.lower and hi > be.upper


def gap_design_fit(n, seed, decimals=None):
    """A draw of the complier-mass-gap design (masses 0.7 and 0.3 across
    the arms), its tuned configuration and its estimated trimmed sets."""
    from partialid.datamodel import default_empirical_config
    from partialid.density import default_grid, estimate_density_diff
    from partialid.latepoint import estimate_trimmed_sets

    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(int)
    d = (rng.random(n) < np.where(z == 1, 0.7, 0.3)).astype(int)
    y = np.where(d == 1, rng.normal(3.0, np.where(z == 1, 1.0, 3.0)),
                 rng.normal(0.0, 1.0, n))
    if decimals is not None:
        y = np.round(y, decimals)
    s = Sample(y=y, d=d, z=z)
    cfg = default_empirical_config(s)
    grid = default_grid(cfg.band, cfg.h)
    est = estimate_density_diff(None, s, None, cfg.h, grid)
    set1, set0 = estimate_trimmed_sets(est, cfg.tails, cfg.b, cfg.band,
                                       threshold_scale=cfg.threshold_scale)
    return s, set1, set0, cfg


def bound_cases():
    """(label, sample, set1, set0, kappa, h) covering both bound regimes and
    the point regime, on hand-made and estimated sets."""
    s, set1, set0 = gap_population()
    flipped = Sample(y=s.y, d=1 - s.d, z=1 - s.z)
    cases = [("gap-below", s, set1, set0, 0.01, 0.5),
             ("gap-above", flipped, set0, set1, 0.01, 0.5),
             ("gap-point", s, set1, set0, 0.5, 0.5)]
    for label, decimals in (("design", None), ("design-rounded", 1)):
        ds, d1, d0, cfg = gap_design_fit(4000, 3, decimals)
        cases.append((label, ds, d1, d0, cfg.kappa / 10, cfg.h))
        cases.append((label + "-point", ds, d1, d0, 100.0, cfg.h))
    return cases


# estimate_bounds on bound_cases() as computed by the per-observation
# column table that preceded the grouped moment table: (regime, delta,
# lower, upper, sigma_lower, sigma_upper, t_lower, t_upper), then in a bound
# regime the sigma of the lower bound at t_lower and of the upper at t_upper.
# In the 'above' regime the lower bound reads t_upper, so these two are not
# the estimate's sigmas there: they pin ``_bound`` at the other threshold,
# through the label swap that ``bound_at`` shares with ``estimate_bounds``.
PARENT_BOUNDS = {
    'gap-below': (
        'below', -0.10000000000000003, 3.125, 4.375, 4.2540192392019165,
        11.771713647022679, 2.0, 3.0, 4.2540192392019165, 11.771713647022679),
    'gap-above': (
        'above', 0.10000000000000003, -4.375, -3.125, 11.771713647022679,
        4.2540192392019165, 2.0, 3.0, 8.227419382011593, 9.038275813865162),
    'gap-point': (
        'point', -0.10000000000000003, 3.625, 3.625, 13.643574876720072,
        13.643574876720072, None, None),
    'design': (
        'above', 0.11099999999999999, 2.7689603616337712, 3.2201179520492635,
        3.607563987670206, 3.5641099269526695, -0.3264620387602979,
        0.39254431933630224, 3.6284086995770557, 3.587003528188062),
    'design-point': (
        'point', 0.11099999999999999, 2.9873226018417043, 2.9873226018417043,
        8.147362921070432, 8.147362921070432, None, None),
    'design-rounded': (
        'above', 0.11099999999999999, 2.7748062015503874, 3.218604651162791,
        3.6395969963338755, 3.591825424655197, -0.4, 0.5, 3.6585486651717902,
        3.626517054750564),
    'design-rounded-point': (
        'point', 0.11099999999999999, 2.9874332472006895, 2.9874332472006895,
        8.163694432346649, 8.163694432346649, None, None),
}


class TestBoundsAgainstColumnTable:
    @pytest.mark.parametrize("case", bound_cases(), ids=lambda c: c[0])
    def test_estimates_and_variances(self, case):
        label, s, set1, set0, kappa, h = case
        want = PARENT_BOUNDS[label]
        de = estimate_delta(s, set1, set0, kappa)
        be = estimate_bounds(s, set1, set0, de, h=h)
        assert de.regime == want[0]
        want = want[1:]
        got = [de.delta, be.lower, be.upper, be.sigma_lower, be.sigma_upper,
               be.t_lower, be.t_upper]
        if de.regime != "point":
            got += [bound_at(s, set1, set0, de, be.t_lower, "lower", h)[0],
                    bound_at(s, set1, set0, de, be.t_upper, "upper", h)[0]]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=0.0)


class TestFitBandwidth:
    def test_bandwidth_is_required(self):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        with pytest.raises(TypeError, match="'h'"):
            estimate_bounds(s, set1, set0, de)

    @pytest.mark.parametrize("a", [1.0, 1000.0])
    def test_sigmas_scale_with_the_outcome(self, a):
        # y, the regions and the fit's h in new units: the bounds and
        # their sigmas move by the same factor
        s, set1, set0, cfg = gap_design_fit(4000, 3)
        scaled = Sample(y=a * s.y, d=s.d, z=s.z)
        set1, set0 = (IntervalUnion([(a * lo, a * hi) for lo, hi in
                                     r.intervals]) for r in (set1, set0))
        de = estimate_delta(scaled, set1, set0, cfg.kappa / 10)
        be = estimate_bounds(scaled, set1, set0, de, h=a * cfg.h)
        want = PARENT_BOUNDS["design"]
        got = (be.lower / a, be.upper / a, be.sigma_lower / a,
               be.sigma_upper / a)
        assert got == pytest.approx(want[2:6], rel=1e-9)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_non_finite_bandwidth_rejected(self, h):
        s, set1, set0 = gap_population()
        de = estimate_delta(s, set1, set0, kappa=0.01)
        message = f"^bandwidth must be positive and finite, got {h}$"
        with pytest.raises(ConfigError, match=message):
            estimate_bounds(s, set1, set0, de, h)
        with pytest.raises(ConfigError, match=message):
            bound_at(s, set1, set0, de, 2.0, "lower", h)


class TestBoundCost:
    def test_bounds_read_the_table_and_one_cut_split_each(self, monkeypatch):
        s, set1, set0, cfg = gap_design_fit(4000, 3)
        de = estimate_delta(s, set1, set0, cfg.kappa / 10)
        assert de.regime == "above"
        passes = []
        bincount = np.bincount

        def pass_recorder(x, *args, **kwargs):
            passes.append((np.size(x), kwargs.get("minlength")))
            return bincount(x, *args, **kwargs)

        def no_cov(*args, **kwargs):
            raise AssertionError("np.cov called")

        monkeypatch.setattr(np, "bincount", pass_recorder)
        monkeypatch.setattr(np, "cov", no_cov)
        # four passes build the 48-group table, four split it by one cut
        table, split = [(s.n, 48)] * 4, [(s.n, 96)] * 4
        be = estimate_bounds(s, set1, set0, de, h=cfg.h)
        assert passes == table + split + split
        passes.clear()
        bound_at(s, set1, set0, de, be.t_lower, "lower", h=cfg.h)
        assert passes == table + split


class TestSweepCount:
    def test_one_sweep_per_side_and_one_per_threshold(self, monkeypatch):
        from partialid import density, latebounds
        from partialid.datamodel import default_empirical_config
        from partialid.density import default_grid, estimate_density_diff

        s, set1, set0, cfg = gap_design_fit(4000, 3)
        sweeps = []
        real = density.kernel_sum

        def recorder(y, w, h, points):
            sweeps.append(np.size(points))
            return real(y, w, h, points)

        monkeypatch.setattr(density, "kernel_sum", recorder)
        monkeypatch.setattr(latebounds, "kernel_sum", recorder)
        estimate_density_diff(None, s, None, cfg.h,
                              default_grid(cfg.band, cfg.h))
        assert sweeps == [512, 512]
        sweeps.clear()
        default_empirical_config(s)
        assert sweeps == [s.n]
        sweeps.clear()
        de = estimate_delta(s, set1, set0, cfg.kappa / 10)
        assert de.regime == "above"
        be = estimate_bounds(s, set1, set0, de, h=cfg.h)
        assert np.isfinite([be.t_lower, be.t_upper]).all()
        assert sweeps == [1, 1]
        sweeps.clear()
        bound_at(s, set1, set0, de, be.t_lower, "lower", h=cfg.h)
        assert sweeps == [1]


class TestGroupSums:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cancelling_mean_matches_exact_sum(self, seed):
        # pi[1] is a d=0 contrast mean of about 1e-3 summed from terms of
        # order one; sequential group sums left up to 7e-13 relative error
        s, set1, set0, _ = gap_design_fit(200_000, seed)
        tab = _Moments(s, set1, set0)
        got = _late_variance(tab, "outcome")[1]["pi"][1]
        want = math.fsum((s.y * tab.mass[0][tab.code]).tolist()) / s.n
        assert abs(got - want) <= 1e-13 * abs(want)
