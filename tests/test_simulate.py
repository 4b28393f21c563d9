"""Monte Carlo designs, the exact truth, and the coverage driver."""

import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, optimize, stats

from partialid.datamodel import RunConfig, Sample, default_empirical_config
from partialid.density import default_grid, estimate_density_diff
from partialid.errors import ConfigError, WeakIdentificationError
from partialid.latepoint import (MIN_MASS, TailSpec, check_iam_implication,
                                 conservative_union_ci, known_tail_estimate)
from partialid.sets import IntervalUnion
from partialid.simulate import (_POOL_MIN_N, HalfDensity, SimDesign,
                                _population_set, _positive_intervals,
                                _signed_pair,
                                draw_sample, run_coverage,
                                true_identified_late)


def coverage_cfg(n, b=0.2, h=0.4):
    return RunConfig(
        band=(-2.5, 7.0),
        h=h,
        b=b,
        kappa=math.log(n) / math.sqrt(n),
        tails=TailSpec.sec33(),
        threshold_scale="relative",
    )

# The value an earlier implementation returned by a sign scan, root
# bisection and adaptive quadrature (the oracle below); frozen here so
# regressions are caught at full precision.  The exact truth agrees with
# it to within 1e-14.
SEC33_TRUTH = 1.7438122814589743


# ----------------------------------------------------------------------
# quadrature oracle: the earlier scan + brentq + quad path
# ----------------------------------------------------------------------
def _half_pdf(half):
    """scipy's normal density times the cell mass: an oracle for the
    half-density that the design draws from."""
    return lambda y: half.mass * stats.norm.pdf(y, half.mean, half.sd)


def _oracle_signed(design, d):
    plus, minus = map(_half_pdf, _signed_pair(design, d))
    return lambda y: plus(y) - minus(y)


def _oracle_population_set(design, d):
    """Sign changes of the density difference on a 2049-point grid over
    the band, each refined by brentq, joined with the design's tails."""
    lo, hi = design.band
    signed = _oracle_signed(design, d)
    diff = lambda y: float(signed(y))
    xs = np.linspace(lo, hi, 2049)
    vals = signed(xs)
    intervals = []
    start = lo if vals[0] > 0 else None
    prev_root = lo
    for k in range(len(xs) - 1):
        if (vals[k] > 0) != (vals[k + 1] > 0):
            root = optimize.brentq(diff, xs[k], xs[k + 1], xtol=1e-12)
            if vals[k] > 0:
                intervals.append((start if start is not None else prev_root,
                                  root))
                start = None
            else:
                start = root
            prev_root = root
    if start is not None:
        intervals.append((start, hi))
    region = IntervalUnion(intervals)
    t = design.tails
    if (t.upper1 if d == 1 else t.upper0):
        region = region.union(IntervalUnion([(hi, np.inf)]))
    if (t.lower1 if d == 1 else t.lower0):
        region = region.union(IntervalUnion([(-np.inf, lo)]))
    return region


def _oracle_piece(design, d):
    """(first moment, complier mass) of side d by adaptive quadrature, at
    tolerances tighter than quad's default 1.5e-8, which misses the 1e-9
    target on small contrasts."""
    signed = _oracle_signed(design, d)
    diff = lambda y: float(signed(y))
    tol = dict(limit=200, epsabs=1e-14, epsrel=1e-13)
    num = den = 0.0
    for a, b in _oracle_population_set(design, d).intervals:
        num += integrate.quad(lambda y: y * diff(y), a, b, **tol)[0]
        den += integrate.quad(diff, a, b, **tol)[0]
    return num, den


def _mixture_draw_sample(design, n, seed):
    """draw_sample as it was with one-component Gaussian-mixture cells."""
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < design.pr_z1).astype(np.int8)
    d = np.empty(n, dtype=np.int8)
    y = np.empty(n, dtype=float)
    for zval, cells in ((1, design.p), (0, design.q)):
        idx = np.flatnonzero(z == zval)
        d[idx] = (rng.random(idx.size) < cells[1].mass).astype(np.int8)
        for dval in (0, 1):
            sub = idx[d[idx] == dval]
            if sub.size:
                hd = cells[dval]
                comp = rng.choice(1, size=sub.size, p=np.asarray((1.0,)))
                y[sub] = rng.normal(np.asarray((hd.mean,))[comp],
                                    np.asarray((hd.sd,))[comp])
    return Sample(y=y, d=d, z=z)


# ----------------------------------------------------------------------
# single-normal designs
# ----------------------------------------------------------------------
MEANS = st.floats(-1.0, 5.0)
SDS = st.floats(0.5, 2.5)
SHARES = st.floats(0.05, 0.95)
FLAGS = ("upper1", "lower1", "upper0", "lower0")


def _arm(draw, share, sds=None):
    sd0, sd1 = sds if sds is not None else (draw(SDS), draw(SDS))
    return {0: HalfDensity(1.0 - share, draw(MEANS), sd0),
            1: HalfDensity(share, draw(MEANS), sd1)}


@st.composite
def designs(draw, equal_sds=False, zero_cell=False, narrow_band=False,
            tail=None):
    """Single-normal designs.  ``equal_sds`` makes each signed difference
    compare cells of one sd, ``zero_cell`` empties one cell, a narrow band
    leaves most roots outside it, and ``tail`` sets that one tail flag
    (else all four are drawn)."""
    shares = [draw(SHARES), draw(SHARES)]
    if zero_cell:
        shares[draw(st.integers(0, 1))] = draw(st.sampled_from([0.0, 1.0]))
    sds = (draw(SDS), draw(SDS)) if equal_sds else None
    p = _arm(draw, shares[0], sds)
    q = _arm(draw, shares[1], sds)
    if narrow_band:
        lo = draw(st.floats(-2.0, 6.0))
        band = (lo, lo + draw(st.floats(0.3, 1.5)))
    else:
        band = (-2.5, 7.0)
    if tail is None:
        tails = TailSpec(*(draw(st.booleans()) for _ in FLAGS))
    else:
        tails = TailSpec(**{f: f == tail for f in FLAGS})
    return SimDesign(pr_z1=draw(st.floats(0.1, 0.9)), p=p, q=q, band=band,
                     tails=tails)


def _assume_scan_resolves(design):
    """Keep designs whose in-band roots the grid scan can see: apart from
    each other and from the band edges by more than a few grid steps, and
    between cells that are identical or differ by more than rounding."""
    lo, hi = design.band
    for d in (0, 1):
        plus, minus = _signed_pair(design, d)
        gap = max(abs(plus.mass - minus.mass), abs(plus.mean - minus.mean),
                  abs(plus.sd - minus.sd))
        assume(gap == 0.0 or gap > 0.01)
        ends = sorted({e for iv in _positive_intervals(plus, minus)
                       for e in iv if lo - 0.05 < e < hi + 0.05})
        pts = [lo] + ends + [hi]
        assume(all(b - a > 0.05 for a, b in zip(pts, pts[1:])))


def _assert_regions_match(design):
    for d in (0, 1):
        got = _population_set(design, d).intervals
        want = _oracle_population_set(design, d).intervals
        assert len(got) == len(want), (d, got, want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12), (d, got, want)


def _assert_truth_matches(design):
    """The exact truth equals the quadrature oracle to 1e-9 relative, or
    both call the design weakly identified."""
    (num1, den1), (num0, den0) = (_oracle_piece(design, 1),
                                  _oracle_piece(design, 0))
    # stay clear of the weak-identification cutoff, where rounding decides
    assume(abs(min(den1, den0) - MIN_MASS) > 1e-6)
    if min(den1, den0) < MIN_MASS:
        with pytest.raises(WeakIdentificationError):
            true_identified_late(design)
        return
    want = num1 / den1 - num0 / den0
    assert true_identified_late(design) == pytest.approx(
        want, rel=1e-9, abs=1e-12)


ORACLE = settings(max_examples=60, deadline=None)


# at these tolerances quad may warn of roundoff; the asserts still apply
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestOracle:
    @pytest.mark.parametrize("strategy", [
        designs(), designs(equal_sds=True), designs(zero_cell=True),
        designs(narrow_band=True)] + [designs(tail=f) for f in FLAGS],
        ids=["general", "equal-sds", "zero-mass-cell", "roots-outside-band"]
        + [f"tail-{f}" for f in FLAGS])
    @ORACLE
    @given(data=st.data())
    def test_regions_and_truth(self, strategy, data):
        design = data.draw(strategy)
        _assume_scan_resolves(design)
        _assert_regions_match(design)
        _assert_truth_matches(design)

    @ORACLE
    @given(designs(), st.floats(-1.0, 5.0), SDS, SHARES)
    def test_identical_arms_raise(self, design, mean, sd, share):
        # every signed difference is 0: no complier region, no tail mass
        arm = {0: HalfDensity(1.0 - share, mean, sd),
               1: HalfDensity(share, mean, sd)}
        design = SimDesign(pr_z1=design.pr_z1, p=arm, q=dict(arm),
                           band=design.band, tails=design.tails)
        for d in (0, 1):
            assert _oracle_population_set(design, d) == \
                _population_set(design, d)
        with pytest.raises(WeakIdentificationError):
            true_identified_late(design)

    @ORACLE
    @given(designs())
    def test_swapped_negates_truth(self, design):
        try:
            truth = true_identified_late(design)
        except WeakIdentificationError:
            with pytest.raises(WeakIdentificationError):
                true_identified_late(design.swapped())
            return
        assert true_identified_late(design.swapped()) == -truth

    def test_builtin_design(self):
        design = SimDesign.sec33()
        _assert_regions_match(design)
        (num1, den1), (num0, den0) = (_oracle_piece(design, 1),
                                      _oracle_piece(design, 0))
        assert true_identified_late(design) == pytest.approx(
            num1 / den1 - num0 / den0, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_draw_matches_mixture_draw(self, seed):
        design = SimDesign.sec33()
        got = draw_sample(design, 2000, seed)
        want = _mixture_draw_sample(design, 2000, seed)
        for name in ("y", "d", "z"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


# ----------------------------------------------------------------------
# the abstract's claim: under the relaxed assumption the identified set is
# "the same as imposing A when A is not rejected" (PAPER.md); in the LATE
# application A is instrument monotonicity and the set is a point
# ----------------------------------------------------------------------
FULL_TAILS = TailSpec(upper1=True, lower1=True, upper0=True, lower0=True)


@st.composite
def monotone_designs(draw):
    """Designs that satisfy monotonicity: each treatment side is one normal
    in both arms, with more treated mass in the encouraged arm, p1 >= q1
    (so q0 >= p0), by at least 0.1, and the tails are full."""
    q1 = draw(st.floats(0.0, 0.9))
    p1 = draw(st.floats(q1 + 0.1, 1.0))
    mu1, mu0 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    assume(abs(mu1 - mu0) >= 0.5)
    sd1, sd0 = draw(SDS), draw(SDS)
    lo = draw(st.floats(-5.0, 5.0))
    return SimDesign(
        pr_z1=draw(st.floats(0.1, 0.9)),
        p={1: HalfDensity(p1, mu1, sd1), 0: HalfDensity(1.0 - p1, mu0, sd0)},
        q={1: HalfDensity(q1, mu1, sd1), 0: HalfDensity(1.0 - q1, mu0, sd0)},
        band=(lo, lo + draw(st.floats(0.5, 8.0))), tails=FULL_TAILS)


def wald_ratio(design):
    """The population Wald/IV ratio (E[Y|Z=1] - E[Y|Z=0]) /
    (Pr(D=1|Z=1) - Pr(D=1|Z=0)), the LATE that monotonicity identifies."""
    mean_y = [sum(hd.mass * hd.mean for hd in arm.values())
              for arm in (design.p, design.q)]
    return (mean_y[0] - mean_y[1]) / (design.p[1].mass - design.q[1].mass)


class TestRelaxedEqualsMonotone:
    @settings(max_examples=300, deadline=None)
    @given(monotone_designs())
    def test_truth_is_the_wald_ratio(self, design):
        assert true_identified_late(design) == pytest.approx(
            wald_ratio(design), rel=1e-12)

    def test_subnormal_cell_mass(self):
        # q1 = 5e-324 times an sd once underflowed to a division by zero
        design = SimDesign(
            pr_z1=0.5,
            p={1: HalfDensity(1.0, 0.0, 0.5), 0: HalfDensity(0.0, 1.0, 1.0)},
            q={1: HalfDensity(5e-324, 0.0, 0.5),
               0: HalfDensity(1.0, 1.0, 1.0)},
            band=(0.0, 1.0), tails=FULL_TAILS)
        assert true_identified_late(design) == pytest.approx(-1.0, rel=1e-12)
        assert wald_ratio(design) == pytest.approx(-1.0, rel=1e-12)

    def test_example_design(self):
        design = example_design()
        assert true_identified_late(design) == pytest.approx(2.0, rel=1e-12)
        assert wald_ratio(design) == pytest.approx(2.0, rel=1e-12)


def example_design():
    """p1 = 0.7 N(3, 1), q1 = 0.4 N(3, 1), p0 = 0.3 N(1, 1),
    q0 = 0.6 N(1, 1): a monotone design whose LATE is 3 - 1 = 2."""
    treated, untreated = (3.0, 1.0), (1.0, 1.0)
    return SimDesign(
        pr_z1=0.5,
        p={1: HalfDensity(0.7, *treated), 0: HalfDensity(0.3, *untreated)},
        q={1: HalfDensity(0.4, *treated), 0: HalfDensity(0.6, *untreated)},
        band=(-2.5, 7.0), tails=FULL_TAILS)


class TestRelaxedEqualsMonotoneInSamples:
    # the data-driven run of `late point --union`: fit, diagnostic, union
    @staticmethod
    def fit(sample):
        cfg = default_empirical_config(sample)
        est = estimate_density_diff(None, sample, None, cfg.h,
                                    default_grid(cfg.band, cfg.h))
        return cfg, est

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_implication_passes_and_the_union_covers_the_late(self, seed):
        # A holds, so the data do not reject it, and the intervals of the
        # relaxed model, at the data's tails and over all tails, cover the
        # LATE that A identifies
        sample = draw_sample(example_design(), 200_000, seed)
        cfg, est = self.fit(sample)
        diagnostic = check_iam_implication(
            est, cfg.b, threshold_scale=cfg.threshold_scale)
        assert diagnostic["passes"]
        lo, hi = known_tail_estimate(
            sample, est, cfg.tails, cfg.b, cfg.band, cfg.alpha,
            threshold_scale=cfg.threshold_scale).ci
        assert lo <= 2.0 <= hi
        lo, hi = conservative_union_ci(
            sample, est, cfg.b, cfg.band, cfg.alpha,
            threshold_scale=cfg.threshold_scale)["ci"]
        assert lo <= 2.0 <= hi

    def test_implication_fails_where_a_fails(self):
        # sec33 has the same cells in both arms, so f0 = -f1 and one of
        # them is negative wherever the other is positive
        sample = draw_sample(SimDesign.sec33(), 200_000, 0)
        cfg, est = self.fit(sample)
        assert not check_iam_implication(
            est, cfg.b, threshold_scale=cfg.threshold_scale)["passes"]


def floor_design(mass):
    """Equal normals for d=1 in both arms with masses 2 * ``mass`` and
    ``mass``: over the band (-50, 50), where the normal's mass rounds to 1,
    the d=1 complier mass is ``mass`` to the last bit.  The d=0 cells sit
    apart, so their complier mass is near 1."""
    return SimDesign(
        pr_z1=0.5,
        p={1: HalfDensity(2 * mass, 0.0, 1.0),
           0: HalfDensity(1.0 - 2 * mass, -5.0, 1.0)},
        q={1: HalfDensity(mass, 0.0, 1.0),
           0: HalfDensity(1.0 - mass, 5.0, 1.0)},
        band=(-50.0, 50.0), tails=TailSpec())


class TestTruthFloor:
    def test_floor_is_the_estimators_min_mass(self):
        # the estimators reject a mass below MIN_MASS, not one equal to it
        assert math.isfinite(true_identified_late(floor_design(MIN_MASS)))
        below = float(np.nextafter(MIN_MASS, 0.0))
        with pytest.raises(WeakIdentificationError) as exc:
            true_identified_late(floor_design(below))
        assert exc.value.mass == below

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(designs(), designs(zero_cell=True),
                     designs(narrow_band=True), designs(equal_sds=True),
                     monotone_designs()))
    @example(SimDesign(pr_z1=0.5, p=example_design().p,
                       q=example_design().p, band=(-2.5, 7.0),
                       tails=TailSpec()))
    def test_truth_is_finite_or_weak(self, design):
        try:
            truth = true_identified_late(design)
        except WeakIdentificationError as exc:
            assert exc.mass < MIN_MASS
        else:
            assert math.isfinite(truth)


class TestHalfDensity:
    def test_mass_moment_matches_quadrature(self):
        hd = HalfDensity(0.3, 2.0, 0.5)
        pdf = _half_pdf(hd)
        mass, moment = hd.mass_moment(-np.inf, np.inf)
        assert mass == pytest.approx(0.3, abs=1e-15)
        assert moment == pytest.approx(0.6, abs=1e-15)
        for a, b in ((-np.inf, 1.7), (1.7, 2.9), (2.9, np.inf)):
            want = [integrate.quad(lambda y: y ** k * float(pdf(y)), a, b,
                                   epsabs=1e-13)[0] for k in (0, 1)]
            assert hd.mass_moment(a, b) == pytest.approx(want, abs=1e-11)

    def test_draw_moments(self):
        hd = HalfDensity(1.0, 2.0, 1.5)
        draws = hd.draw(np.random.default_rng(0), 200_000)
        assert draws.mean() == pytest.approx(2.0, abs=0.02)
        assert draws.std() == pytest.approx(1.5, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            HalfDensity(1.5, 0.0, 1.0)
        with pytest.raises(ConfigError):
            HalfDensity(0.5, 0.0, 0.0)
        with pytest.raises(ConfigError):
            HalfDensity(0.5, 0.0, -1.0)
        with pytest.raises(ConfigError):
            HalfDensity(0.5, 0.0, math.nan)


class TestDesign:
    def test_builtin_design_shape(self):
        design = SimDesign.sec33()
        assert design.pr_z1 == 0.6
        assert design.p[1].mean == 3.0
        assert design.q[1].sd == math.sqrt(3.0)
        assert design.band == (-2.5, 7.0)

    def test_mass_check(self):
        good = SimDesign.sec33()
        bad_p = dict(good.p)
        bad_p[1] = HalfDensity(0.7, 3.0, 1.0)
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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_a_config_error(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be a non-negative "
                                              rf"integer, got {seed}$"):
            draw_sample(SimDesign.sec33(), 100, seed)

    def test_seed_sequence_and_numpy_integer_seeds(self):
        # run_coverage passes each replication a SeedSequence child
        child = np.random.SeedSequence(3).spawn(2)[1]
        assert draw_sample(SimDesign.sec33(), 100, child).n == 100
        assert np.array_equal(draw_sample(SimDesign.sec33(), 100, 7).y,
                              draw_sample(SimDesign.sec33(), 100,
                                          np.int64(7)).y)


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
        for seed in (-1, 1.5):
            with pytest.raises(ConfigError,
                               match=r"^seed must be a non-negative "
                                     rf"integer, got {seed}$"):
                run_coverage(design, "known", 200, 2, cfg, seed=seed)

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

    @pytest.mark.parametrize("n,threads", [(_POOL_MIN_N - 1, 2),
                                           (_POOL_MIN_N - 1, None),
                                           (_POOL_MIN_N, 1)])
    def test_no_pool_below_the_cut_or_at_one_thread(self, monkeypatch, n,
                                                    threads):
        # below the cut a second thread only slows a replication
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("thread pool built")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        res = run_coverage(SimDesign.sec33(), "known", n, 2, coverage_cfg(n),
                           seed=0, threads=threads)
        assert len(res.records) == 2

    @pytest.mark.parametrize("threads,m,want", [
        (None, 5, 3), (2, 5, 2), (10**6, 5, 3), (None, 2, 2), (0, 5, None)])
    def test_pool_workers_at_the_cut(self, monkeypatch, threads, m, want):
        # min(threads, cpu count, m) workers; None means the cpu count
        workers = []

        class Recorder:
            def __init__(self, max_workers=None):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        n = _POOL_MIN_N
        run_coverage(SimDesign.sec33(), "known", n, m, coverage_cfg(n),
                     seed=0, threads=threads)
        assert workers == ([] if want is None else [want])

    @pytest.mark.parametrize("estimator", ["known", "union"])
    def test_records_equal_across_threads_above_the_cut(self, estimator):
        # each replication has its own child seed, so the pool changes
        # nothing but the order in which replications run
        design = SimDesign.sec33()
        n = _POOL_MIN_N
        runs = [run_coverage(design, estimator, n, 4, coverage_cfg(n),
                             seed=7, threads=threads)
                for threads in (1, 2, None)]
        assert any(r["error"] is None for r in runs[0].records)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_missing_an_arm_is_recorded(self, threads):
        # at n = 5 some draws hold one instrument arm only: each such
        # replication records the sample's error, and the run goes on
        design = SimDesign.sec33()
        res = run_coverage(design, "known", 5, 60, coverage_cfg(5), seed=3,
                           threads=threads)
        assert res.m == len(res.records) == 60
        errors = [r["error"] for r in res.records if r["error"] is not None]
        assert res.n_errors == len(errors)
        assert any(e.startswith("DataError: both instrument arms")
                   for e in errors)

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
