"""Trimmed complier-mean contrast: point estimator, tails, variance, union."""

import re
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partialid import latepoint
from partialid.datamodel import Sample
from partialid.density import (DensityEstimate, default_grid,
                               estimate_density_diff)
from partialid.errors import ConfigError, WeakIdentificationError
from partialid.latepoint import (MIN_MASS, TailSpec, check_iam_implication,
                                 conservative_union_ci, estimate_late,
                                 estimate_trimmed_sets, known_tail_estimate,
                                 late_variance, wald_estimate)
from partialid.sets import IntervalUnion, superlevel_set

from conftest import make_sample


class ObsColumns:
    """Oracle: per-observation columns of one fit (sample, set1, set0), as
    the estimators read them before the grouped moment table.

    Side d's own arm is Z=d.  Each side-d column is a sum over the two arms
    of a raw part divided by that arm's frequency.
    """

    def __init__(self, sample, set1, set0):
        self.sample = sample
        self.y = sample.y
        self.z1 = (sample.z == 1).astype(float)
        m1 = float(np.mean(self.z1))
        self.m = (1.0 - m1, m1)  # indexed by z
        self.cell = {(d, z): ((sample.d == d) & (sample.z == z)).astype(float)
                     for d in (0, 1) for z in (0, 1)}
        self.inside = (set0.contains(self.y), set1.contains(self.y))
        self.mass = [self.column(self.mass_parts(d)) for d in (0, 1)]

    def mass_parts(self, d):
        inset = self.inside[d]
        return {d: self.cell[d, d] * inset,
                1 - d: -(self.cell[d, 1 - d] * inset)}

    def column(self, parts):
        return parts[0] / self.m[0] + parts[1] / self.m[1]

    def arm_means(self, parts, v=1.0):
        return {z: float(np.mean(v * parts[z])) for z in (0, 1)}


def oracle_estimate(cols):
    """Point estimate and complier masses, d=1 mass checked first.  A mass
    under the floor raises with ``terms``, the size of its two arm parts
    (probabilities), which bounds the rounding of their difference."""
    num0, num1 = (float(np.mean(cols.y * c)) for c in cols.mass)
    den0, den1 = (float(np.mean(c)) for c in cols.mass)
    for d, mass in ((1, den1), (0, den0)):
        if mass < MIN_MASS:
            exc = WeakIdentificationError("oracle", mass=mass)
            parts = cols.arm_means(cols.mass_parts(d))
            exc.terms = sum(abs(parts[z]) / cols.m[z] for z in (0, 1))
            raise exc
    return num1 / den1 - num0 / den0, den1, den0


def oracle_variance(cols, method):
    """Delta-method sigma and components from an n x 6 covariance."""
    y = cols.y
    cores = [y * cols.mass[1], y * cols.mass[0], cols.mass[1], cols.mass[0]]
    pi = np.array([c.mean() for c in cores])
    V = np.column_stack([cols.z1, 1.0 - cols.z1] + cores)
    Sigma = np.cov(V, rowvar=False, ddof=0)
    D = np.diag([-1.0 / cols.m[1] ** 2, -1.0 / cols.m[0] ** 2,
                 1.0, 1.0, 1.0, 1.0])
    if method == "outcome":
        own = [cols.arm_means(cols.mass_parts(d), y)[d] for d in (1, 0)]
        cross = [float(np.mean(y * cols.cell[d, 1 - d] * cols.inside[1 - d]))
                 for d in (1, 0)]
        gamma_star = np.array([own + own, cross + cross])
    else:
        raw = [cols.arm_means(cols.mass_parts(d), v)
               for v in (y, 1.0) for d in (1, 0)]
        gamma_star = np.array([[r[1] for r in raw], [r[0] for r in raw]])
    Gamma = np.vstack([gamma_star, np.eye(4)])
    Pi = np.array([1.0 / pi[2], -1.0 / pi[3],
                   -pi[0] / pi[2] ** 2, pi[1] / pi[3] ** 2])
    A = Gamma.T @ D.T @ Sigma @ D @ Gamma
    var = float(Pi @ A @ Pi)
    # size of the terms the quadratic form sums, which bounds its rounding
    terms = float(np.abs(Pi) @ np.abs(A) @ np.abs(Pi))
    return float(np.sqrt(max(var, 0.0))), {"Sigma": Sigma, "Gamma": Gamma,
                                           "pi": pi, "terms": terms}


def oracle_known_tail(sample, est, tails, b_n, band, alpha, scale):
    """(point, sigma, ci, mass1, mass0, terms) of one spec from its full
    sets; ``terms`` is the size of the variance's summed terms."""
    set1, set0 = estimate_trimmed_sets(est, tails, b_n, band,
                                       threshold_scale=scale)
    cols = ObsColumns(sample, set1, set0)
    point, mass1, mass0 = oracle_estimate(cols)
    sigma, comp = oracle_variance(cols, "outcome")
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * sigma / np.sqrt(sample.n)
    return (point, sigma, (point - half, point + half), mass1, mass0,
            comp["terms"])


def discrete_sample():
    """Hand-checkable sample: equal arms, outcomes on a small grid.

    Z=1 arm: 4 treated at y=3, 1 control at y=0.
    Z=0 arm: 1 treated at y=3, 4 control at y=0.
    """
    rows = [(3, 1, 1)] * 4 + [(0, 0, 1)] * 1 + [(3, 1, 0)] * 1 + [(0, 0, 0)] * 4
    y, d, z = map(np.array, zip(*rows))
    return Sample(y=y.astype(float), d=d, z=z)


FULL = IntervalUnion([(-np.inf, np.inf)])


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
        only3 = IntervalUnion([(2.5, 3.5)])
        est = estimate_late(s, only3, FULL)
        assert est.mass1 == pytest.approx(0.6)

    def test_weak_identification_raises(self):
        s = discrete_sample()
        nothing = IntervalUnion([(100.0, 101.0)])
        with pytest.raises(WeakIdentificationError):
            estimate_late(s, nothing, FULL)

    def test_sigma_is_the_outcome_variance(self):
        s = make_sample(1500, seed=11)
        est = estimate_late(s, FULL, FULL)
        assert est.ci is None and est.tails is None
        assert_close(est.sigma, late_variance(s, FULL, FULL)[0])
        assert set(est.to_jsonable()) == {
            "estimate", "sigma", "complier_mass_d1", "complier_mass_d0"}


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

    @pytest.mark.parametrize("text", ["NONE", "None", " none ", ""])
    def test_none_in_any_case(self, text):
        assert TailSpec.from_string(text) == TailSpec(False, False, False,
                                                      False)

    def test_tokens_in_any_case(self):
        assert TailSpec.from_string("U1, l0") == TailSpec.from_string("u1,l0")

    def test_none_stands_alone(self):
        with pytest.raises(ConfigError, match="'none' alone$"):
            TailSpec.from_string("u1, none")

    def test_tail_set_geometry(self):
        spec = TailSpec(upper1=True, lower1=False, upper0=False, lower0=True)
        band = (-1.0, 2.0)
        t1 = spec.tail_set(1, band)
        assert t1.intervals == ((2.0, np.inf),)
        t0 = spec.tail_set(0, band)
        assert t0.intervals == ((-np.inf, -1.0),)


def _density(sample, h=0.4, band=(-3.0, 8.0)):
    grid = default_grid(band, h)
    return estimate_density_diff(None, sample, None, h, grid)


class TestTrimmedSets:
    def test_absolute_vs_relative(self):
        s = make_sample(800, seed=8)
        est = _density(s)
        tails = TailSpec(False, False, False, False)
        band = (-3.0, 8.0)
        abs1, abs0 = estimate_trimmed_sets(est, tails, 0.01, band)
        rel1, rel0 = estimate_trimmed_sets(est, tails, 0.5, band,
                                           threshold_scale="relative")
        # with no tails each region is the core at the applied level
        assert abs1 == superlevel_set(est.grid, est.f1, 0.01, *band)
        assert abs0 == superlevel_set(est.grid, est.f0, 0.01, *band)
        for got, f in ((rel1, est.f1), (rel0, est.f0)):
            level = 0.5 * float(np.max(f))
            assert got == superlevel_set(est.grid, f, level, *band)

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

    @pytest.mark.parametrize("f0_min, passes", [(-0.2, True), (-0.21, False)])
    def test_relative_level_is_a_share_of_each_peak(self, f0_min, passes):
        # side d passes iff min f_d >= -b max f_d: here -0.1 * 2 for d=0,
        # while side 1 (min -0.05, peak 1) clears -0.1 * 1
        est = DensityEstimate(grid=[0.0, 1.0, 2.0], f1=[-0.05, 1.0, 0.0],
                              f0=[f0_min, 2.0, 0.0])
        rel = check_iam_implication(est, 0.1, threshold_scale="relative")
        assert rel["passes"] is passes
        assert rel == {**check_iam_implication(est, 0.1), "passes": passes}
        assert check_iam_implication(est, 0.1)["passes"] is False
        with pytest.raises(ConfigError, match="threshold_scale"):
            check_iam_implication(est, 0.1, threshold_scale="log")


class TestVariance:
    def test_methods_both_positive_and_differ(self):
        s = make_sample(1500, seed=11)
        sig_out, comp_out = late_variance(s, FULL, FULL, method="outcome")
        sig_grad, comp_grad = late_variance(s, FULL, FULL, method="gradient")
        assert sig_out > 0 and sig_grad > 0
        assert sig_out != pytest.approx(sig_grad, rel=1e-6)
        # the four core means and the Z=1 indicator, and one slope each
        assert comp_out["Sigma"].shape == (5, 5)
        assert comp_out["slopes"].shape == (4,)

    def test_floor_error_names_the_side(self):
        # the d=0 region holds no outcome: its mass is 0, d=1's is 0.6
        s = discrete_sample()
        nothing = IntervalUnion([(100.0, 101.0)])
        with pytest.raises(WeakIdentificationError,
                           match="complier mass for d=0 is 0 < 0.0001"):
            late_variance(s, FULL, nothing)

    def test_unknown_method_rejected(self, monkeypatch):
        # before the moment table is built
        s = make_sample(100, seed=11)
        monkeypatch.setattr(latepoint, "_Moments", None)
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


# outcome kinds for the oracle comparison; "small_arms" keeps an arm of a
# few dozen observations and a weak or reversed first stage, so some or all
# tail specs fall under the mass floor
KINDS = ["continuous", "rounded", "on_band", "small_arms"]


@st.composite
def fits(draw):
    """A sample, its density estimate, band, level and threshold scale."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "small_arms":
        n, pr_z1 = draw(st.integers(40, 160)), 0.15
        comply = draw(st.floats(0.3, 0.7))
    else:
        n, pr_z1, comply = draw(st.integers(300, 2000)), 0.5, 0.8
    z = (rng.random(n) < pr_z1).astype(int)
    z[:2] = (0, 1)  # both arms present
    d = np.where(rng.random(n) < comply, z, 1 - z)
    y = rng.normal(2.0, 1.0, n) + d
    band = (0.5, 4.5)
    if kind == "rounded":
        y = np.round(y, 1)
    elif kind == "on_band":
        ends = rng.random(n)
        y[ends < 0.05] = band[0]
        y[ends > 0.95] = band[1]
    sample = Sample(y=y, d=d, z=z)
    scale = draw(st.sampled_from(["absolute", "relative"]))
    b_n = draw(st.floats(0.005, 0.15) if scale == "absolute"
               else st.floats(0.05, 0.7))
    h = draw(st.sampled_from([0.25, 0.5]))
    return sample, _density(sample, h, band), band, b_n, scale


def assert_close(new, old, scale=None, slack=0.0):
    """Within 1e-12 relative, relative to ``scale`` when given (the larger
    end of a confidence interval, whose ends may nearly cancel), plus
    ``slack``."""
    scale = max(abs(new), abs(old)) if scale is None else scale
    assert abs(new - old) <= 1e-12 * scale + slack, (new, old)


def assert_sigma_close(new, old, terms):
    """Variances within 1e-12 of the size of the terms they sum.

    With small arms the delta-method form cancels: against an 80-bit
    reference the oracle's sigma was off by up to 2.3e-12 relative and the
    table's by 5.9e-13, both under 1e-14 of the summed terms."""
    assert abs(new * new - old * old) <= 1e-12 * terms, (new, old)


def check_union_against_oracle(sample, est, band, b_n, scale):
    """Compare every union member and the skipped specs with the oracle;
    returns how many specs were skipped."""
    expected, skipped, error = {}, [], None
    for tails in TailSpec.all_specs():
        try:
            expected[tails] = oracle_known_tail(sample, est, tails, b_n,
                                                band, 0.05, scale)
        except WeakIdentificationError as exc:
            skipped.append(tails)
            error = exc
    if not expected:
        with pytest.raises(WeakIdentificationError,
                           match="all 16 tail conditions") as info:
            conservative_union_ci(sample, est, b_n, band,
                                  threshold_scale=scale)
        # a complier mass within 1e-12 of its arm parts; a level's error
        # (no ``terms``) is the same computation on both sides
        assert_close(info.value.mass, error.mass,
                     getattr(error, "terms", None))
        return 16
    res = conservative_union_ci(sample, est, b_n, band, threshold_scale=scale)
    assert [m.tails for m in res["members"]] == list(expected)
    assert res["skipped"] == len(skipped)
    assert res["feasible"] == len(expected)
    for member in res["members"]:
        point, sigma, ci, mass1, mass0, terms = expected[member.tails]
        width = max(abs(ci[0]), abs(ci[1]))
        assert_close(member.point, point, width)
        assert_sigma_close(member.sigma, sigma, terms)
        # the half-widths differ by zq / sqrt(n) times the sigmas
        slack = 2.0 * abs(member.sigma - sigma) / np.sqrt(sample.n)
        assert_close(member.ci[0], ci[0], width, slack)
        assert_close(member.ci[1], ci[1], width, slack)
        assert_close(member.mass1, mass1)
        assert_close(member.mass0, mass0)
    for tails in skipped:
        with pytest.raises(WeakIdentificationError):
            known_tail_estimate(sample, est, tails, b_n, band,
                                threshold_scale=scale)
    return len(skipped)


def check_union_against_known_tail(sample, est, band, b_n, scale):
    """Compare every union member with ``known_tail_estimate`` for its spec,
    and the all-infeasible error's mass with the last failing spec's;
    returns how many specs were skipped."""
    known, error = {}, None
    for tails in TailSpec.all_specs():
        try:
            known[tails] = known_tail_estimate(sample, est, tails, b_n, band,
                                               threshold_scale=scale)
        except WeakIdentificationError as exc:
            error = exc
    if not known:
        with pytest.raises(WeakIdentificationError,
                           match="all 16 tail conditions") as info:
            conservative_union_ci(sample, est, b_n, band,
                                  threshold_scale=scale)
        assert_close(info.value.mass, error.mass)
        return 16
    res = conservative_union_ci(sample, est, b_n, band, threshold_scale=scale)
    assert [m.tails for m in res["members"]] == list(known)
    assert res["skipped"] == 16 - len(known)
    for member in res["members"]:
        want = known[member.tails]
        width = max(abs(want.ci[0]), abs(want.ci[1]))
        assert_close(member.point, want.point, width)
        for key in ("sigma", "mass1", "mass0"):
            assert_close(getattr(member, key), getattr(want, key))
        for got, end in zip(member.ci, want.ci):
            assert_close(got, end, width)
    return 16 - len(known)


# (compliance, threshold scale, skipped specs) of the small-arm fits
WEAK_CASES = [
    (0.8, "relative", 0),      # every spec feasible
    (0.42, "relative", 8),     # reversed a little: half the specs fail
    (0.45, "absolute", 16),    # every spec under the floor
    (0.3, "relative", 16),     # no positive level for d=1 at all
]


def weak_fit(comply, scale):
    """A fit with an arm of about 18 observations and the given
    compliance: (sample, density estimate, band, level, scale)."""
    rng = np.random.default_rng(5)
    n = 120
    z = (rng.random(n) < 0.15).astype(int)
    d = np.where(rng.random(n) < comply, z, 1 - z)
    s = Sample(y=rng.normal(2.0, 1.0, n) + d, d=d, z=z)
    band = (0.5, 4.5)
    b_n = 0.02 if scale == "absolute" else 0.3
    return s, _density(s, 0.5, band), band, b_n, scale


class TestStackedUnion:
    """The union's one pass over the table stacked over all sixteen specs
    against sixteen one-spec ``known_tail_estimate`` calls."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fits())
    def test_members_equal_known_tail(self, fit):
        check_union_against_known_tail(*fit)

    @pytest.mark.parametrize("comply,scale,skips", WEAK_CASES)
    def test_skipped_and_infeasible_specs(self, comply, scale, skips):
        fit = weak_fit(comply, scale)
        assert check_union_against_known_tail(*fit) == skips


class TestOneEvaluationPath:
    """``estimate_late`` on the regions ``estimate_trimmed_sets`` returns
    against ``known_tail_estimate`` on the same fit and spec: the given
    regions' table and the band-coded cores' table stacked over the spec."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fits(), st.sampled_from(TailSpec.all_specs()))
    def test_given_regions_match_known_tail(self, fit, tails):
        sample, est, band, b_n, scale = fit
        try:
            set1, set0 = estimate_trimmed_sets(est, tails, b_n, band,
                                               threshold_scale=scale)
        except WeakIdentificationError:  # no level, so no regions
            return
        try:
            want = known_tail_estimate(sample, est, tails, b_n, band,
                                       threshold_scale=scale)
        except WeakIdentificationError as exc:
            with pytest.raises(WeakIdentificationError,
                               match=re.escape(str(exc))):
                estimate_late(sample, set1, set0)
            return
        got = estimate_late(sample, set1, set0)
        # within 1e-12 of the two complier means it subtracts
        p1, p2, p3, p4 = late_variance(sample, set1, set0)[1]["pi"]
        assert_close(got.point, want.point, abs(p1 / p3) + abs(p2 / p4))
        for key in ("mass1", "mass0", "sigma"):
            assert_close(getattr(got, key), getattr(want, key))


class TestMomentTableOracle:
    """The grouped moment table against the per-observation oracle."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fits())
    def test_union_members_and_skips(self, fit):
        check_union_against_oracle(*fit)

    @pytest.mark.parametrize("comply,scale,skips", WEAK_CASES)
    def test_weak_identification_cases(self, comply, scale, skips):
        assert check_union_against_oracle(*weak_fit(comply, scale)) == skips

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fits(), st.sampled_from(TailSpec.all_specs()))
    def test_given_sets_and_both_variances(self, fit, tails):
        sample, est, band, b_n, scale = fit
        try:
            set1, set0 = estimate_trimmed_sets(est, tails, b_n, band,
                                               threshold_scale=scale)
            cols = ObsColumns(sample, set1, set0)
            point, mass1, mass0 = oracle_estimate(cols)
        except WeakIdentificationError:
            return
        late = estimate_late(sample, set1, set0)
        assert_close(late.mass1, mass1)
        assert_close(late.mass0, mass0)
        for method in ("outcome", "gradient"):
            sigma, comp = late_variance(sample, set1, set0, method=method)
            want, want_comp = oracle_variance(cols, method)
            assert_sigma_close(sigma, want, want_comp["terms"])
            assert_close(late.point, point, max(abs(point), sigma))
            # the oracle's Sigma re-indexed to (four core means, Z=1), and
            # each column's Z=1 and Z=0 arm derivatives, D-rescaled, folded
            # into one slope since Z=0 = 1 - Z=1
            core_z1 = np.ix_([2, 3, 4, 5, 0], [2, 3, 4, 5, 0])
            gamma, m = want_comp["Gamma"], cols.m
            refs = {"Sigma": want_comp["Sigma"][core_z1],
                    "slopes": -gamma[0] / m[1] ** 2 + gamma[1] / m[0] ** 2,
                    "pi": want_comp["pi"]}
            for key, ref in refs.items():
                got = comp[key]
                assert np.all(np.abs(got - ref)
                              <= 1e-12 * np.abs(ref).max()), key

    def test_group_layout_is_read_only(self):
        # every table shares the module's layout arrays, so none may be
        # written through one table; splitting and stacking make new ones
        s = make_sample(500, seed=3)
        tab = latepoint._Moments(s, IntervalUnion([(1.0, 3.0)]),
                                 IntervalUnion([(2.0, 4.0)]), (0.0, 5.0))
        layout = [tab.pos, tab.z1, tab.cell, *tab.inside]
        assert all(a is b for a, b in zip(layout, (
            latepoint._POS, latepoint._Z1, latepoint._CELL,
            latepoint._INSIDE0, latepoint._INSIDE1)))
        for array in [*layout, latepoint._IS_Z1]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        split = tab.split(s.y <= 2.0)
        stack = tab.with_tails(TailSpec.all_specs())
        for array in (split.pos, split.z1, split.cell, *split.inside,
                      *stack.inside):
            assert array.flags.writeable

    def test_rounded_outcomes_on_the_band_ends(self):
        # closed cores and tails: an outcome on M_l or M_u lies in the tail
        s = make_sample(1500, seed=31)
        s = Sample(y=np.round(s.y, 1), d=s.d, z=s.z)
        band = (1.0, 4.0)
        assert np.any(s.y == band[0]) and np.any(s.y == band[1])
        est = _density(s, band=band)
        res = conservative_union_ci(s, est, 0.3, band,
                                    threshold_scale="relative")
        for member in res["members"]:
            point, sigma, ci, _, _, terms = oracle_known_tail(
                s, est, member.tails, 0.3, band, 0.05, "relative")
            assert_close(member.point, point, max(abs(ci[0]), abs(ci[1])))
            assert_sigma_close(member.sigma, sigma, terms)


class TestUnionCost:
    def test_one_set_extraction_and_one_pass_per_moment(self, monkeypatch):
        s = make_sample(3000, seed=21)
        est = _density(s)
        sets_calls, passes = [], []
        extract = latepoint.estimate_trimmed_sets
        bincount = np.bincount

        def set_recorder(*args, **kwargs):
            sets_calls.append(args[1])
            return extract(*args, **kwargs)

        def pass_recorder(x, *args, **kwargs):
            passes.append(np.size(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(latepoint, "estimate_trimmed_sets", set_recorder)
        monkeypatch.setattr(np, "bincount", pass_recorder)
        res = conservative_union_ci(s, est, 0.3, (-3.0, 8.0),
                                    threshold_scale="relative")
        assert res["feasible"] + res["skipped"] == 16
        # the cores, without tails, once; count, rough sum of y, and the
        # sums of the residuals and of their squares about the rough means
        assert sets_calls == [TailSpec()]
        assert passes == [s.n] * 4

    def test_one_covariance_stack_per_union(self, monkeypatch):
        # all sixteen specs share one batched covariance: a per-spec loop
        # would make sixteen calls
        s = make_sample(3000, seed=21)
        est = _density(s)
        shapes = []
        cov = latepoint._Moments.cov

        def cov_recorder(self, *args, **kwargs):
            out = cov(self, *args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(latepoint._Moments, "cov", cov_recorder)
        res = conservative_union_ci(s, est, 0.3, (-3.0, 8.0),
                                    threshold_scale="relative")
        assert res["feasible"] == 16
        assert shapes == [(16, 5, 5)]

    def test_union_at_a_million_observations(self):
        # per-spec sets and n x 6 covariances took about 4.3 s here; the
        # table makes it one fit plus sixteen small dot products
        s = make_sample(1_000_000, seed=22)
        band = (-1.0, 6.0)
        est = _density(s, h=0.1, band=band)
        best = np.inf
        for _ in range(2):
            start = time.perf_counter()
            res = conservative_union_ci(s, est, 0.2, band,
                                        threshold_scale="relative")
            best = min(best, time.perf_counter() - start)
        assert res["feasible"] == 16
        assert best < 1.0
