"""End-to-end acceptance checks for the whole package.

Each test pins a headline number or an exactness guarantee:

1. the built-in design's identified contrast equals its closed form, and
   the value of the earlier quadrature implementation is pinned;
2. Monte Carlo coverage of the plug-in intervals at reference settings
   (fast profile by default; set RUN_FULL_COVERAGE=1 for the m=1000 run);
3. closed-form selection-model quantities equal their LP counterparts;
4. finite structure-space algebra agrees with brute-force set logic;
5. the bound estimator on a finite-support population equals hand algebra;
6. the bootstrap critical value matches the Kolmogorov limit and the
   interval-mean confidence region attains nominal coverage;
7. a 3,010-row synthetic dataset runs through the full CLI pipeline.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from partialid.cli import run as cli_run
from partialid.datamodel import RunConfig, Sample, theorem_bandwidth
from partialid.dilation import (bootstrap_critical_value,
                                interval_mean_distance)
from partialid.latebounds import (_scan_threshold, estimate_bounds,
                                  estimate_delta)
from partialid.latepoint import TailSpec
from partialid.roy import (RoyDistribution, build_polyhedron,
                           check_roy_refutable, min_efficiency_loss,
                           potential_outcome_bounds, _cell_index)
from partialid.simplex import solve_lp
from partialid.simulate import (HalfDensity, SimDesign, run_coverage,
                                true_identified_late)
from partialid.structures import (FiniteStructureSpace, binary_decidability,
                                  check_extension, complete_space)

from conftest import simplex_bounds
from test_latebounds import gap_population

RUN_FULL = os.environ.get("RUN_FULL_COVERAGE") == "1"


# ----------------------------------------------------------------------
# 1. identified value of the built-in design
# ----------------------------------------------------------------------
def _normal_mass_moment(mu, sd, a, b):
    """Mass and first moment of N(mu, sd^2) on (a, b)."""
    alpha, beta = (a - mu) / sd, (b - mu) / sd
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    pdf = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    mass = cdf(beta) - cdf(alpha)
    return mass, mu * mass - sd * (pdf(beta) - pdf(alpha))


def _sec33_roots():
    """Sign changes of p(y,1) - q(y,1) for the built-in design.

    With Y ~ N(3, 1) given Z=1 and Y ~ N(2.5, variance 3) given Z=0, and
    equal cell masses, the difference changes sign where
    phi(y-3) = phi((y-2.5)/sqrt(3))/sqrt(3), i.e. at the roots of
    2y^2 - 13y + 20.75 - 3 ln 3 = 0; it is positive between them.
    """
    r = math.sqrt(3.0 + 24.0 * math.log(3.0))
    return (13.0 - r) / 4.0, (13.0 + r) / 4.0


def _sec33_closed_form():
    """Identified contrast of the built-in design in closed form.

    The treated complier region is (y-, y+).  The untreated density
    difference is minus the treated one and d=0 takes both tails, so the
    untreated region is the complement of (y-, y+) and the band drops out.
    Pr(Z=1) does not enter, and the common cell mass of 0.5 cancels in
    each ratio.
    """
    lo, hi = _sec33_roots()
    mass_p, mom_p = _normal_mass_moment(3.0, 1.0, lo, hi)
    mass_q, mom_q = _normal_mass_moment(2.5, math.sqrt(3.0), lo, hi)
    treated = (mom_p - mom_q) / (mass_p - mass_q)
    # complement of (y-, y+): total mass 1 and total first moment mu
    untreated = ((2.5 - mom_q) - (3.0 - mom_p)) / (mass_p - mass_q)
    return treated - untreated


class TestCriterion1TrueValue:
    def test_reference_value(self):
        start = time.perf_counter()
        design = SimDesign.sec33()
        truth = true_identified_late(design)
        assert time.perf_counter() - start < 1.0
        # the documented design the closed form was derived for
        lo, hi = _sec33_roots()
        assert design.pr_z1 == 0.6
        for d in (0, 1):
            assert design.p[d] == HalfDensity(0.5, 3.0, 1.0)
            assert design.q[d] == HalfDensity(0.5, 2.5, math.sqrt(3.0))
        assert design.tails == TailSpec(upper1=False, lower1=False,
                                        upper0=True, lower0=True)
        assert design.band[0] < lo and hi < design.band[1]
        assert truth == pytest.approx(_sec33_closed_form(), abs=1e-12)

    def test_quadrature_oracle(self):
        # the value an earlier implementation returned by a sign scan, root
        # bisection and adaptive quadrature of each segment; the exact
        # truth and _sec33_closed_form above both agree with it to within
        # 1e-14 (tests/test_simulate.py keeps that path as an oracle)
        truth = true_identified_late(SimDesign.sec33())
        assert truth == pytest.approx(1.7438122814589743, abs=1e-10)


# ----------------------------------------------------------------------
# 2. Monte Carlo coverage at the reference settings
# ----------------------------------------------------------------------
def _coverage_cfg(n, b, h, design):
    return RunConfig(
        band=design.band,
        h=h,
        b=b,
        kappa=math.log(n) / math.sqrt(n),
        tails=design.tails,
        threshold_scale="relative",
    )


# (estimator, n, b, h, reference coverage, full-run window)
COVERAGE_SETTINGS = [
    ("known", 1000, 0.2, 0.4, 0.965, (0.93, 0.99)),
    ("known", 5000, 0.12, 0.2, 0.963, (0.93, 0.99)),
    ("known", 5000, 0.135, 0.2, 0.935, (0.90, 0.97)),
    ("union", 5000, 0.12, 0.2, 0.988, (0.96, 1.00)),
]


class TestCriterion2Coverage:
    @pytest.mark.parametrize(
        "estimator,n,b,h,reference,window", COVERAGE_SETTINGS,
        ids=["known-n1000-b0.2", "known-n5000-b0.12",
             "known-n5000-b0.135", "union-n5000-b0.12"])
    def test_coverage(self, estimator, n, b, h, reference, window):
        design = SimDesign.sec33()
        cfg = _coverage_cfg(n, b, h, design)
        if RUN_FULL:
            m, lo, hi = 1000, window[0], window[1]
        else:
            # fast profile: the window is the reference value plus/minus
            # four binomial standard errors at m=200
            m = 200
            se = math.sqrt(reference * (1 - reference) / m)
            lo, hi = reference - 4 * se, min(1.0, reference + 4 * se)
        result = run_coverage(design, estimator, n, m, cfg, seed=5)
        assert result.n_errors == 0
        assert lo <= result.coverage <= hi, (
            f"coverage {result.coverage:.3f} outside [{lo:.3f}, {hi:.3f}] "
            f"for {estimator} n={n} b={b} h={h} (m={m})")


# ----------------------------------------------------------------------
# 3. selection-model closed forms equal their linear programs
# ----------------------------------------------------------------------
class TestCriterion3RoyExactness:
    def test_thousand_random_distributions(self):
        rng = np.random.default_rng(17)
        start = time.perf_counter()
        admitted = 0
        # every draw is checked, refuted or not, until 1000 admitted ones
        while admitted < 1000:
            dist = RoyDistribution(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
            admitted += not check_roy_refutable(dist)["refuted"]

            # (a) closed-form minimal inefficiency equals the LP minimum of
            # the two strictly dominated cells, with the equality row that
            # encodes that minimum removed from the system
            a_eq, b_eq, a_ub, b_ub = build_polyhedron(dist)
            c = np.zeros(16)
            c[_cell_index(0, 1, 0, 1)] = 1.0
            c[_cell_index(1, 0, 1, 1)] = 1.0
            lp_val, _ = solve_lp(c, A_eq=a_eq[:-1], b_eq=b_eq[:-1],
                                 A_ub=a_ub, b_ub=b_ub)
            assert abs(lp_val - min_efficiency_loss(dist)) < 1e-9

            # (b) analytic treated-outcome bounds equal the LP optima
            bounds = potential_outcome_bounds(dist)
            lp = simplex_bounds(dist)
            for key in ("z0", "z1"):
                assert abs(lp[key][0] - bounds[key][0]) < 1e-9
                assert abs(lp[key][1] - bounds[key][1]) < 1e-9
        assert time.perf_counter() - start < 10.0


# ----------------------------------------------------------------------
# 4. structure-space algebra vs brute force
# ----------------------------------------------------------------------
def _brute_hulls(space, hyp):
    reach_in = (set().union(*(space.obs_map[s] for s in hyp))
                if hyp else set())
    rest = space.structures - hyp
    reach_out = (set().union(*(space.obs_map[s] for s in rest))
                 if rest else set())
    snf = frozenset(s for s in space.structures
                    if set(space.obs_map[s]) <= reach_in)
    wnf = frozenset(s for s in space.structures
                    if set(space.obs_map[s]) & reach_in)
    scon = frozenset(s for s in space.structures
                     if not (set(space.obs_map[s]) & reach_out))
    wcon = frozenset(s for s in space.structures
                     if not (set(space.obs_map[s]) <= reach_out))
    return snf, wnf, scon, wcon, reach_in, reach_out


class TestCriterion4FiniteSpaces:
    def test_thousand_random_spaces(self):
        rng = np.random.default_rng(23)
        outcomes = list("abcdef")
        start = time.perf_counter()
        for _ in range(1000):
            n_out = int(rng.integers(2, 7))
            n_str = int(rng.integers(1, 9))
            outs = outcomes[:n_out]
            obs_map = {}
            for i in range(n_str):
                k = int(rng.integers(1, n_out + 1))
                pred = rng.choice(outs, size=k, replace=False)
                obs_map[f"s{i}"] = frozenset(pred.tolist())
            theta = {s: int(rng.integers(0, 3)) for s in obs_map}
            space = FiniteStructureSpace(frozenset(outs), obs_map, theta)

            names = sorted(space.structures)
            mask = rng.random(len(names)) < 0.5
            hyp = frozenset(n for n, take in zip(names, mask) if take)

            snf, wnf, scon, wcon, reach_in, reach_out = _brute_hulls(
                space, hyp)

            # hull/core operators match their definitions
            assert space.strongly_nonrefutable(hyp) == snf
            assert space.weakly_nonrefutable(hyp) == wnf
            assert space.strongly_confirmable(hyp) == scon
            assert space.weakly_confirmable(hyp) == wcon

            # inclusion chain
            assert scon <= wcon <= hyp <= snf <= wnf

            # four complement identities
            comp = space.structures - hyp
            assert space.structures - snf == space.weakly_confirmable(comp)
            assert space.structures - wnf == space.strongly_confirmable(comp)
            assert space.structures - scon == space.weakly_nonrefutable(comp)
            assert space.structures - wcon == space.strongly_nonrefutable(comp)

            # decidability: every reachable outcome must either refute the
            # hypothesis (unreachable from it) or confirm it (unreachable
            # from its complement)
            dec = binary_decidability(space, hyp)
            brute_decidable = all(
                (o not in reach_in) or (o not in reach_out)
                for o in reach_in | reach_out)
            assert dec["decidable"] is brute_decidable
            assert dec["decidable"] is (scon == wnf)

            # completion preserves every identified set
            comp_space = complete_space(space)
            for o in space.outcomes:
                orig = frozenset(space.theta[s] for s in space.structures
                                 if o in space.obs_map[s])
                new = frozenset(comp_space.theta[s]
                                for s in comp_space.structures
                                if o in comp_space.obs_map[s])
                assert orig == new

            # a complete space always admits a strong extension: add one
            # fresh structure predicting a fresh outcome.  The alphabet is
            # restricted to outcomes the space actually reaches, since a
            # well-defined extension must exhaust it.
            reached = comp_space.reachable(comp_space.structures)
            enlarged_outs = frozenset(reached | {"fresh"})
            ext_map = dict(comp_space.obs_map)
            ext_map["s_new"] = frozenset({"fresh"})
            ext_theta = dict(comp_space.theta)
            ext_theta["s_new"] = 0
            base = FiniteStructureSpace(enlarged_outs, comp_space.obs_map,
                                        comp_space.theta)
            ext = FiniteStructureSpace(enlarged_outs, ext_map, ext_theta)
            assert check_extension(base, ext)["strong"]
        assert time.perf_counter() - start < 30.0


# ----------------------------------------------------------------------
# 5. bound estimator on exact population frequencies
# ----------------------------------------------------------------------
class TestCriterion5BoundOracle:
    def test_population_bounds_match_hand_algebra(self):
        sample, set1, set0 = gap_population()
        delta = estimate_delta(sample, set1, set0, kappa=0.01)
        assert delta.delta == pytest.approx(-0.1, abs=1e-12)
        bounds = estimate_bounds(sample, set1, set0, delta,
                                 h=theorem_bandwidth(sample.n))
        # direct evaluation of the identified interval: base contrast
        # (1.2 - 0.15)/0.4 corrected by moving the 0.1 mass gap to the
        # cheapest/dearest admissible outcome values (2 and 7)
        assert bounds.lower == pytest.approx(3.125, abs=1e-9)
        assert bounds.upper == pytest.approx(4.375, abs=1e-9)

    def test_threshold_scan_matches_grid_search(self):
        rng = np.random.default_rng(41)
        for trial in range(50):
            m = int(rng.integers(5, 80))
            y = np.round(rng.uniform(0, 10, m), 1)
            contrib = rng.uniform(0, 0.05, m)
            target = float(rng.uniform(0, contrib.sum() * 1.2))
            for direction in ("low", "high"):
                t, _, _ = _scan_threshold(y, contrib, target)[direction]
                support = np.unique(y)
                if direction == "low":
                    masses = [contrib[y <= c].sum() for c in support]
                else:
                    masses = [contrib[y >= c].sum() for c in support]
                crits = [(mass - target) ** 2 for mass in masses]
                brute = support[int(np.argmin(crits))]
                pos_t = int(np.searchsorted(support, t))
                pos_b = int(np.searchsorted(support, brute))
                assert abs(pos_t - pos_b) <= 1, (trial, direction)


# ----------------------------------------------------------------------
# 6. bootstrap critical value and confidence-region validity
# ----------------------------------------------------------------------
class TestCriterion6Dilation:
    def test_kolmogorov_limit(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2000)
        cstar = bootstrap_critical_value(x, 2000, 0.05, seed=10)
        assert cstar == pytest.approx(1.358, abs=0.08)

    def test_confidence_region_coverage(self):
        # intervals [L, L+1] with L ~ N(0,1): true mean interval is [0, 1].
        # The region covers the identified set iff both endpoints sit
        # within the bootstrap radius of the evidence.
        reps, n, hits = 500, 200, 0
        root = np.random.SeedSequence(77)
        for k, child in enumerate(root.spawn(reps)):
            rng = np.random.default_rng(child)
            lows = rng.normal(size=n)
            arr = np.column_stack([lows, lows + 1.0])
            cstar = bootstrap_critical_value(arr, 300, 0.05, seed=k)
            radius = cstar / math.sqrt(n)
            if (interval_mean_distance(0.0, arr) <= radius
                    and interval_mean_distance(1.0, arr) <= radius):
                hits += 1
        assert hits / reps >= 0.93


# ----------------------------------------------------------------------
# 7. end-to-end pipeline on a synthetic observational dataset
# ----------------------------------------------------------------------
class TestCriterion7Pipeline:
    def make_fixture(self, path):
        rng = np.random.default_rng(2026)
        n = 3010
        z = (rng.random(n) < 0.5).astype(int)
        # imperfect compliance in both directions of the encouraged arm
        d = np.where(z == 1, rng.random(n) < 0.75, rng.random(n) < 0.25)
        d = d.astype(int)
        y = rng.normal(6.0 + 0.5 * d, 1.5)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "d", "z"])
            for row in zip(y, d, z):
                writer.writerow(row)

    def test_full_report(self, tmp_path, capsys):
        data = tmp_path / "study.csv"
        self.make_fixture(data)
        code = cli_run(["late", "point", "--input", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        res = payload["results"]
        assert res["n"] == 3010
        lo, hi = res["ci"]
        assert lo <= res["estimate"] <= hi
        assert res["sigma"] > 0
        assert res["complier_mass_d1"] > 0
        assert res["complier_mass_d0"] > 0
        assert isinstance(res["wald"], float)
        assert isinstance(res["implication_diagnostic"]["passes"], bool)
