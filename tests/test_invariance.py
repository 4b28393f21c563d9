"""Invariances of the LATE estimators: a shift of the outcome's origin, a
change of its units, and the swap of the (D, Z) labels.

What holds today is pinned by Hypothesis, through the library and through
``cli.run``.  The default ``"outcome"`` sigma, which every ``late point``
interval, every union member and every point-regime ``late bounds`` sigma
reads, has none of the three: those properties are strict xfails, which
turn the run red once ROADMAP item 4 replaces that sigma.  The
``"gradient"`` form has all three already.  Scaling on the absolute scale
is not pinned: the data-driven level there is not in the units of a
density (ROADMAP item 2).
"""

import contextlib
import functools
import io
import json
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from partialid.cli import run
from partialid.datamodel import (Sample, default_empirical_config,
                                 load_sample_csv)
from partialid.density import default_grid, estimate_density_diff
from partialid.latebounds import estimate_bounds, estimate_delta
from partialid.latepoint import (check_iam_implication, estimate_late,
                                 estimate_trimmed_sets, known_tail_estimate,
                                 late_variance)
from partialid.sets import IntervalUnion

from conftest import gen_inputs

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2 ** 32 - 1)
SIZES = st.integers(1000, 3000)
# 0.1 puts most draws in a bound regime, 1 most in the point regime
KAPPA_SCALES = st.sampled_from([0.1, 1.0])
SHIFTS = st.floats(-100.0, 100.0, allow_nan=False)
# the far powers put a threshold's density far from 1 in y's units
POWERS = st.sampled_from([-20, -17, *range(-4, 5), 17, 20])
SWAPPED_TAILS = {"upper1": "upper0", "lower1": "lower0",
                 "upper0": "upper1", "lower0": "lower1"}


def gap_draw(n, seed):
    """(y, d, z) from the complier-mass-gap design of the benchmark's
    gap.csv: treatment rates 0.7 and 0.3 across fair instrument arms,
    Y ~ N(3, 1) and N(3, 3) treated, N(0, 1) untreated."""
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(int)
    d = (rng.random(n) < np.where(z == 1, 0.7, 0.3)).astype(int)
    y = np.where(d == 1, rng.normal(3.0, np.where(z == 1, 1.0, 3.0)),
                 rng.normal(0.0, 1.0, n))
    return y, d, z


def flat(cfg, point, delta, bounds, diagnostic):
    """One run's numbers, keyed as the library and the CLI share them."""
    return {
        "h": cfg["h"], "b": cfg["b"], "kappa": cfg["kappa"],
        "band": list(cfg["band"]), "tails": cfg["tails"],
        "estimate": point["estimate"],
        "mass1": point["complier_mass_d1"], "mass0": point["complier_mass_d0"],
        "diagnostic": diagnostic, "delta": delta["delta"],
        "regime": bounds["regime"],
        **{key: bounds[key] for key in ("lower", "upper", "sigma_lower",
                                        "sigma_upper")},
        **{key: float(bounds[key]) for key in ("t_lower", "t_upper")
           if key in bounds},
    }


def warnings_raise(fn):
    """``fn`` with every warning raised as an error.  (A mark would also
    catch Hypothesis's own deprecation warnings at teardown.)"""
    @functools.wraps(fn)
    def strict(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args, **kwargs)
    return strict


@warnings_raise
def library_run(y, d, z, kappa_scale, **tuning):
    """The `late point` and `late bounds` pipeline, called as a library."""
    sample = Sample(y=y, d=d, z=z)
    cfg = replace(default_empirical_config(sample), **tuning)
    scale = cfg.threshold_scale
    est = estimate_density_diff(None, sample, None, cfg.h,
                                default_grid(cfg.band, cfg.h))
    set1, set0 = estimate_trimmed_sets(est, cfg.tails, cfg.b, cfg.band,
                                       threshold_scale=scale)
    point = known_tail_estimate(sample, est, cfg.tails, cfg.b, cfg.band,
                                cfg.alpha, threshold_scale=scale)
    delta = estimate_delta(sample, set1, set0, cfg.kappa * kappa_scale)
    bounds = estimate_bounds(sample, set1, set0, delta, h=cfg.h)
    return flat(cfg.to_jsonable(), point.to_jsonable(), delta.to_jsonable(),
                bounds.to_jsonable(), check_iam_implication(est, cfg.b, scale))


def cli(*argv):
    """``cli.run(argv)``'s exit code and parsed report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, json.loads(out.getvalue()) if code == 0 else None


def write_csv(path, y, d, z):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,d,z\n")
        fh.writelines(f"{a!r},{b},{c}\n" for a, b, c in
                      zip(y.tolist(), d.tolist(), z.tolist()))
    return str(path)


@warnings_raise
def cli_run(y, d, z, kappa_scale, *flags):
    """The same numbers from `late point` and `late bounds` on a CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(os.path.join(tmp, "in.csv"), y, d, z)
        code, point = cli("late", "point", "--input", path, *flags)
        assert code == 0
        code, bounds = cli("late", "bounds", "--input", path,
                           "--kappa-scale", repr(kappa_scale), *flags)
        assert code == 0
    res = point["results"]
    return flat(point["config"], res, bounds["results"]["delta"],
                bounds["results"]["bounds"], res["implication_diagnostic"])


RUNS = {"library": library_run, "cli": cli_run}


def close(got, want):
    return got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# what holds today
# ----------------------------------------------------------------------
@pytest.mark.parametrize("via", RUNS)
class TestShift:
    """y -> y + c under the default tuning: the tuning, the estimate, the
    masses, the gap and the regime stay, and the band and the thresholds
    move by c, within 1e-9 relative (over 150 draws the worst change was
    1.8e-14, in the estimate; the masses and the gap did not change).  A
    bound regime's values and sigmas move: a strict xfail below."""

    @SETTINGS
    @given(seed=SEEDS, n=SIZES, c=SHIFTS, kappa_scale=KAPPA_SCALES)
    def test_shift(self, via, seed, n, c, kappa_scale):
        y, d, z = gap_draw(n, seed)
        base = RUNS[via](y, d, z, kappa_scale)
        moved = RUNS[via](y + c, d, z, kappa_scale)
        assert (moved["regime"], moved["tails"]) == (base["regime"],
                                                     base["tails"])
        assert moved["diagnostic"]["passes"] == base["diagnostic"]["passes"]
        for key in ("violation_mass_1", "violation_mass_0"):
            assert close(moved["diagnostic"][key], base["diagnostic"][key])
        unmoved = ["h", "b", "kappa", "estimate", "mass1", "mass0", "delta"]
        shifted = ["band"]
        if base["regime"] == "point":  # the bounds are the estimate
            unmoved += ["lower", "upper"]
        else:
            shifted += ["t_lower", "t_upper"]
        for key in unmoved:
            assert close(moved[key], base[key]), key
        for key in shifted:
            assert close(moved[key], np.add(base[key], c).tolist()), key


@pytest.mark.parametrize("via", RUNS)
class TestRelativeScale:
    """y -> a y with a = 2^k on the relative scale, b given and h and the
    band times a: the estimate, the bounds, their thresholds and sigmas
    scale by a bit for bit, and the masses and the gap stay.  The examples
    are bound-regime draws whose density at a threshold, in y's units, is
    under 1e-6 at a = 2^17 and 2^20 and over 1e3 at 2^-17 and 2^-20, so no
    constant in y's units may enter the sigmas."""

    @SETTINGS
    @given(seed=SEEDS, n=SIZES, k=POWERS, kappa_scale=KAPPA_SCALES,
           b=st.sampled_from([0.05, 0.1, 0.2]),
           h=st.sampled_from([0.2, 0.4]))
    @example(seed=0, n=2000, k=17, kappa_scale=0.1, b=0.1, h=0.4)
    @example(seed=1, n=2000, k=20, kappa_scale=0.1, b=0.1, h=0.4)
    @example(seed=2, n=2000, k=-17, kappa_scale=0.1, b=0.1, h=0.4)
    @example(seed=3, n=2000, k=-20, kappa_scale=0.1, b=0.1, h=0.4)
    def test_scale(self, via, seed, n, k, kappa_scale, b, h):
        y, d, z = gap_draw(n, seed)
        a = 2.0 ** k

        def tuned(scale):
            band = (-scale, 5.0 * scale)
            if via == "library":
                return library_run(scale * y, d, z, kappa_scale, b=b,
                                   h=scale * h, band=band,
                                   threshold_scale="relative")
            return cli_run(scale * y, d, z, kappa_scale, f"--b={b!r}",
                           f"--h={scale * h!r}", "--band={!r},{!r}".format(
                               *band), "--threshold-scale=relative")

        base, moved = tuned(1.0), tuned(a)
        for key in ("tails", "regime", "mass1", "mass0", "delta", "kappa",
                    "diagnostic"):
            assert moved[key] == base[key], key
        scaled = ["estimate", "lower", "upper"]
        if base["regime"] != "point":
            scaled += ["sigma_lower", "sigma_upper", "t_lower", "t_upper"]
        for key in scaled:
            assert moved[key] == a * base[key], key


@pytest.mark.parametrize("via", RUNS)
class TestLabelSwap:
    """(D, Z) -> (1 - D, 1 - Z) negates the estimand: the estimate and the
    gap negate, the masses, tails and diagnostic's sides swap, the bounds
    swap and negate with their sigmas, and the tuning and the thresholds
    stay.  The group sums run in another order, so the estimate, masses,
    gap and bounds agree within 1e-12 rather than bit for bit (the worst
    of 30 draws was 6e-15 relative, on a gap)."""

    @SETTINGS
    @given(seed=SEEDS, n=SIZES, kappa_scale=KAPPA_SCALES)
    def test_swap(self, via, seed, n, kappa_scale):
        y, d, z = gap_draw(n, seed)
        base = RUNS[via](y, d, z, kappa_scale)
        swap = RUNS[via](y, 1 - d, 1 - z, kappa_scale)
        for key in ("h", "b", "kappa", "band"):
            assert swap[key] == base[key], key
        assert swap["tails"] == {SWAPPED_TAILS[k]: v
                                 for k, v in base["tails"].items()}
        diag = swap["diagnostic"]
        assert (diag["passes"], diag["violation_mass_1"],
                diag["violation_mass_0"]) == (
            base["diagnostic"]["passes"], base["diagnostic"]["violation_mass_0"],
            base["diagnostic"]["violation_mass_1"])
        assert swap["regime"] == {"below": "above", "above": "below",
                                  "point": "point"}[base["regime"]]
        pairs = [("estimate", -base["estimate"]), ("delta", -base["delta"]),
                 ("mass1", base["mass0"]), ("mass0", base["mass1"]),
                 ("lower", -base["upper"]), ("upper", -base["lower"])]
        if base["regime"] != "point":
            pairs += [("sigma_lower", base["sigma_upper"]),
                      ("sigma_upper", base["sigma_lower"])]
            assert (swap["t_lower"], swap["t_upper"]) == (base["t_lower"],
                                                          base["t_upper"])
        for key, want in pairs:
            assert swap[key] == pytest.approx(want, rel=1e-12, abs=1e-15), key


# ----------------------------------------------------------------------
# known defects, pinned on the benchmark's pool-seed-1 inputs
# ----------------------------------------------------------------------
OUTCOME_SIGMA = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="FOUND: the default 'outcome' sigma moves with the outcome's "
           "origin, its units and the (D, Z) labels; ROADMAP item 4 "
           "replaces it")
# fixed regions on gap.csv, for the fixed-region properties
REGION1 = [(1.0, 4.0)]
REGION0 = [(-np.inf, 0.5), (3.0, np.inf)]


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """The benchmark's pool-seed-1 CSVs, read back as (y, d, z)."""
    out = tmp_path_factory.mktemp("pool1")
    gen_inputs().write_cli_inputs(out, 1)
    samples = {}
    for name in ("sec33", "gap"):
        s = load_sample_csv(out / f"{name}.csv")
        samples[name] = s.y, s.d, s.z
    return out, samples


def report(pool, name, y, d, z, *argv):
    """The results of `late ARGV` on (y, d, z) written next to the pool."""
    path = write_csv(pool[0] / f"{name}-variant.csv", y, d, z)
    code, out = cli("late", *argv, "--input", path)
    assert code == 0
    return out["results"]


@pytest.mark.filterwarnings("error")
class TestOutcomeSigmaDefect:
    """Today, on sec33.csv, `late point`'s sigma is 21.6555 at y, 808.348
    at y + 10 and 56839.7 at y + 100, around the same estimate
    1.757436628765: the CI goes from [1.333, 2.182] to [-1112.3, 1115.8].
    On gap.csv it is 7.9614 at y and 22.4605 at y + 10, and 7.9395 after
    the label swap, which moves the union CI [2.4832, 3.3996] to
    [-3.4168, -2.5155] rather than to its negation."""

    @OUTCOME_SIGMA
    @pytest.mark.parametrize("name, command, c", [
        ("sec33", "point", 10.0), ("sec33", "point", 100.0),
        ("gap", "point", 10.0), ("sec33", "bounds", 10.0)])
    def test_sigma_ignores_the_origin(self, pool, name, command, c):
        y, d, z = pool[1][name]
        base = report(pool, name, y, d, z, command)
        moved = report(pool, name, y + c, d, z, command)
        if command == "bounds":  # sec33.csv lands in the point regime
            assert base["bounds"]["regime"] == "point"
            base, moved = base["bounds"], moved["bounds"]
            base["sigma"], moved["sigma"] = (base["sigma_lower"],
                                             moved["sigma_lower"])
        assert close(moved["sigma"], base["sigma"])

    @OUTCOME_SIGMA
    def test_sigma_scales_with_the_units(self, pool):
        y, d, z = pool[1]["gap"]

        def sigma(a):
            res = report(pool, "gap", a * y, d, z, "point",
                         "--threshold-scale=relative", "--b=0.1",
                         f"--h={0.4 * a!r}", f"--band={-a!r},{5 * a!r}")
            return res["sigma"]

        assert close(sigma(8.0), 8.0 * sigma(1.0))

    @OUTCOME_SIGMA
    def test_sigma_survives_the_label_swap(self, pool):
        y, d, z = pool[1]["gap"]
        base = report(pool, "gap", y, d, z, "point")
        swap = report(pool, "gap", y, 1 - d, 1 - z, "point")
        assert close(swap["sigma"], base["sigma"])

    @OUTCOME_SIGMA
    def test_union_ci_negates_with_the_labels(self, pool):
        y, d, z = pool[1]["gap"]
        base = report(pool, "gap", y, d, z, "point", "--union")
        swap = report(pool, "gap", y, 1 - d, 1 - z, "point", "--union")
        lo, hi = base["union"]["ci"]
        assert close(swap["union"]["ci"], [-hi, -lo])


@pytest.mark.filterwarnings("error")
class TestBoundOriginDefect:
    """On gap.csv with --kappa-scale 0.5 (regime above) the bounds are
    [2.782980, 3.229249] at y, [2.780910, 3.227142] at y + 10 and
    [2.762280, 3.208178] at y + 100.  Each bound's numerator weighs y by a
    mass that sums to the denominator only when the mass collected up to
    the threshold, g(t), equals the gap; the scan's discrete g(t) misses it
    by up to one observation's weight, so y + c moves the bound by
    c (|delta| - g(t)) / max(mass1, mass0), up to a sign."""

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="FOUND: a bound moves with the outcome's origin, by c times "
               "the gap the threshold's collected mass misses, over the "
               "larger complier mass")
    @pytest.mark.parametrize("c", [10.0, 100.0])
    def test_bounds_ignore_the_origin(self, pool, c):
        y, d, z = pool[1]["gap"]
        base, moved = (report(pool, "gap", y + shift, d, z, "bounds",
                              "--kappa-scale=0.5")["bounds"]
                       for shift in (0.0, c))
        assert base["regime"] == "above"
        assert close([moved["lower"], moved["upper"]],
                     [base["lower"], base["upper"]])


def fixed_regions(pool, a=1.0, c=0.0, swap=False):
    """gap.csv with y -> a y + c, and the fixed regions moved with it:
    (sample, set1, set0), the regions exchanged by the label swap."""
    y, d, z = pool[1]["gap"]
    set1, set0 = (IntervalUnion([(a * lo + c, a * hi + c) for lo, hi in r])
                  for r in (REGION1, REGION0))
    if swap:
        return Sample(y=a * y + c, d=1 - d, z=1 - z), set0, set1
    return Sample(y=a * y + c, d=d, z=z), set1, set0


MOVES = [{"a": 8.0}, {"a": 10.0}, {"c": -100.0}, {"c": 10.0}, {"c": 100.0},
         {"swap": True}]


@pytest.mark.filterwarnings("error")
class TestFixedRegionSigma:
    """On fixed regions, [1, 4] for d = 1 and (-inf, 0.5] u [3, inf) for
    d = 0, the sigma over a should not move when y becomes a y + c or the
    labels swap.  The default sigma / a is 3.916, 38.88 and 49.36 at
    a = 1, 8 and 10; the ``"gradient"`` form is 3.41277061718507 at every a,
    shift and swap, within 1.2e-12 relative (the worst at c = -100)."""

    @OUTCOME_SIGMA
    @pytest.mark.parametrize("move", MOVES, ids=str)
    def test_estimate_sigma(self, pool, move):
        want = estimate_late(*fixed_regions(pool)).sigma
        got = estimate_late(*fixed_regions(pool, **move)).sigma
        assert close(got / move.get("a", 1.0), want)

    @pytest.mark.parametrize("move", MOVES, ids=str)
    def test_gradient_sigma(self, pool, move):
        want = late_variance(*fixed_regions(pool), method="gradient")[0]
        got = late_variance(*fixed_regions(pool, **move),
                            method="gradient")[0]
        assert close(got / move.get("a", 1.0), want)
        assert close(want, 3.41277061718507)
