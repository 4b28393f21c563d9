"""Monte Carlo designs and coverage drivers.

A design specifies the instrument-arm probability and, for every (arm,
treatment) cell, a normal half-density: the cell's probability mass times
a normal density for Y.  The built-in design draws, with Pr(Z=1)=0.6,
treatment as a fair coin in both arms, Y ~ N(3, 1) in the encouraged arm
and Y ~ N(2.5, variance 3), sd sqrt(3), in the other.  Its identified
contrast of trimmed complier means anchors the coverage experiments.  The
truth is exact: two normal half-densities differ in sign where their log
ratio, a quadratic in y, does, and normal masses and first moments are
summed over the resulting regions (Johnson, Kotz & Balakrishnan,
Continuous Univariate Distributions, vol. 1, ch. 13).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, WeakIdentificationError
from .datamodel import RunConfig, Sample, check_seed
from .density import default_grid, estimate_density_diff
from .latepoint import (MIN_MASS, TailSpec, conservative_union_ci,
                        known_tail_estimate)
from .sets import IntervalUnion

_MASS_TOL = 1e-6
# Below this sample size a replication is a few ms of small numpy calls
# that hand the interpreter lock back and forth, so a second thread slows
# it; from here on two threads won 39 of 40 paired runs of the known-tail
# estimator and 37 of 40 of the union on a 2-core machine (README).
_POOL_MIN_N = 20_000


def _cdf(x):
    """Pr(N(0, 1) <= x); erfc keeps the lower tail exact."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class HalfDensity:
    """A cell mass times the normal density N(mean, sd^2) for Y."""

    mass: float
    mean: float
    sd: float

    def __post_init__(self):
        if not (0.0 <= self.mass <= 1.0):
            raise ConfigError("cell mass must lie in [0, 1]")
        if not (0.0 < self.sd < math.inf):
            raise ConfigError("normal sd must be positive and finite")

    def draw(self, rng, size):
        # the old mixture's component choice spent these: keep the stream
        rng.random(size)
        return rng.normal(self.mean, self.sd, size)

    def mass_moment(self, a, b):
        """Mass and first moment on (a, b); either end may be infinite."""
        lo, hi = (a - self.mean) / self.sd, (b - self.mean) / self.sd
        prob = _cdf(hi) - _cdf(lo)
        dens = (math.exp(-0.5 * lo * lo) - math.exp(-0.5 * hi * hi)) / math.sqrt(2 * math.pi)
        return self.mass * prob, self.mass * (self.mean * prob + self.sd * dens)


@dataclass(frozen=True)
class SimDesign:
    """Analytic data-generating process for (Y, D, Z).

    ``p`` maps treatment d to the half-density of (Y, D=d) given Z=1, and
    ``q`` does the same given Z=0.  In each arm the cell masses must sum to
    one.
    """

    pr_z1: float
    p: dict
    q: dict
    band: tuple
    tails: TailSpec

    def __post_init__(self):
        if not (0.0 < self.pr_z1 < 1.0):
            raise ConfigError("Pr(Z=1) must lie strictly inside (0, 1)")
        for name, cells in (("p", self.p), ("q", self.q)):
            if set(cells) != {0, 1}:
                raise ConfigError(f"{name} must map both treatment values")
            total = sum(hd.mass for hd in cells.values())
            if abs(total - 1.0) > _MASS_TOL:
                raise ConfigError(
                    f"{name} half-densities integrate to {total:.8f}, not 1")
        if self.band[0] >= self.band[1]:
            raise ConfigError("band must be an increasing pair")

    @classmethod
    def sec33(cls):
        """The built-in coverage design: Pr(Z=1)=0.6, a fair treatment coin
        in both arms, Y ~ N(3, 1) given Z=1 and Y ~ N(2.5, variance 3), sd
        sqrt(3), given Z=0, empty tails on the treated side and full tails
        on the untreated side.

        Pr(Z=1), the common cell mass of 0.5 and the band drop out of the
        identified contrast: the treated region is the interval between the
        roots of 2y^2 - 13y + 20.75 - 3 ln 3 = 0 and the untreated region is
        its complement."""
        arm1 = {d: HalfDensity(0.5, 3.0, 1.0) for d in (0, 1)}
        arm0 = {d: HalfDensity(0.5, 2.5, math.sqrt(3.0)) for d in (0, 1)}
        return cls(pr_z1=0.6, p=arm1, q=arm0, band=(-2.5, 7.0),
                   tails=TailSpec.sec33())

    def swapped(self):
        """Design with the treatment labels exchanged.

        Relabelling D also reverses which arm encourages treatment, so the
        instrument arms swap with it; the identified contrast of the
        swapped design is minus that of the original.
        """
        return replace(self,
                       pr_z1=1.0 - self.pr_z1,
                       p={1 - d: hd for d, hd in self.q.items()},
                       q={1 - d: hd for d, hd in self.p.items()},
                       tails=TailSpec(upper1=self.tails.upper0,
                                      lower1=self.tails.lower0,
                                      upper0=self.tails.upper1,
                                      lower0=self.tails.lower1))


def draw_sample(design: SimDesign, n, seed) -> Sample:
    """Draw n observations of (Y, D, Z) from the design; ``seed`` is a
    non-negative integer or a ``numpy.random.SeedSequence``."""
    if n < 2:
        raise ConfigError("n must be at least 2")
    if not isinstance(seed, np.random.SeedSequence):
        check_seed(seed)
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < design.pr_z1).astype(np.int8)
    d = np.empty(n, dtype=np.int8)
    y = np.empty(n, dtype=float)
    for zval, cells in ((1, design.p), (0, design.q)):
        idx = np.flatnonzero(z == zval)
        if idx.size == 0:
            continue
        take1 = rng.random(idx.size) < cells[1].mass
        d[idx] = take1
        for dval, sub in ((0, idx[~take1]), (1, idx[take1])):
            if sub.size:
                y[sub] = cells[dval].draw(rng, sub.size)
    return Sample(y=y, d=d, z=z)


def _signed_pair(design: SimDesign, d):
    """The d-side signed density difference, positive on the complier
    region, as (plus, minus): p(y,1) - q(y,1) for d=1 and q(y,0) - p(y,0)
    for d=0."""
    if d == 1:
        return design.p[1], design.q[1]
    return design.q[0], design.p[0]


def _positive_intervals(plus: HalfDensity, minus: HalfDensity):
    """Open intervals where plus's half-density exceeds minus's.  With both
    masses positive that is where log plus(y) - log minus(y) =
    qa y^2 + qb y + qc is, linear for equal sds and 0 for identical cells."""
    whole = [(-math.inf, math.inf)]
    if 0.0 in (plus.mass, minus.mass):
        return whole if plus.mass > 0 else []
    vp, vm = plus.sd ** 2, minus.sd ** 2
    qa, qb = 0.5 / vm - 0.5 / vp, plus.mean / vp - minus.mean / vm
    # a log per mass: their product with an sd can underflow to 0
    qc = (math.log(plus.mass) - math.log(minus.mass)
          + math.log(minus.sd / plus.sd)
          + 0.5 * minus.mean ** 2 / vm - 0.5 * plus.mean ** 2 / vp)
    if qa == 0.0 and qb == 0.0:
        return whole if qc > 0 else []
    if qa == 0.0:
        return [(-qc / qb, math.inf)] if qb > 0 else [(-math.inf, -qc / qb)]
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        return whole if qa > 0 else []
    # the roots are s / qa and qc / s, free of cancellation
    s = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    r1, r2 = sorted((s / qa, qc / s))
    return [(-math.inf, r1), (r2, math.inf)] if qa > 0 else [(r1, r2)]


def _population_set(design: SimDesign, d) -> IntervalUnion:
    """Population region where the d-side signed density difference is
    positive inside the band, joined with the design's tails."""
    region = IntervalUnion(_positive_intervals(*_signed_pair(design, d)))
    return region.intersect(IntervalUnion([design.band])).union(
        design.tails.tail_set(d, design.band))


def true_identified_late(design: SimDesign):
    """Exact identified trimmed-complier-mean contrast: normal masses and
    first moments summed over each side's population region.  A complier
    mass below the estimators' floor ``MIN_MASS`` is weak identification."""
    def piece(d):
        plus, minus = _signed_pair(design, d)
        num = den = 0.0
        for a, b in _population_set(design, d).intervals:
            mass_p, mom_p = plus.mass_moment(a, b)
            mass_m, mom_m = minus.mass_moment(a, b)
            num += mom_p - mom_m
            den += mass_p - mass_m
        return num, den

    num1, den1 = piece(1)
    num0, den0 = piece(0)
    if min(den1, den0) < MIN_MASS:
        raise WeakIdentificationError(
            f"population complier masses {den1:.3g}, {den0:.3g} too small",
            mass=min(den1, den0))
    return num1 / den1 - num0 / den0


def _one_replication(design, n, cfg: RunConfig, estimator, truth, grid,
                     seed):
    record = {"error": None, "estimate": None, "sigma": None,
              "ci": None, "covered": None}
    try:
        sample = draw_sample(design, n, seed)
        est = estimate_density_diff(None, sample, None, cfg.h, grid)
        if estimator == "known":
            late = known_tail_estimate(sample, est, cfg.tails, cfg.b,
                                       cfg.band, cfg.alpha,
                                       threshold_scale=cfg.threshold_scale)
            ci = late.ci
            record["estimate"] = late.point
            record["sigma"] = late.sigma
        else:
            res = conservative_union_ci(sample, est, cfg.b, cfg.band,
                                        cfg.alpha,
                                        threshold_scale=cfg.threshold_scale)
            ci = tuple(res["ci"])
        record["ci"] = tuple(ci)
        record["covered"] = bool(ci[0] <= truth <= ci[1])
    except (DataError, WeakIdentificationError) as exc:  # not ConfigError
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    truth: float
    m: int
    n: int
    n_errors: int
    records: tuple
    estimator: str

    def to_jsonable(self):
        return {
            "coverage": self.coverage,
            "truth": self.truth,
            "replications": self.m,
            "n": self.n,
            "errors": self.n_errors,
            "estimator": self.estimator,
        }


def run_coverage(design: SimDesign, estimator, n, m, cfg: RunConfig,
                 seed=0, threads: Optional[int] = None) -> CoverageResult:
    """Coverage rate of the chosen interval over m independent samples.

    ``estimator`` is 'known' (known-tail plug-in interval) or 'union'
    (convex hull over all tail configurations).  Each replication draws
    from its own child seed and reads the one grid built here.  At n below
    ``_POOL_MIN_N`` they run in the calling thread; from there on, on a
    thread pool of ``min(threads, os.cpu_count(), m)`` workers, the only
    clamp of ``threads``: ``None`` means the CPU count, and one worker or
    fewer means no pool.  The records are the same either way.  A
    replication records the ``DataError`` or ``WeakIdentificationError``
    of its draw, counted and never covered; a ``ConfigError`` (``cfg.h``
    too large for the grid or too small for the outcomes' span, n below 2)
    ends the run before any record is returned.
    """
    if estimator not in ("known", "union"):
        raise ConfigError("estimator must be 'known' or 'union'")
    if m < 2:
        raise ConfigError("at least 2 replications are required")
    check_seed(seed)
    truth = true_identified_late(design)
    grid = default_grid(cfg.band, cfg.h)
    child_seeds = np.random.SeedSequence(seed).spawn(m)

    def work(k):
        return _one_replication(design, n, cfg, estimator, truth, grid,
                                child_seeds[k])

    cpus = os.cpu_count() or 1
    workers = min(cpus if threads is None else threads, cpus, m)
    if n < _POOL_MIN_N or workers <= 1:
        records = [work(k) for k in range(m)]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(work, range(m)))

    n_err = sum(1 for r in records if r["error"] is not None)
    n_cov = sum(1 for r in records if r["covered"])
    return CoverageResult(
        coverage=n_cov / m, truth=truth, m=m, n=n, n_errors=n_err,
        records=tuple(records), estimator=estimator,
    )
