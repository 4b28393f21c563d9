"""Monte Carlo designs and coverage drivers.

A design specifies the instrument-arm probability and, for every (arm,
treatment) cell, a Gaussian-mixture half-density: the cell's probability
mass times a normalized mixture for Y.  The built-in design draws, with
Pr(Z=1)=0.6, treatment as a fair coin in both arms, Y ~ N(3, 1) in the
encouraged arm and Y ~ N(2.5, variance 3), sd sqrt(3), in the other.  Its
identified contrast of trimmed complier means anchors the coverage
experiments.  It has a closed form in normal masses and first moments on
the interval between the two sign changes of p(y,1) - q(y,1): Pr(Z=1), the
cell masses and the band all drop out, since the untreated region takes
both tails.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import integrate, optimize

from .errors import ConfigError, PartialIdError, WeakIdentificationError
from .datamodel import RunConfig, Sample, build_empirical
from .density import Kernel, default_grid, estimate_density_diff
from .latepoint import (TailSpec, conservative_union_ci,
                        known_tail_estimate)
from .sets import IntervalUnion

_MASS_TOL = 1e-6


@dataclass(frozen=True)
class HalfDensity:
    """A cell mass times a normalized Gaussian mixture for Y."""

    mass: float
    means: tuple
    sds: tuple
    weights: tuple

    def __post_init__(self):
        if not (0.0 <= self.mass <= 1.0):
            raise ConfigError("cell mass must lie in [0, 1]")
        k = len(self.means)
        if len(self.sds) != k or len(self.weights) != k or k == 0:
            raise ConfigError("means, sds, weights must have equal length >= 1")
        if any(s <= 0 for s in self.sds):
            raise ConfigError("mixture standard deviations must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9 or any(w < 0 for w in self.weights):
            raise ConfigError("mixture weights must be a probability vector")

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for w, mu, sd in zip(self.weights, self.means, self.sds):
            out += w * np.exp(-0.5 * ((y - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        return self.mass * out

    def draw(self, rng, size):
        comp = rng.choice(len(self.weights), size=size, p=np.asarray(self.weights))
        mu = np.asarray(self.means)[comp]
        sd = np.asarray(self.sds)[comp]
        return rng.normal(mu, sd)


@dataclass(frozen=True)
class SimDesign:
    """Analytic data-generating process for (Y, D, Z).

    ``p`` maps treatment d to the half-density of (Y, D=d) given Z=1, and
    ``q`` does the same given Z=0.  In each arm the cell masses must sum to
    one, which is re-verified by quadrature.
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
            total = 0.0
            for hd in cells.values():
                val, _ = integrate.quad(lambda y: float(hd.pdf(y)),
                                        -np.inf, np.inf)
                total += val
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
        arm1 = {d: HalfDensity(0.5, (3.0,), (1.0,), (1.0,)) for d in (0, 1)}
        arm0 = {d: HalfDensity(0.5, (2.5,), (math.sqrt(3.0),), (1.0,)) for d in (0, 1)}
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
    """Draw n observations of (Y, D, Z) from the design."""
    if n < 2:
        raise ConfigError("n must be at least 2")
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < design.pr_z1).astype(np.int8)
    d = np.empty(n, dtype=np.int8)
    y = np.empty(n, dtype=float)
    for zval, cells in ((1, design.p), (0, design.q)):
        idx = np.flatnonzero(z == zval)
        if idx.size == 0:
            continue
        mass1 = cells[1].mass
        take1 = rng.random(idx.size) < mass1
        d[idx] = take1.astype(np.int8)
        for dval in (0, 1):
            sub = idx[d[idx] == dval]
            if sub.size:
                y[sub] = cells[dval].draw(rng, sub.size)
    return Sample(y=y, d=d, z=z)


def _population_set(design: SimDesign, d) -> IntervalUnion:
    """Population region where the d-side signed density difference is
    positive inside the band, joined with the design's tails."""
    lo, hi = design.band

    if d == 1:
        diff = lambda y: float(design.p[1].pdf(y) - design.q[1].pdf(y))
    else:
        diff = lambda y: float(design.q[0].pdf(y) - design.p[0].pdf(y))

    xs = np.linspace(lo, hi, 2049)
    vals = np.array([diff(x) for x in xs])
    intervals = []
    start = None
    prev_root = lo
    sign = vals[0] > 0
    if sign:
        start = lo
    for k in range(len(xs) - 1):
        if (vals[k] > 0) != (vals[k + 1] > 0):
            root = optimize.brentq(diff, xs[k], xs[k + 1], xtol=1e-12)
            if vals[k] > 0:
                intervals.append((start if start is not None else prev_root, root))
                start = None
            else:
                start = root
            prev_root = root
    if start is not None:
        intervals.append((start, hi))
    region = IntervalUnion(intervals)
    tails = design.tails
    upper = tails.upper1 if d == 1 else tails.upper0
    lower = tails.lower1 if d == 1 else tails.lower0
    if upper:
        region = region.union(IntervalUnion([(hi, np.inf)]))
    if lower:
        region = region.union(IntervalUnion([(-np.inf, lo)]))
    return region


def true_identified_late(design: SimDesign):
    """Quadrature value of the identified trimmed-complier-mean contrast."""
    def piece(d):
        region = _population_set(design, d)
        if d == 1:
            diff = lambda y: float(design.p[1].pdf(y) - design.q[1].pdf(y))
        else:
            diff = lambda y: float(design.q[0].pdf(y) - design.p[0].pdf(y))
        num = den = 0.0
        for a, b in region.intervals:
            v, _ = integrate.quad(lambda y: y * diff(y), a, b, limit=200)
            w, _ = integrate.quad(diff, a, b, limit=200)
            num += v
            den += w
        return num, den

    num1, den1 = piece(1)
    num0, den0 = piece(0)
    if min(den1, den0) <= 1e-4:
        raise WeakIdentificationError(
            f"population complier masses {den1:.3g}, {den0:.3g} too small",
            mass=min(den1, den0))
    return num1 / den1 - num0 / den0


def _one_replication(design, n, cfg: RunConfig, estimator, truth, seed):
    sample = draw_sample(design, n, seed)
    emp = build_empirical(sample)
    grid = default_grid(cfg.band, cfg.h)
    est = estimate_density_diff(emp, sample, Kernel(), cfg.h, grid)
    record = {"error": None, "estimate": None, "sigma": None,
              "ci": None, "covered": None}
    try:
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
    except PartialIdError as exc:
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

    def to_jsonable(self, include_records=False):
        out = {
            "coverage": self.coverage,
            "truth": self.truth,
            "replications": self.m,
            "n": self.n,
            "errors": self.n_errors,
            "estimator": self.estimator,
        }
        if include_records:
            out["records"] = list(self.records)
        return out


def run_coverage(design: SimDesign, estimator, n, m, cfg: RunConfig,
                 seed=0, threads: Optional[int] = None) -> CoverageResult:
    """Coverage rate of the chosen interval over m independent samples.

    ``estimator`` is 'known' (known-tail plug-in interval) or 'union'
    (convex hull over all tail configurations).  Replications run on a
    thread pool with per-replication child seeds; failed replications are
    recorded and counted, not dropped, and do not count as covered.
    """
    if estimator not in ("known", "union"):
        raise ConfigError("estimator must be 'known' or 'union'")
    if m < 2:
        raise ConfigError("at least 2 replications are required")
    truth = true_identified_late(design)
    child_seeds = np.random.SeedSequence(seed).spawn(m)

    def work(k):
        return _one_replication(design, n, cfg, estimator, truth,
                                child_seeds[k])

    if threads is not None and threads <= 1:
        records = [work(k) for k in range(m)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(work, range(m)))

    n_err = sum(1 for r in records if r["error"] is not None)
    n_cov = sum(1 for r in records if r["covered"])
    return CoverageResult(
        coverage=n_cov / m, truth=truth, m=m, n=n, n_errors=n_err,
        records=tuple(records), estimator=estimator,
    )
