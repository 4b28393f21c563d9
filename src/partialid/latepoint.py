"""Point-identified local average treatment effect under the relaxed
monotonicity extensions: diagnostics for the testable density implication,
trimmed-set estimation, the two-ratio point estimator, its plug-in
asymptotic variance, and confidence intervals (single tail condition or the
conservative union over all sixteen tail conditions)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import ConfigError, WeakIdentificationError
from .datamodel import Sample
from .density import DensityEstimate
from .sets import IntervalUnion, superlevel_set

#: identification floor for estimated complier masses
DEFAULT_MIN_MASS = 1e-4


@dataclass(frozen=True)
class TailSpec:
    """Assumed sign of the density differences outside the trimming band.

    Each flag states whether the corresponding tail belongs to the outcome
    region: ``upper1`` is Y_1 on [M_u, inf), ``lower1`` is Y_1 on
    (-inf, M_l], and similarly for d=0.  All sixteen combinations are valid.
    """

    upper1: bool = False
    lower1: bool = False
    upper0: bool = False
    lower0: bool = False

    @classmethod
    def all_specs(cls):
        return [cls(*flags) for flags in itertools.product((False, True), repeat=4)]

    @classmethod
    def sec33(cls):
        """Tails used by the built-in coverage design: d=1 tails empty,
        d=0 takes both tails."""
        return cls(upper1=False, lower1=False, upper0=True, lower0=True)

    def tail_set(self, d, band):
        m_l, m_u = band
        pieces = []
        if (self.upper1 if d == 1 else self.upper0):
            pieces.append((m_u, np.inf))
        if (self.lower1 if d == 1 else self.lower0):
            pieces.append((-np.inf, m_l))
        return IntervalUnion(pieces)

    def to_jsonable(self):
        return {"upper1": self.upper1, "lower1": self.lower1,
                "upper0": self.upper0, "lower0": self.lower0}

    @classmethod
    def from_string(cls, text):
        """Parse e.g. ``u1,l0`` (flags present = tail included)."""
        flags = {"u1": False, "l1": False, "u0": False, "l0": False}
        text = text.strip()
        if text and text != "none":
            for token in text.split(","):
                token = token.strip().lower()
                if token not in flags:
                    raise ConfigError(f"unknown tail token {token!r}; use u1,l1,u0,l0 or 'none'")
                flags[token] = True
        return cls(upper1=flags["u1"], lower1=flags["l1"],
                   upper0=flags["u0"], lower0=flags["l0"])


@dataclass(frozen=True)
class TrimmedSet:
    """Estimated outcome region for one treatment arm: the super-level set
    of the density difference inside the band, unioned with the assumed
    tails."""

    region: IntervalUnion
    b: float

    def contains(self, y):
        return self.region.contains(y)


def check_iam_implication(est: DensityEstimate, b_n=0.0):
    """Diagnostic for the density form of the testable implication.

    Passes iff both density differences are everywhere >= -b_n on the grid.
    Violation masses integrate the negative parts over the grid.
    """
    neg1 = np.maximum(-est.f1, 0.0)
    neg0 = np.maximum(-est.f0, 0.0)
    return {
        "passes": bool(est.f1.min() >= -b_n and est.f0.min() >= -b_n),
        "violation_mass_1": float(np.trapezoid(neg1, est.grid)),
        "violation_mass_0": float(np.trapezoid(neg0, est.grid)),
    }


def estimate_trimmed_sets(est: DensityEstimate, tails: TailSpec, b_n, band,
                          threshold_scale="absolute"):
    """Extract the trimmed outcome regions for d=1 and d=0.

    With ``threshold_scale="absolute"`` the level applied to each signed
    density difference is ``b_n`` itself.  With ``"relative"`` the level for
    treatment state d is ``b_n`` times the peak of the estimated difference
    for that state, which makes the trimming fraction comparable across
    designs whose density scales differ.
    """
    if b_n <= 0:
        raise ConfigError("trimming level b_n must be positive")
    if threshold_scale not in ("absolute", "relative"):
        raise ConfigError(
            f"threshold_scale must be 'absolute' or 'relative', got {threshold_scale!r}")
    m_l, m_u = band
    if threshold_scale == "relative":
        lev1 = b_n * float(np.max(est.f1))
        lev0 = b_n * float(np.max(est.f0))
        if lev1 <= 0 or lev0 <= 0:
            raise WeakIdentificationError(
                "estimated density difference is nowhere positive",
                mass=float(min(np.max(est.f1), np.max(est.f0))))
    else:
        lev1 = lev0 = float(b_n)
    core1 = superlevel_set(est.grid, est.f1, lev1, m_l, m_u)
    core0 = superlevel_set(est.grid, est.f0, lev0, m_l, m_u)
    set1 = TrimmedSet(core1.union(tails.tail_set(1, band)), b=lev1)
    set0 = TrimmedSet(core0.union(tails.tail_set(0, band)), b=lev0)
    return set1, set0


@dataclass(frozen=True)
class LateEstimate:
    """Point estimate with the two estimated complier masses, the plug-in
    standard error (if computed), and the confidence interval."""

    point: float
    mass1: float  # P(Y_1, 1) - Q(Y_1, 1)
    mass0: float  # Q(Y_0, 0) - P(Y_0, 0)
    n: int
    sigma: Optional[float] = None
    ci: Optional[tuple] = None
    alpha: Optional[float] = None
    tails: Optional[TailSpec] = None

    def to_jsonable(self):
        out = {
            "estimate": self.point,
            "complier_mass_d1": self.mass1,
            "complier_mass_d0": self.mass0,
            "n": self.n,
        }
        if self.sigma is not None:
            out["sigma"] = self.sigma
        if self.ci is not None:
            out["ci"] = [self.ci[0], self.ci[1]]
            out["alpha"] = self.alpha
        if self.tails is not None:
            out["tails"] = self.tails.to_jsonable()
        return out


class _Columns:
    """Per-observation columns of one fit (sample, set1, set0), shared by
    every estimator that reads it: the outcome, the Z=1 indicator, the two
    arm frequencies, the four (D, Z) cell indicators and each side's region
    membership.

    Side d's own arm is Z=d.  Each side-d column is a sum over the two arms
    of a raw part divided by that arm's frequency; ``mass_parts`` and
    ``min_pair_parts`` give the raw parts, ``column`` the column and
    ``arm_slope`` its derivative in Pr(Z=1).
    """

    def __init__(self, sample: Sample, set1: TrimmedSet, set0: TrimmedSet):
        self.sample = sample
        self.y = sample.y
        self.z1 = (sample.z == 1).astype(float)
        m1 = float(np.mean(self.z1))
        self.m = (1.0 - m1, m1)  # indexed by z
        self.cell = {(d, z): ((sample.d == d) & (sample.z == z)).astype(float)
                     for d in (0, 1) for z in (0, 1)}
        self.sets = (set0, set1)
        self.inside = (set0.contains(self.y), set1.contains(self.y))
        self.mass = [self.column(self.mass_parts(d)) for d in (0, 1)]

    def mass_parts(self, d):
        """Side d's contrast weight inside its region: the own-arm cell
        minus the opposite-arm cell.  Its column ``mass[d]`` has the
        estimated complier mass as mean."""
        inset = self.inside[d]
        return {d: self.cell[d, d] * inset,
                1 - d: -(self.cell[d, 1 - d] * inset)}

    def min_pair_parts(self, d):
        """Side d's min-pair weight, estimating the pointwise minimum of the
        two sub-densities: inside the region the own arm's is the larger,
        so the opposite arm gives the minimum there and the own arm
        outside."""
        inset = self.inside[d]
        return {d: self.cell[d, d] * ~inset,
                1 - d: self.cell[d, 1 - d] * inset}

    def column(self, parts):
        return parts[0] / self.m[0] + parts[1] / self.m[1]

    def arm_means(self, parts, v=1.0):
        """Means of v times each raw part: {z: mean}."""
        return {z: float(np.mean(v * parts[z])) for z in (0, 1)}

    def arm_slope(self, parts, v=1.0):
        """Derivative of mean(v * column(parts)) in Pr(Z=1), with
        Pr(Z=0) = 1 - Pr(Z=1)."""
        raw = self.arm_means(parts, v)
        return -raw[1] / self.m[1] ** 2 + raw[0] / self.m[0] ** 2


def estimate_late(sample: Sample, set1: TrimmedSet, set0: TrimmedSet,
                  min_mass=DEFAULT_MIN_MASS) -> LateEstimate:
    """Two-ratio point estimator over the trimmed regions.

    Numerators are sample means of Y times the instrument-arm contrast of
    treatment-cell indicators inside the region; denominators are the same
    means without Y (the estimated complier masses).
    """
    return _estimate_late(_Columns(sample, set1, set0), min_mass)


def _estimate_late(cols, min_mass):
    num0, num1 = (float(np.mean(cols.y * c)) for c in cols.mass)
    den0, den1 = (float(np.mean(c)) for c in cols.mass)
    for label, mass in (("d=1", den1), ("d=0", den0)):
        if mass < min_mass:
            raise WeakIdentificationError(
                f"estimated complier mass for {label} is {mass:.3g} < {min_mass:g}",
                mass=mass,
            )
    point = num1 / den1 - num0 / den0
    return LateEstimate(point=point, mass1=den1, mass0=den0, n=cols.sample.n)


def late_variance(sample: Sample, set1: TrimmedSet, set0: TrimmedSet,
                  min_mass=DEFAULT_MIN_MASS, method="outcome"):
    """Plug-in delta-method standard deviation of sqrt(n) times the
    estimator, with its component matrices.

    The estimator is pi1/pi3 - pi2/pi4 where each pi is a ratio-weighted
    sample mean depending on the two arm frequencies.  Sigma is the sample
    covariance of the six-dimensional influence vector (the two arm
    indicators and the four core means); D rescales the arm coordinates;
    Gamma stacks the 2x4 block of arm derivatives over a 4x4 identity;
    Pi is the gradient of the two-ratio map.

    ``method`` selects the arm-derivative block.  ``"outcome"`` (default)
    fills all four columns with outcome-weighted cross moments; in
    simulations it is mildly conservative for the mass coordinates.
    ``"gradient"`` uses the exact analytic derivative of each coordinate
    with respect to the instrument-arm frequency, whose indicator-only
    moments enter the mass columns; it tracks the empirical sampling
    variance most closely.

    Returns ``(sigma, components)`` with components a dict of Pi, Gamma, D,
    Sigma and the pi vector.
    """
    return _late_variance(_Columns(sample, set1, set0), min_mass, method)


def _late_variance(cols, min_mass, method):
    if method not in ("outcome", "gradient"):
        raise ConfigError(
            f"variance method must be 'outcome' or 'gradient', got {method!r}")
    y = cols.y
    # core means: Y-weighted contrast d=1, d=0, complier mass d=1, d=0
    cores = [y * cols.mass[1], y * cols.mass[0], cols.mass[1], cols.mass[0]]
    pi = np.array([c.mean() for c in cores])
    if pi[2] < min_mass or pi[3] < min_mass:
        raise WeakIdentificationError(
            "complier mass below identification floor in variance step",
            mass=float(min(pi[2], pi[3])),
        )
    V = np.column_stack([cols.z1, 1.0 - cols.z1] + cores)
    Sigma = np.cov(V, rowvar=False, ddof=0)

    D = np.diag([-1.0 / cols.m[1] ** 2, -1.0 / cols.m[0] ** 2,
                 1.0, 1.0, 1.0, 1.0])

    if method == "outcome":
        # outcome-weighted cross moments in every column: the own-arm
        # moment in the Z=1 row, the opposite-arm cell inside the other
        # side's region in the Z=0 row
        own = [cols.arm_means(cols.mass_parts(d), y)[d] for d in (1, 0)]
        cross = [float(np.mean(y * cols.cell[d, 1 - d] * cols.inside[1 - d]))
                 for d in (1, 0)]
        gamma_star = np.array([own + own, cross + cross])
    else:
        # arm-derivative block: column j gives the moments whose rescaled
        # arm deviations reproduce d pi_j / d (arm frequency)
        raw = [cols.arm_means(cols.mass_parts(d), v)
               for v in (y, 1.0) for d in (1, 0)]
        gamma_star = np.array([[r[1] for r in raw], [r[0] for r in raw]])
    Gamma = np.vstack([gamma_star, np.eye(4)])

    Pi = np.array([1.0 / pi[2], -1.0 / pi[3],
                   -pi[0] / pi[2] ** 2, pi[1] / pi[3] ** 2])

    var = float(Pi @ Gamma.T @ D.T @ Sigma @ D @ Gamma @ Pi)
    sigma = float(np.sqrt(max(var, 0.0)))
    components = {"Pi": Pi, "Gamma": Gamma, "D": D, "Sigma": Sigma, "pi": pi}
    return sigma, components


def known_tail_estimate(sample: Sample, est: DensityEstimate, tails: TailSpec,
                        b_n, band, alpha=0.05,
                        min_mass=DEFAULT_MIN_MASS,
                        threshold_scale="absolute") -> LateEstimate:
    """Point estimate plus the centred normal confidence interval for one
    fixed tail condition."""
    set1, set0 = estimate_trimmed_sets(est, tails, b_n, band,
                                       threshold_scale=threshold_scale)
    cols = _Columns(sample, set1, set0)
    base = _estimate_late(cols, min_mass)
    sigma, _ = _late_variance(cols, min_mass, "outcome")
    zq = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = zq * sigma / np.sqrt(sample.n)
    return LateEstimate(
        point=base.point, mass1=base.mass1, mass0=base.mass0, n=base.n,
        sigma=sigma, ci=(base.point - half, base.point + half), alpha=alpha,
        tails=tails,
    )


def conservative_union_ci(sample: Sample, est: DensityEstimate, b_n, band,
                          alpha=0.05, min_mass=DEFAULT_MIN_MASS,
                          threshold_scale="absolute"):
    """Convex hull of the sixteen known-tail confidence intervals.

    Tail conditions that trigger weak-identification errors are skipped;
    if all sixteen fail, the weak-identification error is re-raised.
    """
    members = []
    skipped = 0
    last_error = None
    for tails in TailSpec.all_specs():
        try:
            members.append(known_tail_estimate(
                sample, est, tails, b_n, band, alpha=alpha, min_mass=min_mass,
                threshold_scale=threshold_scale))
        except WeakIdentificationError as exc:
            skipped += 1
            last_error = exc
    if not members:
        raise WeakIdentificationError(
            "all 16 tail conditions are infeasible", mass=last_error.mass)
    lo = min(m.ci[0] for m in members)
    hi = max(m.ci[1] for m in members)
    return {
        "ci": (lo, hi),
        "feasible": len(members),
        "skipped": skipped,
        "members": members,
    }


def wald_estimate(sample: Sample):
    """Classical instrument ratio (difference of arm means of Y over the
    difference of arm means of D), for comparison columns in reports."""
    z1 = sample.z == 1
    dy = float(sample.y[z1].mean() - sample.y[~z1].mean())
    dd = float(sample.d[z1].mean() - sample.d[~z1].mean())
    if abs(dd) < 1e-12:
        raise WeakIdentificationError("no first stage: arm treatment rates equal", mass=dd)
    return dy / dd
