"""Interval bounds for the LATE under the fully independent-instrument
extension: the complier-mass gap Delta, the kappa_n regime switch, the
minimal-distance threshold estimators, the three-term bound estimators, and
their plug-in asymptotic variances.

When the estimated complier masses differ beyond kappa_n, mass equal to the
gap is reallocated on the smaller side: the bound numerator keeps the
trimmed-set contrast away from the threshold and tops it up with the
pointwise-minimum sub-density below (lower) or above (upper) the threshold.
The Delta > kappa_n regime is generated from the Delta < -kappa_n code path
by swapping the roles of (D, Z, trimmed set) and flipping which side of the
difference carries the correction.  Each bound and its variance read the
grouped moment table split by the bound's threshold cut; only the threshold
scan over the order statistics runs per observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import ConfigError, WeakIdentificationError
from .datamodel import Sample
from .density import kernel_sum
from .latepoint import MIN_MASS, _Moments, _one_spec
from .sets import IntervalUnion

#: density floor below which the threshold-variance correction is flagged
DENSITY_FLOOR = 1e-6


@dataclass(frozen=True)
class DeltaEstimate:
    """Estimated complier-mass gap and the regime it selects."""

    delta: float
    kappa: float
    regime: str  # 'below' (delta < -kappa), 'point', 'above' (delta > kappa)
    mass1: float
    mass0: float
    near_boundary: bool

    def alternative(self):
        """The estimate in the regime across kappa from its own: 'point' for
        a bound regime, else 'below' or 'above' by the sign of the gap."""
        if self.regime != "point":
            return replace(self, regime="point")
        return replace(self, regime="below" if self.delta < 0 else "above")

    def to_jsonable(self):
        return {
            "delta": self.delta,
            "kappa": self.kappa,
            "regime": self.regime,
            "complier_mass_d1": self.mass1,
            "complier_mass_d0": self.mass0,
            "near_boundary": self.near_boundary,
        }


@dataclass(frozen=True)
class BoundEstimate:
    """Lower/upper bound estimates with thresholds and per-bound errors."""

    lower: float
    upper: float
    regime: str
    n: int
    sigma_lower: float
    sigma_upper: float
    t_lower: Optional[float] = None  # threshold accumulating mass from below
    t_upper: Optional[float] = None  # threshold accumulating mass from above
    flags: tuple = field(default_factory=tuple)

    def ci(self, alpha):
        """Bound-wise normal interval: lower bound minus its margin up to
        upper bound plus its margin."""
        zq = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        lo = self.lower - zq * self.sigma_lower / np.sqrt(self.n)
        hi = self.upper + zq * self.sigma_upper / np.sqrt(self.n)
        return lo, hi

    def to_jsonable(self):
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "regime": self.regime,
            "n": self.n,
            "sigma_lower": self.sigma_lower,
            "sigma_upper": self.sigma_upper,
        }
        for key in ("t_lower", "t_upper"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.flags:
            out["flags"] = list(self.flags)
        return out


def estimate_delta(sample: Sample, set1: IntervalUnion, set0: IntervalUnion,
                   kappa) -> DeltaEstimate:
    """Difference of the two estimated complier masses and its regime."""
    if not (kappa > 0):  # NaN fails too
        raise ConfigError("kappa must be positive")
    tab = _Moments(sample, set1, set0)
    mass1, mass0 = map(float, tab.complier_masses())
    delta = mass1 - mass0
    point = DeltaEstimate(
        delta=delta, kappa=float(kappa), regime="point",
        mass1=mass1, mass0=mass0,
        near_boundary=bool(0.5 * kappa <= abs(delta) <= 2.0 * kappa),
    )
    return point.alternative() if abs(delta) > kappa else point


def _scan_threshold(y, contrib, target):
    """Smallest minimiser of (cumulative(contrib) - target)^2 over the order
    statistics of y (plus the empty cut), in both directions from one sort.

    Direction 'low' accumulates mass over {Y <= t}; 'high' over {Y >= t}.
    Returns {direction: (t, multiplicity_flag, saturated_flag)}.
    """
    order = np.argsort(y, kind="stable")
    ys = y[order]
    cs = contrib[order]
    starts = np.flatnonzero(np.diff(ys, prepend=-np.inf))  # first of each run
    uniq = ys[starts]
    ends = np.append(starts[1:] - 1, ys.size - 1)
    low = np.concatenate(([0.0], np.cumsum(cs)[ends]))  # t = -inf, then each y
    high = np.concatenate((np.cumsum(cs[::-1])[::-1][starts], [0.0]))
    return {"low": _minimiser(low, np.concatenate(([-np.inf], uniq)), target),
            "high": _minimiser(high, np.concatenate((uniq, [np.inf])), target)}


def _minimiser(masses, cands, target):
    """First candidate whose mass is closest to the target, with the flags."""
    crit = (masses - target) ** 2
    best = crit.min()
    hits = np.flatnonzero(np.isclose(crit, best, rtol=0.0, atol=1e-15))
    t = float(cands[hits[0]])
    multiple = hits.size > 1
    saturated = masses.max() < target
    return t, multiple, saturated


def _arm_slope(tab, parts, sums):
    """Derivative in Pr(Z=1), with Pr(Z=0) = 1 - Pr(Z=1), of the mean of
    ``column(parts)`` times y (``sums`` is ``sum_y``) or 1 (``count``)."""
    raw = tab.arm_means(parts, sums)
    return -raw[1] / tab.m[1] ** 2 + raw[0] / tab.m[0] ** 2


def estimate_bounds(sample: Sample, set1: IntervalUnion,
                    set0: IntervalUnion, delta: DeltaEstimate,
                    h) -> BoundEstimate:
    """Bound point estimates and their plug-in standard deviations for the
    resolved regime.

    In the point regime both bounds equal the point estimator.  Otherwise
    the corrected side's complier mean is evaluated with the gap mass
    collected at the low or high end, up to the smallest order statistic
    whose collected mass is nearest the gap (a tie is flagged), and both
    ratios share the larger complier mass as denominator.  ``h`` is the
    fit's bandwidth, which the density level at each threshold reuses.
    """
    flags = []
    if delta.near_boundary:
        flags.append("delta_near_regime_boundary")
    tab = _Moments(sample, set1, set0)
    if delta.regime == "point":
        late = _one_spec(tab)
        return BoundEstimate(
            lower=late.point, upper=late.point, regime="point", n=sample.n,
            sigma_lower=late.sigma, sigma_upper=late.sigma, flags=tuple(flags),
        )

    denom = max(delta.mass1, delta.mass0)
    if denom < MIN_MASS:
        raise WeakIdentificationError(
            f"larger complier mass {denom:.3g} below floor", mass=denom)

    side_d = 1 if delta.regime == "below" else 0
    contrib = tab.column(tab.min_pair_parts(side_d))[tab.code] / tab.n
    scans = _scan_threshold(sample.y, contrib, abs(delta.delta))
    t_lower, mult_lo, sat_lo = scans["low"]
    t_upper, mult_hi, sat_hi = scans["high"]
    if mult_lo or mult_hi:
        flags.append("threshold_minimizer_not_unique")
    if sat_lo or sat_hi:
        flags.append("threshold_saturated")

    # the d=1 complier mean is added, so its low correction gives the lower
    # bound; the d=0 mean is subtracted, so its high correction does
    ts = (t_lower, t_upper) if delta.regime == "below" else (t_upper, t_lower)
    lower, sig_lo, comp_lo = _bound(tab, set1, set0, delta, ts[0], "lower", h)
    upper, sig_hi, comp_hi = _bound(tab, set1, set0, delta, ts[1], "upper", h)
    if comp_lo["unstable"] or comp_hi["unstable"]:
        flags.append("variance_unstable_low_density_at_threshold")

    return BoundEstimate(
        lower=lower, upper=upper, regime=delta.regime, n=sample.n,
        t_lower=t_lower, t_upper=t_upper,
        sigma_lower=sig_lo, sigma_upper=sig_hi, flags=tuple(flags),
    )


def _bound(tab, set1, set0, delta, t, which, h):
    """One bound at the threshold ``t`` ('lower' or 'upper' by ``which``)
    and the plug-in sd of sqrt(n) times it, read from the table split by the
    cut: sigma^2 = Gamma (M1 + M2) Sigma (M1 + M2)' Gamma', with M1 the
    fixed-threshold Jacobian, M2 the threshold-estimation term and Gamma the
    ratio gradient.  Returns ``(L, sigma, components)``: the matrices,
    ``min_density_at_t`` and ``unstable``, set when that density is under
    ``DENSITY_FLOOR`` and the floor scales a nonzero M2 row."""
    side_d = 1 if delta.regime == "below" else 0
    # low-end correction serves the lower bound on the d=1 side but the
    # upper bound on the d=0 side
    direction = "low" if (side_d == 1) == (which == "lower") else "high"

    y = tab.sample.y
    tab = tab.split((y <= t) if direction == "low" else (y >= t))
    corr_parts = {z: w * tab.cut
                  for z, w in tab.min_pair_parts(side_d).items()}
    base_w, corr_w, other_w = (tab.mass[side_d], tab.column(corr_parts),
                               tab.mass[1 - side_d])

    # influence basis: T-cores, denominators, criterion core, arm indicator
    Sigma = tab.cov([
        base_w,       # 0: corrected-side contrast mean (with Y)
        corr_w,       # 1: correction mass (with Y)
        other_w,      # 2: uncorrected-side contrast mean (with Y)
        tab.mass[1],  # 3: complier mass d=1
        tab.mass[0],  # 4: complier mass d=0
        corr_w,       # 5: criterion mass at the threshold
        tab.z1,       # 6: arm frequency
    ], [True, True, True, False, False, False, False])

    # each coordinate plus its arm-frequency slope on the arm coordinate
    e = np.eye(7)
    sy, cnt = tab.sum_y, tab.count
    w_base = e[0] + _arm_slope(tab, tab.mass_parts(side_d), sy) * e[6]
    w_corr_fixed_t = e[1] + _arm_slope(tab, corr_parts, sy) * e[6]
    w_other = e[2] + _arm_slope(tab, tab.mass_parts(1 - side_d), sy) * e[6]
    w_den1 = e[3] + _arm_slope(tab, tab.mass_parts(1), cnt) * e[6]
    w_den0 = e[4] + _arm_slope(tab, tab.mass_parts(0), cnt) * e[6]
    w_g = e[5] + _arm_slope(tab, corr_parts, cnt) * e[6]

    denom = max(delta.mass1, delta.mass0)
    w_denom = w_den1 if delta.mass1 >= delta.mass0 else w_den0

    base_val, corr_val, other_val = (float(tab.mean(w, sy))
                                     for w in (base_w, corr_w, other_w))
    # the corrected side is subtracted for d=0: L = (other - base - corr)/denom
    numerator = (base_val + corr_val - other_val if side_d == 1
                 else other_val - base_val - corr_val)
    L = numerator / denom

    sign_corr = 1.0 if side_d == 1 else -1.0
    M1 = np.vstack([sign_corr * w_base, sign_corr * w_corr_fixed_t,
                    -sign_corr * w_other, w_denom])
    M2 = np.zeros_like(M1)
    # an infinite threshold cuts nothing or the whole side, so the collected
    # mass does not move with it: the M2 row stays zero and, with no density
    # floor in the variance, nothing is unstable
    min_dens, unstable = 0.0, False
    if np.isfinite(t):
        # the smaller sub-density at the threshold: the opposite arm's inside
        # side d's region, the own arm's (Z=d) outside
        arm = 1 - side_d if (set0, set1)[side_d].contains(t) else side_d
        s, in_arm = tab.sample, tab.sample.z == arm
        min_dens = float(kernel_sum(s.y[in_arm & (s.d == side_d)], 1.0, h,
                                    t)[0]) / np.count_nonzero(in_arm)
        g_slope = max(min_dens, DENSITY_FLOOR)
        if direction == "high":
            g_slope = -g_slope

        # threshold influence: criterion solves g(t) = |delta|
        sgn = -1.0 if delta.regime == "below" else 1.0
        w_t = (sgn * (w_den1 - w_den0) - w_g) / g_slope
        # correction term's threshold sensitivity: d/dt of the collected mass
        bt = t * min_dens if direction == "low" else -t * min_dens
        M2[1] = sign_corr * bt * w_t
        # at t * min_dens = 0 the M2 row is 0 whatever the floor
        unstable = min_dens < DENSITY_FLOOR and bool(M2[1].any())
    Gamma = np.array([1.0 / denom, 1.0 / denom, 1.0 / denom, -L / denom])

    var = float(Gamma @ (M1 + M2) @ Sigma @ (M1 + M2).T @ Gamma)
    sigma = float(np.sqrt(max(var, 0.0)))
    components = {
        "Gamma": Gamma, "M1": M1, "M2": M2, "Sigma": Sigma,
        "unstable": unstable, "min_density_at_t": min_dens,
    }
    return L, sigma, components
