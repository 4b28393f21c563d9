"""Point-identified local average treatment effect under the relaxed
monotonicity extensions: diagnostics for the testable density implication,
trimmed-set estimation, the two-ratio point estimator, its plug-in
asymptotic variance, and confidence intervals (single tail condition or the
conservative union over all sixteen tail conditions).

Every estimator reads a grouped moment table (``_Moments``): observations
are grouped by (D, Z) cell, core membership and band position, and the
means and covariances are sums over at most 48 groups (96 for a bound,
which splits each group by its threshold cut).  The tails do not move the
cores, so a table stacked over tail specs carries one row of region
memberships per spec, and the union evaluates all sixteen specs in one
pass: their masses, point estimates, 5x5 covariances and delta-method
variances are arrays with a leading spec axis; every other estimate is
that pass over one spec (``_one_spec``).  Every sigma, a bound's too, is
one call of the table's delta-method engine (``_Moments.delta_sd``)."""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, WeakIdentificationError
from .datamodel import Sample
from .density import DensityEstimate
from .sets import IntervalUnion, superlevel_set

#: identification floor for estimated complier masses
MIN_MASS = 1e-4


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
        text = text.strip().lower()
        if text and text != "none":
            for token in text.split(","):
                token = token.strip()
                if token not in flags:
                    raise ConfigError(f"unknown tail token {token!r}; use u1,l1,u0,l0 or 'none' alone")
                flags[token] = True
        return cls(upper1=flags["u1"], lower1=flags["l1"],
                   upper0=flags["u0"], lower0=flags["l0"])


def _levels(est: DensityEstimate, b_n, threshold_scale):
    """The levels (d=1, d=0) that ``b_n`` sets for the two signed density
    differences.  With ``threshold_scale="absolute"`` each is ``b_n``
    itself.  With ``"relative"`` the level for treatment state d is ``b_n``
    times the peak of the estimated difference for that state, which makes
    the trimming fraction comparable across designs whose density scales
    differ, and leaves it unchanged when the outcome's units change."""
    if threshold_scale not in ("absolute", "relative"):
        raise ConfigError(
            f"threshold_scale must be 'absolute' or 'relative', got {threshold_scale!r}")
    if threshold_scale == "relative":
        return b_n * float(np.max(est.f1)), b_n * float(np.max(est.f0))
    return float(b_n), float(b_n)


def check_iam_implication(est: DensityEstimate, b_n=0.0,
                          threshold_scale="absolute"):
    """Diagnostic for the density form of the testable implication.

    Passes iff each density difference is everywhere on the grid at least
    minus its level (see ``_levels``).  Violation masses integrate the
    negative parts over the grid.
    """
    lev1, lev0 = _levels(est, b_n, threshold_scale)
    neg1 = np.maximum(-est.f1, 0.0)
    neg0 = np.maximum(-est.f0, 0.0)
    return {
        "passes": bool(est.f1.min() >= -lev1 and est.f0.min() >= -lev0),
        "violation_mass_1": float(np.trapezoid(neg1, est.grid)),
        "violation_mass_0": float(np.trapezoid(neg0, est.grid)),
    }


def estimate_trimmed_sets(est: DensityEstimate, tails: TailSpec, b_n, band,
                          threshold_scale="absolute"):
    """Extract the trimmed outcome regions for d=1 and d=0: each side's
    superlevel set at its level (see ``_levels``) inside the band, with its
    tails."""
    if b_n <= 0:
        raise ConfigError("trimming level b_n must be positive")
    lev1, lev0 = _levels(est, b_n, threshold_scale)
    if lev1 <= 0 or lev0 <= 0:  # a relative level on a nowhere-positive side
        raise WeakIdentificationError(
            "estimated density difference is nowhere positive",
            mass=float(min(np.max(est.f1), np.max(est.f0))))
    m_l, m_u = band
    core1 = superlevel_set(est.grid, est.f1, lev1, m_l, m_u)
    core0 = superlevel_set(est.grid, est.f0, lev0, m_l, m_u)
    return (core1.union(tails.tail_set(1, band)),
            core0.union(tails.tail_set(0, band)))


@dataclass(frozen=True)
class LateEstimate:
    """Point estimate with the two estimated complier masses, the plug-in
    standard error (if computed), and the confidence interval."""

    point: float
    mass1: float  # P(Y_1, 1) - Q(Y_1, 1)
    mass0: float  # Q(Y_0, 0) - P(Y_0, 0)
    sigma: Optional[float] = None
    ci: Optional[tuple] = None
    tails: Optional[TailSpec] = None

    def to_jsonable(self):
        """The estimate as ``late point`` prints it, None fields left out."""
        out = {
            "estimate": self.point,
            "sigma": self.sigma,
            "ci": None if self.ci is None else list(self.ci),
            "complier_mass_d1": self.mass1,
            "complier_mass_d0": self.mass0,
            "tails": None if self.tails is None else self.tails.to_jsonable(),
        }
        return {key: value for key, value in out.items() if value is not None}


#: groups of the moment table: (D, Z) cell x core-1 membership x core-0
#: membership x position against the band (inside, y <= M_l, y >= M_u)
_GROUPS = 48
_LOW, _HIGH = 1, 2


def _layout():
    """The group layout every table starts from, read-only: each group's
    band position, core memberships (indexed by d), Z=1 indicator as
    float, (D, Z) cell indicators indexed [d, z], and Z=1 mask."""
    g = np.arange(_GROUPS)
    z, d = g // 12 % 2, g // 24
    arrays = (g % 3, g // 3 % 2 == 1, g // 6 % 2 == 1, z.astype(float),
              np.array([[(d == dv) & (z == zv) for zv in (0, 1)]
                        for dv in (0, 1)], dtype=float), z == 1)
    for a in arrays:
        a.flags.writeable = False
    return arrays


_POS, _INSIDE0, _INSIDE1, _Z1, _CELL, _IS_Z1 = _layout()


class _Moments:
    """Grouped moment table of one fit, shared by every estimator that
    reads it.

    Each observation gets one group code: its (D, Z) cell, whether each
    side's core region contains it, and its position against the band.
    The cores and tails are closed, so an outcome on M_l or M_u lands in a
    tail group.  Every mean and covariance entry the estimators need is a
    sum of group-constant weights times y^0, y^1 or y^2, so the table keeps
    per group the count, the sum of y and the sum of squares about the
    group mean.  A tail spec only changes which groups lie in each side's
    region, so one table serves all sixteen specs: ``with_tails`` stacks
    it over specs, and every weight, mean and covariance then gains a
    leading spec axis.

    Side d's own arm is Z=d.  Each side-d weight is a sum over the two arms
    of a raw part divided by that arm's frequency; ``mass_parts`` and
    ``min_pair_parts`` give the raw parts and ``column`` the weight, all
    per group.  ``weight[code]`` gives the per-observation column.
    """

    def __init__(self, sample: Sample, set1: IntervalUnion,
                 set0: IntervalUnion, band=None):
        y = sample.y
        # int8 arithmetic (codes stay below 48), widened once for bincount
        code = ((2 * sample.d + sample.z) * 2 + set1.contains(y)) * 2
        code = (code + set0.contains(y)) * 3
        if band is not None:
            code += y <= band[0]
            code += np.int8(2) * (y >= band[1])
        self.code = code.astype(np.intp)
        self.sample = sample
        self.n = sample.n
        self.pos, self.z1, self.cell = _POS, _Z1, _CELL
        self.inside = (_INSIDE0, _INSIDE1)  # indexed by d
        self.count, self.sum_y, self.y_mean, self.ss_y = _group_sums(
            self.code, y, _GROUPS)
        m1 = int(self.count[_IS_Z1].sum()) / self.n
        self.m = (1.0 - m1, m1)  # indexed by z
        self.mass = self.region_masses()

    def with_tails(self, specs):
        """The table stacked over tail specs: row i of each side's region
        is the core widened by the tails of ``specs[i]``."""
        out = copy.copy(self)
        low, high = self.pos == _LOW, self.pos == _HIGH
        flags = np.array([[s.lower0, s.upper0, s.lower1, s.upper1]
                          for s in specs])[:, :, None]
        out.inside = tuple(self.inside[d] | low & flags[:, 2 * d]
                           | high & flags[:, 2 * d + 1] for d in (0, 1))
        out.mass = out.region_masses()
        return out

    def split(self, cut):
        """The table with each group g split by the mask ``cut``: group
        2g + 1 holds g's observations inside it, and ``cut`` flags it."""
        out = copy.copy(self)
        out.code = 2 * self.code + cut
        out.count, out.sum_y, out.y_mean, out.ss_y = _group_sums(
            out.code, self.sample.y, 2 * self.count.size)
        for name in ("pos", "z1", "inside", "cell", "mass"):
            setattr(out, name, np.repeat(getattr(self, name), 2, axis=-1))
        out.cut = np.tile([0.0, 1.0], self.count.size)
        return out

    def region_masses(self):
        """Each side's contrast weight inside its region, ``mass[d]``."""
        return [self.column(self.mass_parts(d)) for d in (0, 1)]

    def mass_parts(self, d):
        """Side d's contrast weight inside its region: the own-arm cell
        minus the opposite-arm cell.  Its column ``mass[d]`` has the
        estimated complier mass as mean."""
        inset = self.inside[d]
        return {d: self.cell[d, d] * inset,
                1 - d: -(self.cell[d, 1 - d] * inset)}

    def min_pair_parts(self):
        """The d=1 side's min-pair weight, estimating the pointwise minimum
        of the two sub-densities: inside the region the own arm's (Z=1) is
        the larger, so the Z=0 arm gives the minimum there and the own arm
        outside."""
        inset = self.inside[1]
        return {1: self.cell[1, 1] * ~inset, 0: self.cell[1, 0] * inset}

    def column(self, parts):
        return parts[0] / self.m[0] + parts[1] / self.m[1]

    def mean(self, weight, sums):
        """Sample mean of the column ``weight[code]`` times y (``sums`` is
        ``sum_y``) or times 1 (``sums`` is ``count``), one per spec row."""
        return weight @ sums / self.n

    def complier_masses(self):
        """The estimated complier masses (d=1, d=0), one per spec row."""
        return tuple(self.mean(self.mass[d], self.count) for d in (1, 0))

    def arm_slope(self, parts, sums):
        """Derivative in Pr(Z=1), with Pr(Z=0) = 1 - Pr(Z=1), of the mean of
        ``column(parts)`` times y (``sums`` is ``sum_y``) or 1 (``count``)."""
        return (-self.mean(parts[1], sums) / self.m[1] ** 2
                + self.mean(parts[0], sums) / self.m[0] ** 2)

    def cov(self, weights, with_y):
        """Covariance (ddof 0) of the vector with entries ``weights[j][code]``
        times y if ``with_y[j]``, else times 1: in group g entry j is
        level[g] + slope[g] * (y - y_mean[g]), so it is the between-group
        part of the levels plus the within-group part of the slopes.  On a
        stacked table the result is one matrix per spec row."""
        w = np.empty(np.broadcast_shapes(*(np.shape(x) for x in weights))
                     + (len(weights),))
        for j, x in enumerate(weights):
            w[..., j] = x
        slope = w * np.asarray(with_y)
        level = np.where(with_y, w * self.y_mean[:, None], w)
        dev = level - (self.count @ level / self.n)[..., None, :]
        return ((dev.mT * self.count) @ dev
                + (slope.mT * self.ss_y) @ slope) / self.n

    def delta_sd(self, weights, with_y, slopes, grad):
        """Plug-in delta-method sd of sqrt(n) g(means), for the means of
        the columns ``weights[j]`` times y if ``with_y[j]``, else times 1,
        and the covariance of those columns and the Z=1 indicator.

        Each mean moves with the arm frequency Pr(Z=1) at the rate
        ``slopes[j]`` (see ``arm_slope``), so the gradient ``grad`` of g
        gains ``grad . slopes`` on the Z=1 coordinate.  On a stacked table
        ``slopes``, ``grad`` and the outputs carry the leading spec axis.
        Returns ``(sd, Sigma)``; a variance that overflows raises
        ``DataError``."""
        with np.errstate(over="ignore", invalid="ignore"):
            # outcomes near 1e153 overflow the squares already
            Sigma = self.cov([*weights, self.z1], [*with_y, False])
            full = np.concatenate(
                [grad, np.sum(grad * slopes, axis=-1, keepdims=True)], axis=-1)
            var = (full[..., None, :] @ Sigma @ full[..., None])[..., 0, 0]
        if not np.isfinite(var).all():
            raise DataError("outcomes too large for the plug-in variance: "
                            "it overflows")
        return np.sqrt(np.maximum(var, 0.0)), Sigma


def _group_sums(code, y, groups):
    """Per-group count, sum and mean of y, and squares about the mean, in
    two passes since ``bincount`` adds in sequence: rough means, then the
    residual sums correct them (Chan, Golub & LeVeque 1983).  Squares
    that overflow leave a non-finite sum of squares, and the only reader,
    ``_Moments.delta_sd``, raises ``DataError`` on it."""
    count = np.bincount(code, minlength=groups)
    safe = np.maximum(count, 1)
    rough = np.bincount(code, weights=y, minlength=groups) / safe
    resid = y - rough[code]
    with np.errstate(over="ignore", invalid="ignore"):
        shift, sq = (np.bincount(code, weights=w, minlength=groups)
                     for w in (resid, resid * resid))
        ss = sq - shift * shift / safe
    y_mean = rough + shift / safe
    return count, y_mean * count, y_mean, ss


def estimate_late(sample: Sample, set1: IntervalUnion,
                  set0: IntervalUnion) -> LateEstimate:
    """Two-ratio point estimator over the given regions, with its plug-in
    ``"outcome"`` standard deviation (see ``late_variance``).

    Numerators are sample means of Y times the instrument-arm contrast of
    treatment-cell indicators inside the region; denominators are the same
    means without Y (the estimated complier masses).
    """
    return replace(_one_spec(_Moments(sample, set1, set0)), tails=None)


def _floor_error(mass1, mass0):
    """The weak-identification error of one pair of complier masses, d=1
    checked first, or None when both clear the floor."""
    for label, mass in (("d=1", mass1), ("d=0", mass0)):
        if mass < MIN_MASS:
            return WeakIdentificationError(
                f"estimated complier mass for {label} is {mass:.3g} < {MIN_MASS:g}",
                mass=float(mass),
            )
    return None


def late_variance(sample: Sample, set1: IntervalUnion, set0: IntervalUnion,
                  method="outcome"):
    """Plug-in delta-method standard deviation of sqrt(n) times the
    estimator, with its component matrices.

    The estimator is pi1/pi3 - pi2/pi4 where each pi is a ratio-weighted
    sample mean depending on the arm frequency Pr(Z=1).  Pi is the gradient
    of the two-ratio map, ``slopes`` the derivative of each pi in Pr(Z=1),
    and Sigma the sample covariance of the four core columns and the Z=1
    indicator (see ``_Moments.delta_sd``).

    ``method`` selects the slopes.  ``"gradient"`` uses the exact derivative
    of each pi in the arm frequency, whose indicator-only moments enter the
    mass slopes.  ``"outcome"`` (default) reads only outcome-weighted
    moments, the same two for the contrast and the mass of a side: side d's
    own-arm moment as its Z=1 part and the opposite-arm cell inside the
    other side's region as its Z=0 part.  Over full regions on 120 samples
    of the tests' ``make_sample(2000, seed)`` (Z a fair coin, D equal to Z
    with probability 0.8, Y ~ N(2 + D, 1); seeds 1000-1119) the Monte Carlo
    sd of sqrt(n) times the estimate was 3.42, the mean ``"outcome"`` sigma
    5.23 (1.53x: conservative) and the mean ``"gradient"`` sigma 3.36
    (0.98x); seeds 0-119 gave 1.60x and 1.02x.  That holds at this origin
    only: ``"outcome"`` moves when y shifts (on seed 1000 it is 3.34 at
    y - 2 and 34.7 at y + 10), while ``"gradient"`` and the estimate do not.

    Returns ``(sigma, components)`` with components a dict of Pi, the
    slopes, Sigma and the pi vector.
    """
    if method not in ("outcome", "gradient"):
        raise ConfigError(
            f"variance method must be 'outcome' or 'gradient', got {method!r}")
    tab = _Moments(sample, set1, set0)
    error = _floor_error(*tab.complier_masses())
    if error is not None:
        raise error
    sigma, components = _late_variance(tab, method)
    return float(sigma), components


def _late_variance(tab, method):
    """``late_variance`` on a table whose masses clear the floor.  On a
    table stacked over tail specs, sigma and every component gain the
    leading spec axis."""
    w0, w1 = tab.mass
    # core means: Y-weighted contrast d=1, d=0, complier mass d=1, d=0;
    # each list below has its spec axis last, and ``.T`` puts it first
    pi = np.array([tab.mean(w1, tab.sum_y), tab.mean(w0, tab.sum_y),
                   *tab.complier_masses()]).T
    if method == "outcome":
        # outcome-weighted for every mean: side d's own-arm moment is the
        # Z=1 part, the opposite-arm cell inside the other side's region
        # the Z=0 part
        cell, inside = tab.cell, tab.inside
        slopes = [tab.arm_slope({1: cell[d, d] * inside[d],
                                 0: cell[d, 1 - d] * inside[1 - d]},
                                tab.sum_y) for d in (1, 0)] * 2
    else:
        slopes = [tab.arm_slope(tab.mass_parts(d), sums)
                  for sums in (tab.sum_y, tab.count) for d in (1, 0)]
    slopes = np.array(slopes).T
    p1, p2, p3, p4 = pi.T
    Pi = np.array([1.0 / p3, -1.0 / p4, -p1 / p3 ** 2, p2 / p4 ** 2]).T
    sigma, Sigma = tab.delta_sd([w1, w0, w1, w0], [True, True, False, False],
                                slopes, Pi)
    components = {"Pi": Pi, "slopes": slopes, "Sigma": Sigma, "pi": pi}
    return sigma, components


def _core_moments(sample, est, b_n, band, threshold_scale):
    """The moment table of the fit's cores, which no tail spec changes."""
    core1, core0 = estimate_trimmed_sets(est, TailSpec(), b_n, band,
                                         threshold_scale=threshold_scale)
    return _Moments(sample, core1, core0, band)


def _known_tails(tab, specs, alpha=None):
    """Known-tail estimates of the specs, in one pass over the table
    stacked over them: each estimate's point, masses and sigma, and its
    interval unless ``alpha`` is None.

    Returns the estimates of the specs whose complier masses clear the
    floor, in spec order, and the weak-identification errors of the
    others.  Those specs are dropped before anything divides by a mass.
    """
    stack = tab.with_tails(specs)
    errors = [_floor_error(m1, m0) for m1, m0 in zip(*stack.complier_masses())]
    kept = [s for s, e in zip(specs, errors) if e is None]
    errors = [e for e in errors if e is not None]
    if not kept:
        return [], errors
    if errors:
        stack = tab.with_tails(kept)
    sigma, comp = _late_variance(stack, "outcome")
    p1, p2, p3, p4 = comp["pi"].T
    point = p1 / p3 - p2 / p4
    cis = [None] * len(kept)
    if alpha is not None:
        zq = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        half = zq * sigma / np.sqrt(tab.n)
        cis = [(p - h, p + h) for p, h in zip(point.tolist(), half.tolist())]
    members = [
        LateEstimate(point=p, mass1=m1, mass0=m0, sigma=s, ci=ci, tails=tails)
        for p, m1, m0, s, ci, tails in zip(point.tolist(), p3.tolist(),
                                           p4.tolist(), sigma.tolist(), cis,
                                           kept)]
    return members, errors


def _one_spec(tab, tails=TailSpec(), alpha=None) -> LateEstimate:
    """``_known_tails`` of one spec (by default, the table's own regions)."""
    members, errors = _known_tails(tab, [tails], alpha)
    if errors:
        raise errors[0]
    return members[0]


def known_tail_estimate(sample: Sample, est: DensityEstimate, tails: TailSpec,
                        b_n, band, alpha=0.05,
                        threshold_scale="absolute") -> LateEstimate:
    """Point estimate plus the centred normal confidence interval for one
    fixed tail condition."""
    return _one_spec(_core_moments(sample, est, b_n, band, threshold_scale),
                     tails, alpha)


def conservative_union_ci(sample: Sample, est: DensityEstimate, b_n, band,
                          alpha=0.05, threshold_scale="absolute"):
    """Convex hull of the sixteen known-tail confidence intervals.

    The cores and their moment table are built once, and all sixteen tail
    specs are evaluated as one stack over it.  Tail conditions that trigger
    weak-identification errors are skipped; if all sixteen fail, the
    weak-identification error is re-raised with the last skipped spec's
    mass.
    """
    try:
        members, errors = _known_tails(
            _core_moments(sample, est, b_n, band, threshold_scale),
            TailSpec.all_specs(), alpha)
        if not members:
            raise errors[-1]
    except WeakIdentificationError as exc:  # no level, or all under the floor
        raise WeakIdentificationError(
            "all 16 tail conditions are infeasible", mass=exc.mass) from exc
    return {
        "ci": (min(m.ci[0] for m in members), max(m.ci[1] for m in members)),
        "feasible": len(members),
        "skipped": len(errors),
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
