"""Set estimation and inference by dilating the empirical distribution.

A model is summarised by a characterizing function T: T(theta, F) = 0 exactly
when theta belongs to the identified set of F.  Enlarging ("dilating") the
empirical CDF by a sup-norm radius and collecting every theta whose feasible
set meets the dilation yields an estimated identified set; replacing the
deterministic radius with a bootstrap quantile of the sup-norm empirical
process yields a confidence region for the identified set.

The shipped model is the interval-data mean: each observation is an
interval [y_l, y_u] known to contain the latent outcome, and theta = E[Y*]
is partially identified as [mean(y_l), mean(y_u)].  The sup-norm distance
from theta to the empirical evidence has an exact expression through the
largest mean shift achievable by a vertical CDF band of given height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, UnsupportedModelError


def default_radius(n):
    """Default dilation radius numerator: log n."""
    return math.log(n)


def default_rate(n):
    """Default dilation rate: the sample size itself."""
    return float(n)


@dataclass(frozen=True)
class DilationConfig:
    """Radius and bootstrap settings for dilation-based set estimation.

    The estimated-set radius is ``radius(n) / sqrt(rate(n))``; defaults give
    log n / sqrt(n), which shrinks to zero while staying above the
    1/sqrt(n) noise scale.
    """

    radius: Callable[[int], float] = default_radius
    rate: Callable[[int], float] = default_rate
    n_boot: int = 500
    alpha: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        if self.n_boot < 100:
            raise ConfigError("at least 100 bootstrap resamples are required")
        small, large = 10 ** 3, 10 ** 9
        r_small = self.radius(small) / math.sqrt(self.rate(small))
        r_large = self.radius(large) / math.sqrt(self.rate(large))
        if not (r_small > 0 and r_large > 0):
            raise ConfigError("the dilation radius must stay positive")
        if r_large >= r_small:
            raise ConfigError("the dilation radius must shrink with n")

    def estimation_radius(self, n):
        return self.radius(n) / math.sqrt(self.rate(n))


@dataclass(frozen=True)
class CharacterizingFunction:
    """Finite-grid model summary for dilation methods.

    ``distance(theta, sample)`` must return the smallest sup-norm distance
    between the empirical CDF evidence and any distribution whose identified
    set contains theta (0 when theta is already identified-set feasible);
    models without such a routine cannot be used here.
    """

    theta_grid: np.ndarray
    distance: Optional[Callable] = None
    label: str = "custom"

    def __post_init__(self):
        grid = np.asarray(self.theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ConfigError("theta_grid must be a nonempty 1-D array")
        object.__setattr__(self, "theta_grid", grid)

    def require_distance(self):
        if self.distance is None:
            raise UnsupportedModelError(
                "this model supplies no distance-to-feasibility routine")
        return self.distance


def _as_columns(sample):
    arr = np.asarray(sample, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise DataError("sample must be a vector or matrix with n >= 2 rows")
    if not np.isfinite(arr).all():
        raise DataError("sample contains non-finite values")
    return arr


def bootstrap_critical_value(sample, n_boot, alpha, seed):
    """(1-alpha)-quantile of the bootstrap sup-norm empirical process.

    Rows are resampled jointly; for each resample the statistic is the
    largest value, across columns and their jump points, of
    sqrt(n) |F_n^b(x) - F_n(x)|.  The sup is exact because both CDFs are
    step functions changing only at sample points.
    """
    if n_boot < 100:
        raise ConfigError("at least 100 bootstrap resamples are required")
    if not (0.0 < alpha <= 1.0):
        raise ConfigError("alpha must lie in (0, 1]")
    cols = _as_columns(sample)
    n = cols.shape[0]
    rng = np.random.default_rng(seed)

    # per column: sort order and the last sorted position of each unique value
    prepared = []
    for j in range(cols.shape[1]):
        order = np.argsort(cols[:, j], kind="stable")
        ys = cols[order, j]
        ends = np.flatnonzero(np.diff(ys) != 0)
        ends = np.concatenate([ends, [n - 1]])
        base = (ends + 1).astype(float)  # n * F_n at each jump point
        prepared.append((order, ends, base))

    etas = np.empty(n_boot)
    root_n = math.sqrt(n)
    for b in range(n_boot):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        sup = 0.0
        for order, ends, base in prepared:
            cum = np.cumsum(counts[order])
            gap = np.abs(cum[ends] - base).max() / n
            sup = max(sup, gap)
        etas[b] = root_n * sup
    return float(np.quantile(etas, 1.0 - alpha))


# ----------------------------------------------------------------------
# interval-data mean model
# ----------------------------------------------------------------------
def _check_intervals(sample):
    arr = _as_columns(sample)
    if arr.shape[1] != 2:
        raise DataError("interval data needs two columns (y_l, y_u)")
    if (arr[:, 0] > arr[:, 1]).any():
        raise DataError("every interval must satisfy y_l <= y_u")
    return arr


def _shift_knots(values, direction):
    """Gaps between consecutive distinct values and the band headroom on
    each gap: 1 - F for ``'down'``, F for ``'up'``."""
    v = np.sort(np.asarray(values, dtype=float))
    uniq, idx = np.unique(v, return_index=True)
    counts = np.diff(np.concatenate([idx, [v.size]]))
    levels = np.cumsum(counts)[:-1] / v.size  # F at each unique value
    gaps = np.diff(uniq)
    head = (1.0 - levels) if direction == "down" else levels
    return gaps, head


def _max_mean_shift(values, eps, direction):
    """Largest mean change produced by moving the ECDF of ``values``
    vertically by at most ``eps`` inside the data range.

    ``direction='down'`` raises the CDF (mean decreases); ``'up'`` lowers it
    (mean increases).  Both are integrals of min(band headroom, eps) over
    the gaps between consecutive order statistics.
    """
    gaps, head = _shift_knots(values, direction)
    return float(np.sum(gaps * np.minimum(head, eps)))


def _invert_mean_shift(values, target, direction):
    """Smallest band height whose maximal mean shift reaches ``target``:
    the exact inverse of a piecewise-linear shift.

    shift(eps) = sum_k gap_k * min(head_k, eps) is linear between
    consecutive heads.  With the heads ascending, at the i-th head it equals
    the gap-weighted sum of the lower heads, A_i, plus head_i times G_i, the
    total gap at or above head i; so one cumulative sum of each and one
    search find the segment holding ``target``, and eps solves
    A_i + eps * G_i = target on it.  A target no band of height 1 reaches
    (beyond a 1e-12 rounding allowance) gives inf; one within that allowance
    gives the largest head (0 without one), where the shift stops growing.
    """
    if target <= 0:
        return 0.0
    gaps, head = _shift_knots(values, direction)
    if float(np.sum(gaps * np.minimum(head, 1.0))) < target - 1e-12:
        return math.inf
    if not head.size:  # one distinct value: the shift is 0 at every height
        return 0.0
    if direction == "down":  # heads 1 - F decrease along the values
        gaps, head = gaps[::-1], head[::-1]
    below = np.concatenate([[0.0], np.cumsum(gaps * head)[:-1]])  # A_i
    above = np.cumsum(gaps[::-1])[::-1]  # G_i
    i = min(int(np.searchsorted(below + head * above, target)),
            head.size - 1)
    eps = (target - below[i]) / above[i]
    return float(min(max(eps, head[i - 1] if i else 0.0), head[i]))


def interval_mean_distance(theta, sample):
    """Sup-norm distance from the interval-data evidence to the nearest
    distribution band whose mean interval contains ``theta``."""
    arr = _check_intervals(sample)
    mean_l = float(arr[:, 0].mean())
    mean_u = float(arr[:, 1].mean())
    if mean_l <= theta <= mean_u:
        return 0.0
    if theta < mean_l:
        return _invert_mean_shift(arr[:, 0], mean_l - theta, "down")
    return _invert_mean_shift(arr[:, 1], theta - mean_u, "up")


def interval_mean_model(theta_grid) -> CharacterizingFunction:
    """Characterizing function of the interval-data mean on a theta grid."""
    return CharacterizingFunction(
        theta_grid=theta_grid, distance=interval_mean_distance,
        label="interval-mean",
    )


def estimated_identified_set(T: CharacterizingFunction, sample,
                             cfg: DilationConfig = None):
    """Grid points whose feasible distributions come strictly within the
    shrinking dilation radius of the empirical CDF."""
    cfg = cfg or DilationConfig()
    distance = T.require_distance()
    arr = _as_columns(sample)
    radius = cfg.estimation_radius(arr.shape[0])
    keep = [th for th in T.theta_grid if distance(th, sample) < radius]
    return np.array(keep)


def confidence_region(T: CharacterizingFunction, sample, alpha, n_boot,
                      seed):
    """Same construction as the estimated set, with the bootstrap
    (1-alpha)-quantile radius c*(alpha)/sqrt(n); ties at the radius are
    kept, erring toward coverage."""
    distance = T.require_distance()
    arr = _as_columns(sample)
    cstar = bootstrap_critical_value(sample, n_boot, alpha, seed)
    radius = cstar / math.sqrt(arr.shape[0])
    keep = [th for th in T.theta_grid if distance(th, sample) <= radius]
    return np.array(keep), cstar


def interval_data_stats(sample, a, b):
    """Scaled squared shortfalls testing the hypothesis that the latent
    mean interval meets [a, b] (nonrefutable statistic) and is contained in
    it (confirmable statistic).  Both vanish exactly when no constraint
    binds."""
    if a > b:
        raise DataError("the hypothesis interval must satisfy a <= b")
    arr = _check_intervals(sample)
    n = arr.shape[0]
    mean_l = float(arr[:, 0].mean())
    mean_u = float(arr[:, 1].mean())

    def neg(x):
        return min(x, 0.0)

    t_nf = math.sqrt(n) * (neg(mean_u - a) ** 2 + neg(b - mean_l) ** 2)
    t_con = math.sqrt(n) * (neg(b - mean_u) ** 2 + neg(mean_l - a) ** 2)
    return t_nf, t_con
