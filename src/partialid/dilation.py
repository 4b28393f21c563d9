"""Set estimation and inference by dilating the empirical distribution.

A model is summarised by a characterizing function T: T(theta, F) = 0 exactly
when theta belongs to the identified set of F.  Enlarging ("dilating") the
empirical CDF by a sup-norm radius and collecting every theta whose feasible
set meets the dilation yields an estimated identified set (radius
log n / sqrt(n)); replacing that radius with a bootstrap quantile of the
sup-norm empirical process yields a confidence region for the identified
set.

The shipped model is the interval-data mean: each observation is an
interval [y_l, y_u] known to contain the latent outcome, and theta = E[Y*]
is partially identified as [mean(y_l), mean(y_u)].  The sup-norm distance
from theta to the empirical evidence has an exact expression through the
largest mean shift achievable by a vertical CDF band of given height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datamodel import check_seed, sorted_quantile
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class CharacterizingFunction:
    """Finite-grid model summary for dilation methods.

    ``distance(thetas, sample)`` returns, at each theta of an array, the
    smallest sup-norm distance between the empirical CDF evidence and any
    distribution whose identified set contains theta (0 when theta is
    already identified-set feasible).
    """

    theta_grid: np.ndarray
    distance: Callable

    def __post_init__(self):
        grid = np.asarray(self.theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ConfigError("theta_grid must be a nonempty 1-D array")
        object.__setattr__(self, "theta_grid", grid)


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
    if not (0.0 < alpha <= 1.0):
        raise ConfigError("alpha must lie in (0, 1]")
    if n_boot < 100:
        raise ConfigError("at least 100 bootstrap resamples are required")
    check_seed(seed)
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
    etas.sort()
    return sorted_quantile(etas, 1.0 - alpha)


# ----------------------------------------------------------------------
# interval-data mean model
# ----------------------------------------------------------------------
def _check_intervals(sample):
    arr = _as_columns(sample)
    if arr.shape[1] != 2:
        raise DataError("interval data needs two columns (y_l, y_u)")
    if (arr[:, 0] > arr[:, 1]).any():
        raise DataError("every interval must satisfy y_l <= y_u")
    # finite endpoints can still overflow a mean or the grid's span
    with np.errstate(over="ignore", invalid="ignore"):
        mean_l, mean_u = float(arr[:, 0].mean()), float(arr[:, 1].mean())
        span = float(arr[:, 1].max() - arr[:, 0].min())
    if not all(map(math.isfinite, (mean_l, mean_u, span))):
        raise DataError("interval endpoints too large: a column mean or "
                        "the range of the data overflows")
    return arr, mean_l, mean_u


def _shift_knots(values, direction):
    """Gaps between consecutive distinct values and the band headroom on
    each gap: 1 - F for ``'down'``, F for ``'up'``."""
    v = np.sort(np.asarray(values, dtype=float))
    starts = np.flatnonzero(np.diff(v, prepend=-np.inf))  # first of each run
    levels = starts[1:] / v.size  # F at each distinct value but the last
    gaps = np.diff(v[starts])
    head = (1.0 - levels) if direction == "down" else levels
    return gaps, head


def _invert_mean_shift(values, target, direction):
    """Smallest band height whose maximal mean shift reaches ``target``, at
    each target of an array (a scalar gives a float): the exact inverse of
    a piecewise-linear shift.

    shift(eps) = sum_k gap_k * min(head_k, eps) increases and is linear
    between consecutive heads, so its inverse interpolates the swapped
    knots (shift at each head, head) linearly from (0, 0).  With the heads
    ascending, the shift at the i-th head is A_i, the gap-weighted sum of
    the lower heads, plus head_i times G_i, the total gap at or above head
    i.  A target no band of height 1 reaches (beyond a 1e-12 rounding
    allowance) gives inf; one within that allowance gives the largest head
    (0 without one), where the shift stops growing.
    """
    target = np.asarray(target, dtype=float)
    gaps, head = _shift_knots(values, direction)
    top = float(np.sum(gaps * np.minimum(head, 1.0)))
    if direction == "down":  # heads 1 - F decrease along the values
        gaps, head = gaps[::-1], head[::-1]
    below = np.cumsum(gaps * head) - gaps * head  # A_i
    above = np.cumsum(gaps[::-1])[::-1]  # G_i
    eps = np.interp(target, np.append(0.0, below + head * above),
                    np.append(0.0, head))
    eps = np.where(target <= 0, 0.0,
                   np.where(top < target - 1e-12, math.inf, eps))
    return eps if eps.ndim else float(eps)


def interval_mean_distance(theta, sample):
    """Sup-norm distance from the interval-data evidence to the nearest
    distribution band whose mean interval contains theta, at each theta of
    an array (a scalar gives a float)."""
    arr, mean_l, mean_u = _check_intervals(sample)
    theta = np.asarray(theta, dtype=float)
    dist = np.zeros(theta.shape)
    low, high = theta < mean_l, theta > mean_u
    if low.any():
        dist[low] = _invert_mean_shift(arr[:, 0], mean_l - theta[low], "down")
    if high.any():
        dist[high] = _invert_mean_shift(arr[:, 1], theta[high] - mean_u, "up")
    return dist if dist.ndim else float(dist)


def interval_mean_model(theta_grid) -> CharacterizingFunction:
    """Characterizing function of the interval-data mean on a theta grid."""
    return CharacterizingFunction(theta_grid=theta_grid,
                                  distance=interval_mean_distance)


def estimated_identified_set(T: CharacterizingFunction, sample):
    """Grid points whose feasible distributions come strictly within the
    dilation radius log n / sqrt(n) of the empirical CDF: it shrinks to
    zero while staying above the 1/sqrt(n) noise scale."""
    n = _as_columns(sample).shape[0]
    radius = math.log(n) / math.sqrt(n)
    return T.theta_grid[T.distance(T.theta_grid, sample) < radius]


def confidence_region(T: CharacterizingFunction, sample, alpha, n_boot,
                      seed):
    """Same construction as the estimated set, with the bootstrap
    (1-alpha)-quantile radius c*(alpha)/sqrt(n); ties at the radius are
    kept, erring toward coverage."""
    cstar = bootstrap_critical_value(sample, n_boot, alpha, seed)
    radius = cstar / math.sqrt(_as_columns(sample).shape[0])
    return T.theta_grid[T.distance(T.theta_grid, sample) <= radius], cstar


def interval_data_stats(sample, a, b):
    """Scaled squared shortfalls testing the hypothesis that the latent
    mean interval meets [a, b] (nonrefutable statistic) and is contained in
    it (confirmable statistic).  Both vanish exactly when no constraint
    binds."""
    if not (a <= b):  # NaN fails too
        raise DataError("the hypothesis interval must satisfy a <= b")
    arr, mean_l, mean_u = _check_intervals(sample)
    n = arr.shape[0]

    def neg(x):
        return min(x, 0.0)

    t_nf = math.sqrt(n) * (neg(mean_u - a) ** 2 + neg(b - mean_l) ** 2)
    t_con = math.sqrt(n) * (neg(b - mean_u) ** 2 + neg(mean_l - a) ** 2)
    return t_nf, t_con
