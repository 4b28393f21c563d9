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
is partially identified as [mean(y_l), mean(y_u)].  A vertical CDF band
of height r moves each mean by at most a piecewise-linear shift S(r), so
each side of a set ends at that mean moved by S at the radius; once r
passes the band's largest headroom, the side reaches the data's extreme,
which is kept exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import check_seed, sorted_quantile
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class CharacterizingFunction:
    """Finite-grid model summary for dilation methods: the theta grid on
    which the sets are reported."""

    theta_grid: np.ndarray

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


def _reach_end(values, mean, radius, closed, direction):
    """Where the band of height ``radius`` moves ``mean`` to, and whether
    that end is kept.

    The shift S(r) = sum_k gap_k * min(head_k, r) increases strictly up to
    the largest head and is flat after it, where it has moved the mean to
    the data's extreme: ``direction='down'`` lowers it toward the smallest
    value, ``'up'`` raises it toward the largest.  The extreme is kept once
    the radius passes the largest head, or reaches it when ``closed``.
    """
    gaps, head = _shift_knots(values, direction)
    largest = head.max(initial=0.0)
    if radius >= largest:
        end = values.min() if direction == "down" else values.max()
        return float(end), closed or radius > largest
    shift = float(np.sum(gaps * np.minimum(head, radius)))
    return (mean - shift if direction == "down" else mean + shift), closed


def _dilated(T, sample, radius, closed):
    """Grid points inside the reach of a band of height ``radius`` (its
    ends too when ``closed``); the mean interval is always inside."""
    arr, mean_l, mean_u = _check_intervals(sample)
    lo, lo_kept = _reach_end(arr[:, 0], mean_l, radius, closed, "down")
    hi, hi_kept = _reach_end(arr[:, 1], mean_u, radius, closed, "up")
    grid = T.theta_grid
    above = (grid >= lo) if lo_kept else (grid > lo)
    below = (grid <= hi) if hi_kept else (grid < hi)
    return grid[(above | (grid >= mean_l)) & (below | (grid <= mean_u))]


def interval_mean_model(theta_grid) -> CharacterizingFunction:
    """Characterizing function of the interval-data mean on a theta grid."""
    return CharacterizingFunction(theta_grid=theta_grid)


def estimated_identified_set(T: CharacterizingFunction, sample):
    """Grid points whose feasible distributions come strictly within the
    dilation radius log n / sqrt(n) of the empirical CDF: it shrinks to
    zero while staying above the 1/sqrt(n) noise scale."""
    n = _as_columns(sample).shape[0]
    return _dilated(T, sample, math.log(n) / math.sqrt(n), closed=False)


def confidence_region(T: CharacterizingFunction, sample, alpha, n_boot,
                      seed):
    """Same construction as the estimated set, with the bootstrap
    (1-alpha)-quantile radius c*(alpha)/sqrt(n); ties at the radius are
    kept, erring toward coverage."""
    cstar = bootstrap_critical_value(sample, n_boot, alpha, seed)
    radius = cstar / math.sqrt(_as_columns(sample).shape[0])
    return _dilated(T, sample, radius, closed=True), cstar


def interval_data_stats(sample, a, b):
    """Scaled squared shortfalls testing the hypothesis that the latent
    mean interval meets [a, b] (nonrefutable statistic) and is contained in
    it (confirmable statistic).  Both vanish exactly when no constraint
    binds.  A shortfall past about 1e154 squares to inf, which rejects
    the hypothesis as any large value would."""
    if not (a <= b):  # NaN fails too
        raise DataError("the hypothesis interval must satisfy a <= b")
    arr, mean_l, mean_u = _check_intervals(sample)
    n = arr.shape[0]

    def neg_sq(x):  # a product overflows to inf, where ** 2 raises
        return min(x, 0.0) * min(x, 0.0)

    t_nf = math.sqrt(n) * (neg_sq(mean_u - a) + neg_sq(b - mean_l))
    t_con = math.sqrt(n) * (neg_sq(b - mean_u) + neg_sq(mean_l - a))
    return t_nf, t_con
