"""Finite unions of real intervals.

Used to represent estimated outcome regions.  Intervals are stored closed
and disjoint; endpoints may be ``-inf``/``+inf``.  Because all downstream
uses integrate continuous densities or count continuously distributed
observations, boundary conventions only matter up to measure zero; we keep
every interval closed so that threshold ties (``f >= b``) are included.
"""

from __future__ import annotations

import numpy as np


class IntervalUnion:
    """A sorted union of disjoint closed intervals on the real line.

    Parameters
    ----------
    intervals : sequence of (lo, hi)
        May overlap or touch; they are merged on construction.
    """

    def __init__(self, intervals=()):
        merged = []
        for lo, hi in sorted((float(a), float(b)) for a, b in intervals):
            if hi < lo:
                raise ValueError(f"interval has hi < lo: ({lo}, {hi})")
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self.intervals = tuple((lo, hi) for lo, hi in merged)
        # left and right ends for O(log k) membership via searchsorted
        self._lo, self._hi = np.array(self.intervals,
                                      dtype=float).reshape(-1, 2).T

    def __bool__(self):
        return bool(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        body = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.intervals)
        return f"IntervalUnion({body})"

    def contains(self, y):
        """Vectorised membership test (closed intervals)."""
        y = np.asarray(y, dtype=float)
        if not self:
            return np.zeros(y.shape, dtype=bool)
        # the last interval starting at or before y holds y iff y <= its end
        i = np.searchsorted(self._lo, y, side="right") - 1
        return (i >= 0) & (y <= self._hi[i])

    def union(self, other):
        return IntervalUnion(self.intervals + other.intervals)

    def intersect(self, other):
        out = []
        for a_lo, a_hi in self.intervals:
            for b_lo, b_hi in other.intervals:
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if lo <= hi:
                    out.append((lo, hi))
        return IntervalUnion(out)

    def to_jsonable(self):
        return [[lo, hi] for lo, hi in self.intervals]


def superlevel_set(grid, values, threshold, lo, hi):
    """Extract ``{y in (lo, hi): values(y) >= threshold}`` as an IntervalUnion.

    ``values`` is sampled on ``grid`` (strictly increasing); crossing points
    between adjacent grid nodes are located by linear interpolation.  The
    band endpoints use linearly interpolated function values.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size != values.size:
        raise ValueError("grid and values must be 1-d arrays of equal length")
    if lo >= hi:
        raise ValueError("band must satisfy lo < hi")

    # restrict to the band, adding interpolated nodes at the band edges
    xs = grid[(grid > lo) & (grid < hi)]
    xs = np.concatenate(([lo], xs, [hi]))
    vs = np.interp(xs, grid, values)

    # each flip of ``above`` between adjacent nodes is one crossing; exactly
    # one of its two nodes reaches the threshold, so their values differ
    above = vs >= threshold
    i = np.flatnonzero(above[1:] != above[:-1])
    x0, x1, v0, v1 = xs[i], xs[i + 1], vs[i], vs[i + 1]
    # clamped to its segment: a threshold equal to a node value can round
    # a crossing one ulp past that node and past the next crossing
    crossings = np.clip(x0 + (threshold - v0) * (x1 - x0) / (v1 - v0), x0, x1)
    # crossings alternate between starts and ends; a band edge inside the
    # set opens or closes it
    edges = np.concatenate((xs[:1][above[:1]], crossings, xs[-1:][above[-1:]]))
    return IntervalUnion(zip(edges[::2], edges[1::2]))
