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
        # flat endpoint array for O(log k) membership via searchsorted
        self._edges = np.array([e for iv in self.intervals for e in iv])

    @classmethod
    def empty(cls):
        return cls(())

    @classmethod
    def real_line(cls):
        return cls([(-np.inf, np.inf)])

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
        if self._edges.size == 0:
            return np.zeros(y.shape, dtype=bool)
        idx = np.searchsorted(self._edges, y, side="left")
        # inside an interval iff searchsorted lands at an odd position,
        # or exactly on a left endpoint (even position with equality)
        inside = (idx % 2 == 1)
        on_edge = (idx < self._edges.size) & (self._edges[np.minimum(idx, self._edges.size - 1)] == y)
        return inside | on_edge

    def union(self, other):
        return IntervalUnion(self.intervals + other.intervals)

    def complement(self):
        """Complement in the real line (closed-interval convention)."""
        if not self.intervals:
            return IntervalUnion.real_line()
        out = []
        lo0 = self.intervals[0][0]
        if np.isfinite(lo0):
            out.append((-np.inf, lo0))
        for (_, hi_prev), (lo_next, _) in zip(self.intervals, self.intervals[1:]):
            out.append((hi_prev, lo_next))
        hi_last = self.intervals[-1][1]
        if np.isfinite(hi_last):
            out.append((hi_last, np.inf))
        return IntervalUnion(out)

    def intersect(self, other):
        out = []
        for a_lo, a_hi in self.intervals:
            for b_lo, b_hi in other.intervals:
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if lo <= hi:
                    out.append((lo, hi))
        return IntervalUnion(out)

    def translate(self, c):
        return IntervalUnion([(lo + c, hi + c) for lo, hi in self.intervals])

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

    above = vs >= threshold
    out = []
    start = None
    for i in range(xs.size):
        if above[i] and start is None:
            if i == 0:
                start = xs[0]
            else:
                # crossing between xs[i-1] (below) and xs[i] (at/above)
                x0, x1, v0, v1 = xs[i - 1], xs[i], vs[i - 1], vs[i]
                start = x1 if v1 == v0 else x0 + (threshold - v0) * (x1 - x0) / (v1 - v0)
        elif not above[i] and start is not None:
            x0, x1, v0, v1 = xs[i - 1], xs[i], vs[i - 1], vs[i]
            end = x0 if v1 == v0 else x0 + (threshold - v0) * (x1 - x0) / (v1 - v0)
            out.append((start, end))
            start = None
    if start is not None:
        out.append((start, xs[-1]))
    return IntervalUnion(out)
