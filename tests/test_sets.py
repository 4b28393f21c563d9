"""Interval-union algebra and superlevel-set extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialid.sets import IntervalUnion, superlevel_set


def ivs(draw_pairs):
    return IntervalUnion([(min(a, b), max(a, b)) for a, b in draw_pairs])


pairs = st.lists(
    st.tuples(st.floats(-50, 50), st.floats(-50, 50)), max_size=6)
ends = st.floats(-50, 50) | st.sampled_from([-np.inf, np.inf])


class TestIntervalUnion:
    def test_merges_overlaps(self):
        u = IntervalUnion([(0, 2), (1, 3), (5, 6)])
        assert u.intervals == ((0.0, 3.0), (5.0, 6.0))

    def test_touching_intervals_merge(self):
        u = IntervalUnion([(0, 1), (1, 2)])
        assert u.intervals == ((0.0, 2.0),)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            IntervalUnion([(2, 1)])

    def test_contains_closed_endpoints(self):
        u = IntervalUnion([(0, 1), (3, 4)])
        got = u.contains([0, 0.5, 1, 2, 3, 4, 5])
        assert got.tolist() == [True, True, True, False, True, True, False]

    def test_empty(self):
        u = IntervalUnion()
        assert not u
        assert not u.contains([0.0])[0]

    @given(pairs, pairs, st.lists(st.floats(-60, 60), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_union_membership(self, raw_a, raw_b, ys):
        a, b = ivs(raw_a), ivs(raw_b)
        got = a.union(b).contains(ys)
        want = a.contains(ys) | b.contains(ys)
        assert got.tolist() == want.tolist()

    @given(pairs, pairs, st.lists(st.floats(-60, 60), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_intersection_membership(self, raw_a, raw_b, ys):
        a, b = ivs(raw_a), ivs(raw_b)
        got = a.intersect(b).contains(ys)
        want = a.contains(ys) & b.contains(ys)
        assert got.tolist() == want.tolist()

    def test_jsonable(self):
        assert IntervalUnion([(0, 1)]).to_jsonable() == [[0.0, 1.0]]

    @given(st.lists(st.tuples(ends, ends, st.booleans()), max_size=6),
           st.lists(st.floats(allow_nan=True), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_contains_matches_endpoint_search(self, raw, extra):
        # one-point intervals, infinite ends, every endpoint and its two
        # float neighbours, both infinities and NaN
        u = IntervalUnion([(a, a) if point else (min(a, b), max(a, b))
                           for a, b, point in raw])
        edges = np.array([e for iv in u.intervals for e in iv])
        ys = np.concatenate((edges, np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf), extra,
                             [-np.inf, np.inf, np.nan, 0.0]))
        assert u.contains(ys).tolist() == edge_search_contains(u, ys).tolist()
        assert [bool(u.contains(y)) for y in ys[:4]] == \
            edge_search_contains(u, ys[:4]).tolist()


def edge_search_contains(u, y):
    """Reference for ``IntervalUnion.contains``: one left search over the
    flat endpoint array; y is inside iff it lands at an odd position, or
    exactly on a left end."""
    y = np.asarray(y, dtype=float)
    edges = np.array([e for iv in u.intervals for e in iv])
    if edges.size == 0:
        return np.zeros(y.shape, dtype=bool)
    idx = np.searchsorted(edges, y, side="left")
    on_edge = ((idx < edges.size)
               & (edges[np.minimum(idx, edges.size - 1)] == y))
    return (idx % 2 == 1) | on_edge


def loop_superlevel_set(grid, values, threshold, lo, hi):
    """Node-by-node reference for ``superlevel_set``: walk the band nodes,
    opening an interval where the values rise to the threshold and closing
    it where they fall below, each crossing linearly interpolated and
    clamped to its segment.  The ``v1 == v0`` guards never fire: at a flip
    only one node reaches the threshold."""
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
                x0, x1, v0, v1 = xs[i - 1], xs[i], vs[i - 1], vs[i]
                start = x1 if v1 == v0 else x0 + (threshold - v0) * (x1 - x0) / (v1 - v0)
                start = min(max(start, x0), x1)
        elif not above[i] and start is not None:
            x0, x1, v0, v1 = xs[i - 1], xs[i], vs[i - 1], vs[i]
            end = x0 if v1 == v0 else x0 + (threshold - v0) * (x1 - x0) / (v1 - v0)
            end = min(max(end, x0), x1)
            out.append((start, end))
            start = None
    if start is not None:
        out.append((start, xs[-1]))
    return IntervalUnion(out)


@st.composite
def level_grids(draw):
    """A grid with values on a coarse lattice, so flat runs and nodes equal
    to the threshold are common, a threshold that is often a node value,
    and a band that may cut the grid anywhere."""
    size = draw(st.integers(1, 40))
    steps = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    grid = 0.25 * np.cumsum(steps) - 5.0
    values = 0.5 * np.array(draw(st.lists(
        st.integers(-3, 3), min_size=size, max_size=size)), dtype=float)
    threshold = draw(st.sampled_from(list(values))
                     | st.floats(-2.0, 2.0, allow_nan=False))
    lo = draw(st.floats(-6.0, 6.0))
    hi = draw(st.floats(lo, 8.0).filter(lambda x: x > lo))
    return grid, values, threshold, lo, hi


@st.composite
def smooth_grids(draw):
    """A grid of uneven steps with continuous values, a threshold that is
    sometimes a node value, and a band that may cut the grid anywhere."""
    size = draw(st.integers(2, 30))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    grid = np.cumsum(steps) - 5.0
    values = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size,
                                    max_size=size)))
    threshold = draw(st.sampled_from(list(values))
                     | st.floats(-2.0, 2.0, allow_nan=False))
    lo = draw(st.floats(grid[0] - 1.0, grid[-1]))
    hi = draw(st.floats(lo, grid[-1] + 1.0).filter(lambda x: x > lo))
    return grid, values, threshold, lo, hi


class TestSuperlevelSet:
    @given(level_grids())
    @settings(max_examples=500, deadline=None)
    def test_matches_node_loop(self, case):
        assert superlevel_set(*case) == loop_superlevel_set(*case)

    @given(smooth_grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_sampling(self, case):
        # the set holds every point where the interpolant reaches the
        # threshold and none where it stays below, up to 1e-9 in value at
        # points between nodes, exactly at the nodes
        grid, values, threshold, lo, hi = case
        found = superlevel_set(*case)
        nodes = grid[(grid > lo) & (grid < hi)]
        assert found.contains(nodes[np.interp(nodes, grid, values)
                                    >= threshold]).all()
        xs = np.concatenate((np.linspace(lo, hi, 2001), nodes))
        vs = np.interp(xs, grid, values)
        inside = found.contains(xs)
        assert inside[vs >= threshold + 1e-9].all()
        assert not inside[vs <= threshold - 1e-9].any()

    def test_threshold_at_a_peak_node(self):
        # the rising crossing rounds one ulp past the middle node, which
        # the falling crossing hits exactly: the set is that node alone
        grid = np.array([-0.9328545796988239, -0.002042250045269256,
                         -0.001378619637017131])
        values = np.array([-1.4000606578982542, -0.20226662911306134,
                           -0.4885544830602013])
        u = superlevel_set(grid, values, values[1], grid[0], grid[-1])
        assert u.intervals == ((grid[1], grid[1]),)

    def test_single_bump(self):
        grid = np.linspace(-3, 3, 601)
        vals = np.exp(-grid ** 2)
        u = superlevel_set(grid, vals, np.exp(-1.0), -3, 3)
        assert len(u.intervals) == 1
        lo, hi = u.intervals[0]
        assert lo == pytest.approx(-1.0, abs=1e-2)
        assert hi == pytest.approx(1.0, abs=1e-2)

    def test_two_bumps(self):
        grid = np.linspace(-6, 6, 1201)
        vals = np.exp(-(grid - 3) ** 2) + np.exp(-(grid + 3) ** 2)
        u = superlevel_set(grid, vals, 0.5, -6, 6)
        assert len(u.intervals) == 2

    def test_threshold_above_max_is_empty(self):
        grid = np.linspace(0, 1, 11)
        u = superlevel_set(grid, np.full(11, 0.1), 0.5, 0, 1)
        assert not u

    def test_respects_band(self):
        grid = np.linspace(-5, 5, 1001)
        vals = np.ones(1001)
        u = superlevel_set(grid, vals, 0.5, -1, 1)
        (lo, hi), = u.intervals
        assert lo >= -1 and hi <= 1

    def test_linear_crossing_located(self):
        grid = np.array([0.0, 1.0])
        vals = np.array([0.0, 1.0])
        u = superlevel_set(grid, vals, 0.25, 0, 1)
        (lo, hi), = u.intervals
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(1.0)
