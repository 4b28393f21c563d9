"""Kernel estimation of the signed density differences.

``f1(y)`` estimates p(y,1) - q(y,1) and ``f0(y)`` estimates q(y,0) - p(y,0),
where p / q are the sub-densities of (Y, D=d) conditional on the two
instrument arms.  Each is one weighted ``kernel_sum`` over the D = d
outcomes, an exact sorted sweep (no binning or FFT): results are
deterministic and within 1e-12 of the direct kernel sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class DensityEstimate:
    """Density differences evaluated on a grid."""

    grid: np.ndarray
    f1: np.ndarray
    f0: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        f1 = np.asarray(self.f1, dtype=float)
        f0 = np.asarray(self.f0, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ConfigError("grid must be a nonempty 1-d array")
        if not (np.diff(grid) > 0).all():
            raise ConfigError("grid must be strictly increasing")
        if grid.size != f1.size or grid.size != f0.size:
            raise ConfigError("grid, f1, f0 must have equal length")
        if not (np.isfinite(f1).all() and np.isfinite(f0).all()):
            raise ConfigError("density values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f0", f0)


def default_grid(band, h):
    """512 equispaced points padding the trimming band by one kernel
    support, each kept once where a span a few ulps wide repeats them."""
    m_l, m_u = band
    if not math.isfinite((m_u + h) - (m_l - h)):
        raise ConfigError(f"band [{m_l}, {m_u}] padded by h = {h} on each "
                          "side spans more than a float holds")
    grid = np.linspace(m_l - h, m_u + h, 512)  # never decreasing
    return grid[np.diff(grid, prepend=-math.inf) > 0]


def kernel_sum(y, w, h, points):
    """sum_i w_i K((y_i - x) / h) / h at each x in ``points``, with ``w``
    one weight per outcome or one for all.

    K is 0.75 (1 - s^2) on [-1, 1], so the sum is an exact sorted sweep
    (Fan & Marron 1994, JCGS): the outcomes within h of x form a
    ``searchsorted`` window, and weighted prefix sums of 1 and s^2 give the
    kernel's sum over it.  The prefix sums are taken about the centres of
    4h-wide blocks of outcomes, so every term stays O(1) however far the
    data spread in units of h, and a window, 2h wide, meets at most two
    blocks.  Tied outcomes merge first, their weights summed, so integer
    weights that cancel exactly give exactly 0.  Cost O((n + points) log n);
    within 1e-12 of the direct sum.
    """
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"bandwidth must be positive and finite, got {h}")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    y = np.asarray(y, dtype=float)
    order = np.argsort(y)
    ys, ws = y[order], np.broadcast_to(w, y.shape)[order]
    if (ys[1:] == ys[:-1]).any():  # merging costs more than this test
        first = np.flatnonzero(np.diff(ys, prepend=-np.inf))  # of each run
        ys, ws = ys[first], np.add.reduceat(ws, first)
    if ys.size == 0:
        return np.zeros(points.size)
    # rel and x below divide offsets by h; Python floats raise no warning
    lo = float(min(ys[0], points.min()))
    hi = float(max(ys[-1], points.max()))
    if not math.isfinite((hi - lo) / h):
        raise ConfigError(f"bandwidth h = {h} is too small: the span of the "
                          "outcomes and points in units of h overflows")
    # outcomes in units of h from the smallest, cut into blocks of width 4;
    # v is the offset from the block's centre, within [-2, 2]
    rel = (ys - ys[0]) / h
    block = np.floor(rel / 4.0)
    v = rel - (4.0 * block + 2.0)
    p0, p1, p2 = (np.concatenate(([0.0], np.cumsum(t)))
                  for t in (ws, ws * v, ws * v * v))

    lo = np.searchsorted(ys, points - h, "left")
    hi = np.searchsorted(ys, points + h, "right")
    b0 = block[np.minimum(lo, ys.size - 1)]
    # the window's block b0 + 1, if any, starts at cut
    cut = np.clip(np.searchsorted(block, b0 + 1.0), lo, hi)
    x = (points - ys[0]) / h
    total = np.zeros(points.size)
    # the window's two pieces: (start, stop, block)
    for start, stop, b in ((lo, cut, b0), (cut, hi, b0 + 1.0)):
        sum_w = p0[stop] - p0[start]
        shift = 4.0 * b + 2.0 - x  # s = v + shift
        sum_v = p1[stop] - p1[start]
        sum_s2 = p2[stop] - p2[start] + shift * (2.0 * sum_v + shift * sum_w)
        total += 0.75 * (sum_w - sum_s2)
    return total / h


def _signed_weights(sample):
    """Each observation's weight in f_d, +1/#{Z=z} in its side's own arm
    (Z = D) and -1/#{Z=z} in the other, times #{Z=1} #{Z=0}: integers, so a
    side whose arms hold the same outcomes in equal numbers sums to exactly
    0.  Returns the weights and that product."""
    z, n1 = sample.z, np.count_nonzero(sample.z)
    n0 = z.size - n1
    # indexed by 2d + z
    w = np.array([n1, -n0, -n1, n0], dtype=float)[2 * sample.d + z]
    return w, float(n1 * n0)


def estimate_density_diff(emp, sample, kernel, h, grid) -> DensityEstimate:
    """Kernel estimate of the signed density differences on ``grid``.

    f1(y) = (1/h) [ sum K((Y_i-y)/h) 1(D=1,Z=1) / #Z=1
                  - sum K((Y_i-y)/h) 1(D=1,Z=0) / #Z=0 ]
    and f0 with the (D=0, Z=0) minus (D=0, Z=1) orientation, each one
    ``kernel_sum`` sweep over its side.  Callers pass ``None`` for the
    unread ``emp`` and ``kernel``: the slots keep ``sample`` and ``grid``
    the second and fifth arguments, which the benchmark's tracer reads by
    position until ROADMAP item 1 binds them by name.
    """
    w, scale = _signed_weights(sample)
    f1, f0 = (kernel_sum(sample.y[side], w[side], h, grid) / scale
              for side in (sample.d == 1, sample.d == 0))
    return DensityEstimate(grid=grid, f1=f1, f0=f0)
