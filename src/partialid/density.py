"""Kernel estimation of the signed density differences.

``f1(y)`` estimates p(y,1) - q(y,1) and ``f0(y)`` estimates q(y,0) - p(y,0),
where p / q are the sub-densities of (Y, D=d) conditional on the two
instrument arms.  Evaluation uses exact sorted sweeps over the outcomes (no
binning or FFT): results are deterministic and within 1e-12 of the direct
kernel sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .datamodel import Sample


@dataclass(frozen=True)
class DensityEstimate:
    """Density differences evaluated on a grid."""

    grid: np.ndarray
    f1: np.ndarray
    f0: np.ndarray
    h: float

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
    support."""
    m_l, m_u = band
    if not math.isfinite((m_u + h) - (m_l - h)):
        raise ConfigError(f"band [{m_l}, {m_u}] padded by h = {h} on each "
                          "side spans more than a float holds")
    return np.linspace(m_l - h, m_u + h, 512)


def cell_sum(sample: Sample, h, points, d, z):
    """Kernel sum over the (D=d, Z=z) cell, divided by h times the z-arm size.

    Estimates the sub-density of (Y, D=d) conditional on Z=z at ``points``.

    The kernel is 0.75 (1 - s^2) on its support, with s = (y - x) / h, so
    the sum is an exact sorted sweep (Fan & Marron 1994, JCGS): the cell
    outcomes within h of a point x form a ``searchsorted`` window, and
    prefix sums of 1 and s^2 give the kernel's sum over it.  The prefix
    sums are taken about the centres of 4h-wide blocks of outcomes, so
    every term stays O(1) however far the data spread in units of h (about
    one centre for the whole cell, the rounding grows with the squared
    spread and misses 1e-12 at small h), and a window, 2h wide, meets at
    most two blocks.  Cost O((n + points) log n); the result is
    deterministic and within 1e-12 of the direct sum.
    """
    if h <= 0:
        raise ConfigError("bandwidth must be positive")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    mask = (sample.d == d) & (sample.z == z)
    n_arm = int(np.count_nonzero(sample.z == z))
    ys = np.sort(sample.y[mask])
    if ys.size == 0:
        return np.zeros(points.size)
    # outcomes in units of h from the smallest, cut into blocks of width 4;
    # v is the offset from the block's centre, within [-2, 2]
    rel = (ys - ys[0]) / h
    block = np.floor(rel / 4.0)
    v = rel - (4.0 * block + 2.0)
    p1 = np.concatenate(([0.0], np.cumsum(v)))
    p2 = np.concatenate(([0.0], np.cumsum(v * v)))

    lo = np.searchsorted(ys, points - h, "left")
    hi = np.searchsorted(ys, points + h, "right")
    b0 = block[np.minimum(lo, ys.size - 1)]
    # the window's block b0 + 1, if any, starts at cut
    cut = np.clip(np.searchsorted(block, b0 + 1.0), lo, hi)
    x = (points - ys[0]) / h
    total = np.zeros(points.size)
    # the window's two pieces: (start, stop, block)
    for start, stop, b in ((lo, cut, b0), (cut, hi, b0 + 1.0)):
        count = stop - start
        shift = 4.0 * b + 2.0 - x  # s = v + shift
        sum_v = p1[stop] - p1[start]
        sum_s2 = p2[stop] - p2[start] + shift * (2.0 * sum_v + shift * count)
        total += 0.75 * (count - sum_s2)
    return total / (h * n_arm)


def _signed_differences(sample: Sample, h, points):
    """(f1, f0) at ``points``: side d's own-arm (Z=d) cell sum minus its
    opposite-arm cell sum, so both are positive where compliers are."""
    return tuple(cell_sum(sample, h, points, d=d, z=d)
                 - cell_sum(sample, h, points, d=d, z=1 - d) for d in (1, 0))


def estimate_density_diff(emp, sample: Sample, kernel, h,
                          grid) -> DensityEstimate:
    """Kernel estimate of the signed density differences on ``grid``.

    f1(y) = (1/h) [ sum K((Y_i-y)/h) 1(D=1,Z=1) / #Z=1
                  - sum K((Y_i-y)/h) 1(D=1,Z=0) / #Z=0 ]
    and f0 with the (D=0, Z=0) minus (D=0, Z=1) orientation.

    K is the Epanechnikov kernel 0.75 (1 - u^2) on [-1, 1].  Callers pass
    ``None`` for the unread ``emp`` and ``kernel``: the slots keep ``sample``
    and ``grid`` the second and fifth arguments, which the benchmark's
    tracer reads by position until ROADMAP item 1 binds them by name.
    """
    f1, f0 = _signed_differences(sample, h, grid)
    return DensityEstimate(grid=grid, f1=f1, f0=f0, h=float(h))
