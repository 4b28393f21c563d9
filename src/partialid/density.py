"""Kernel estimation of the signed density differences.

``f1(y)`` estimates p(y,1) - q(y,1) and ``f0(y)`` estimates q(y,0) - p(y,0),
where p / q are the sub-densities of (Y, D=d) conditional on the two
instrument arms.  Evaluation uses exact sorted sweeps over the outcomes (no
binning or FFT): results are deterministic and within 1e-12 of the direct
kernel sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .datamodel import EmpiricalPQ, Sample

#: each kernel shape on its support [-1, 1] as c0 + c1 |s| + c2 s^2
_POLYNOMIAL = {"epanechnikov": (0.75, 0.0, -0.75),
               "triangular": (1.0, -1.0, 0.0)}


@dataclass(frozen=True)
class Kernel:
    """A symmetric probability kernel with compact support [-A, A].

    Supported shapes: ``epanechnikov`` (default) and ``triangular``.
    Both integrate to one, have zero first moment and finite second moment,
    and are continuous on their support.
    """

    shape: str = "epanechnikov"
    A: float = 1.0

    def __post_init__(self):
        if self.shape not in _POLYNOMIAL:
            raise ConfigError(f"unknown kernel shape {self.shape!r}")
        if self.A <= 0:
            raise ConfigError("kernel support half-width must be positive")

    def __call__(self, u):
        u = np.asarray(u, dtype=float) / self.A
        if self.shape == "epanechnikov":
            vals = 0.75 * (1.0 - u * u)
        else:
            vals = 1.0 - np.abs(u)
        return np.where(np.abs(u) <= 1.0, vals, 0.0) / self.A

    @property
    def max_value(self):
        return _POLYNOMIAL[self.shape][0] / self.A


@dataclass(frozen=True)
class DensityEstimate:
    """Density differences evaluated on a grid."""

    grid: np.ndarray
    f1: np.ndarray
    f0: np.ndarray
    h: float
    kernel: Kernel = field(default_factory=Kernel)

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

    def value(self, y, d):
        vals = self.f1 if d == 1 else self.f0
        return np.interp(y, self.grid, vals)


def default_grid(band, h, kernel=None, num=512):
    """Equispaced grid padding the trimming band by one kernel support."""
    A = (kernel or Kernel()).A
    m_l, m_u = band
    return np.linspace(m_l - A * h, m_u + A * h, num)


def cell_sum(sample: Sample, kernel: Kernel, h, points, d, z):
    """Kernel sum over the (D=d, Z=z) cell, divided by h times the z-arm size.

    Estimates the sub-density of (Y, D=d) conditional on Z=z at ``points``.

    Both kernel shapes are polynomials in |s| on their support, with
    s = (y - x) / w and w = A h, so the sum is an exact sorted sweep (Fan &
    Marron 1994, JCGS): the cell outcomes within w of a point x form a
    ``searchsorted`` window, and prefix sums of 1, s and s^2 give the
    polynomial's sum over it.  The prefix sums are taken about the centres
    of 4w-wide blocks of outcomes, so every term stays O(1) however far the
    data spread in units of w (about one centre for the whole cell, the
    rounding grows with the squared spread and misses 1e-12 at small h),
    and a window, 2w wide, meets at most two blocks.  Cost
    O((n + points) log n); the result is deterministic and within 1e-12 of
    the direct sum.
    """
    if h <= 0:
        raise ConfigError("bandwidth must be positive")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    mask = (sample.d == d) & (sample.z == z)
    n_arm = int(np.count_nonzero(sample.z == z))
    ys = np.sort(sample.y[mask])
    if ys.size == 0:
        return np.zeros(points.size)
    w = kernel.A * h
    # outcomes in units of w from the smallest, cut into blocks of width 4;
    # v is the offset from the block's centre, within [-2, 2]
    rel = (ys - ys[0]) / w
    block = np.floor(rel / 4.0)
    v = rel - (4.0 * block + 2.0)
    p1 = np.concatenate(([0.0], np.cumsum(v)))
    p2 = np.concatenate(([0.0], np.cumsum(v * v)))

    lo = np.searchsorted(ys, points - w, "left")
    mid = np.searchsorted(ys, points, "left")  # s < 0 below mid
    hi = np.searchsorted(ys, points + w, "right")
    b0 = block[np.minimum(lo, ys.size - 1)]
    # the window's block b0 + 1, if any, starts at cut
    cut = np.clip(np.searchsorted(block, b0 + 1.0), lo, hi)
    x = (points - ys[0]) / w
    c0, c1, c2 = _POLYNOMIAL[kernel.shape]
    left_end, right_start = np.minimum(cut, mid), np.maximum(cut, mid)
    total = np.zeros(points.size)
    # the window's four pieces: (start, stop, block, sign of s)
    for start, stop, b, sign in ((lo, left_end, b0, -1.0),
                                 (left_end, cut, b0, 1.0),
                                 (cut, right_start, b0 + 1.0, -1.0),
                                 (right_start, hi, b0 + 1.0, 1.0)):
        count = stop - start
        shift = 4.0 * b + 2.0 - x  # s = v + shift
        sum_v = p1[stop] - p1[start]
        sum_s = sum_v + shift * count
        sum_s2 = p2[stop] - p2[start] + shift * (2.0 * sum_v + shift * count)
        total += c0 * count + c1 * sign * sum_s + c2 * sum_s2
    return total / (w * n_arm)


def estimate_density_diff(emp: EmpiricalPQ, sample: Sample, kernel: Kernel,
                          h, grid) -> DensityEstimate:
    """Kernel estimate of the signed density differences on ``grid``.

    f1(y) = (1/h) [ sum K((Y_i-y)/h) 1(D=1,Z=1) / #Z=1
                  - sum K((Y_i-y)/h) 1(D=1,Z=0) / #Z=0 ]
    and f0 with the (D=0, Z=0) minus (D=0, Z=1) orientation.
    """
    if h <= 0:
        raise ConfigError("bandwidth must be positive")
    if emp.n_z1 == 0 or emp.n_z0 == 0:
        raise ConfigError("both instrument arms must be present")
    grid = np.asarray(grid, dtype=float)
    f1 = cell_sum(sample, kernel, h, grid, d=1, z=1) - cell_sum(sample, kernel, h, grid, d=1, z=0)
    f0 = cell_sum(sample, kernel, h, grid, d=0, z=0) - cell_sum(sample, kernel, h, grid, d=0, z=1)
    return DensityEstimate(grid=grid, f1=f1, f0=f0, h=float(h), kernel=kernel)


def sup_deviation(est: DensityEstimate, reference, d=1):
    """Max over the grid of |f_h(., d) - reference(.)|.

    ``reference`` is a callable evaluated on the grid (vectorised or scalar).
    """
    try:
        ref = np.asarray(reference(est.grid), dtype=float)
        if ref.shape != est.grid.shape:
            raise TypeError
    except TypeError:
        ref = np.array([float(reference(x)) for x in est.grid])
    vals = est.f1 if d == 1 else est.f0
    return float(np.max(np.abs(vals - ref)))
