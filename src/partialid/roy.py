"""Binary-outcome self-selection model with an encouragement instrument.

Agents observe both potential outcomes and, absent encouragement, pick the
better one; encouragement (Z=1) may distort choices, and the minimal total
probability of strictly inefficient choices consistent with the data is a
point-identified efficiency-loss measure.  The joint distribution of
(potential outcomes, choice, instrument) lives in a polyhedron of 16 cell
masses; sharp bounds on Pr(Y(1)=1 | Z=z) are linear programs over that
polyhedron and admit closed forms, which :func:`potential_outcome_bounds`
reports.  :func:`build_polyhedron` gives the polyhedron itself, on which
the tests solve those programs as the closed forms' oracle.

The refutability slack, the minimal loss and the four bound ends are scalar
closed forms on the eight observed cell masses, which
:class:`RoyDistribution` reads once as Python floats; numpy is used only
where arrays are the point (the polyhedron and counting a sample),
and a distribution's array ``p`` is built only when one of them reads it.

Cell masses are C[d, y, k, z] = Pr(Y(1)=y, Y(0)=k, D=d, Z=z).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
# unused: the benchmark's tracer patches the boundary ("roy", "solve_lp")
from .simplex import solve_lp

_ATOL = 1e-9
_FLOAT = np.dtype(float)

# to_jsonable keys in cell order, position 4y + 2d + z
_CELL_KEYS = tuple(f"pr_y{y}_d{d}_z{z}"
                   for y in (0, 1) for d in (0, 1) for z in (0, 1))


def _cell_index(d, y, k, z):
    """Flat position of C[d, y, k, z] in the 16-vector (C-contiguous)."""
    return int(np.ravel_multi_index((d, y, k, z), (2, 2, 2, 2)))


class RoyDistribution:
    """Observed joint distribution of (Y, D, Z), all binary.

    Built from ``p[y, d, z]`` = Pr(Y=y, D=d, Z=z): entries nonnegative
    (down to -1e-9, clipped to zero) and summing to one within 1e-8, with
    both instrument arms of positive probability.  The eight clipped masses
    are kept as a tuple of Python floats at position 4y + 2d + z
    (``p.ravel()`` order), and every per-distribution quantity is scalar
    arithmetic on them, summed in the order numpy's reductions over ``p``
    use.  ``p`` gives the same masses as an array, built on the first
    read; the polyhedron reads it, the closed forms do not.  Two
    distributions are equal when their clipped masses are.
    """

    __slots__ = ("_cells", "_pz", "_p")

    def __init__(self, p):
        # a float64 ndarray is read as it is; anything else is converted
        if type(p) is not np.ndarray or p.dtype is not _FLOAT:
            p = np.asarray(p, dtype=float)
        if p.shape != (2, 2, 2):
            raise DataError("p must have shape (2, 2, 2) indexed [y, d, z]")
        f = p.ravel().tolist()
        if not all(map(math.isfinite, f)):
            raise DataError("cell probabilities must be finite")
        low = min(f)
        if low < -_ATOL:
            raise DataError("cell probabilities must be nonnegative")
        # numpy's pairwise order for eight floats, as p.sum() adds them
        total = (((f[0] + f[1]) + (f[2] + f[3]))
                 + ((f[4] + f[5]) + (f[6] + f[7])))
        if abs(total - 1.0) > 1e-8:
            raise DataError("cell probabilities must sum to one")
        # clipped at zero; with every cell positive there is nothing to clip
        f = tuple(f if low > 0.0 else [x if x > 0.0 else 0.0 for x in f])
        self._cells = f
        # the arm masses scale every bound and constraint row
        self._pz = pz = (f[0] + f[2] + f[4] + f[6], f[1] + f[3] + f[5] + f[7])
        self._p = None
        if pz[0] <= 0 or pz[1] <= 0:
            raise DataError("both instrument arms need positive probability")

    @property
    def p(self):
        """The clipped masses as a read-only (2, 2, 2) array indexed
        [y, d, z], a new array built on the first read and kept."""
        if self._p is None:
            p = np.array(self._cells).reshape(2, 2, 2)
            p.flags.writeable = False
            self._p = p
        return self._p

    def __eq__(self, other):
        if not isinstance(other, RoyDistribution):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self):
        return hash(self._cells)

    def __repr__(self):
        f = self._cells
        return (f"RoyDistribution([[{list(f[0:2])}, {list(f[2:4])}], "
                f"[{list(f[4:6])}, {list(f[6:8])}]])")

    @classmethod
    def from_sample(cls, y, d, z):
        """Empirical cell frequencies from binary data vectors: each value
        must equal 0 or 1 before it is read as an integer."""
        y, d, z = cols = [np.asarray(v) for v in (y, d, z)]
        if y.shape != d.shape or y.shape != z.shape or y.ndim != 1 or y.size == 0:
            raise DataError("y, d, z must be equal-length nonempty vectors")
        for name, v in zip("ydz", cols):
            if ((v != 0) & (v != 1)).any():  # NaN is neither
                raise DataError(f"{name} must be binary")
        y, d, z = (v.astype(int) for v in cols)
        counts = np.bincount(4 * y + 2 * d + z, minlength=8)
        return cls(counts.reshape(2, 2, 2) / y.size)

    def pr_z(self, z):
        return self._pz[z]

    def pr_y_given_z(self, y, z):
        f = self._cells
        return (f[4 * y + z] + f[4 * y + 2 + z]) / self._pz[z]

    def to_jsonable(self):
        return dict(zip(_CELL_KEYS, self._cells))


def check_roy_refutable(dist: RoyDistribution):
    """Test whether the data refute fully efficient selection.

    Efficient selection forces the fraction of zero outcomes not to rise
    under encouragement, so the model is refuted exactly when
    Pr(Y=0 | Z=1) > Pr(Y=0 | Z=0).  Returns a dict with the verdict and the
    slack Pr(Y=0|Z=0) - Pr(Y=0|Z=1) (negative means refuted).
    """
    slack = dist.pr_y_given_z(0, 0) - dist.pr_y_given_z(0, 1)
    return {"refuted": slack < 0, "slack": slack}


def min_efficiency_loss(dist: RoyDistribution):
    """Smallest total probability of strictly inefficient choices
    compatible with the observed distribution (joint scale, i.e. a mass of
    (Y, D, Z) cells, not conditional on Z=1)."""
    f = dist._cells
    pz0, pz1 = dist._pz
    # Pr(Y=0, Z=1) - Pr(Y=0, Z=0) Pr(Z=1) / Pr(Z=0)
    return max(0.0, (f[1] + f[3]) - (f[0] + f[2]) * pz1 / pz0)


def _pattern(rows):
    """0/1 matrix with one row per list of (d, y, k, z) cells."""
    a = np.zeros((len(rows), 16))
    for i, cells in enumerate(rows):
        a[i, [_cell_index(*cell) for cell in cells]] = 1.0
    return a


# Observed (y, d, z) cell of each matching row, in row order.
_MATCHED = [(y, d, z) for z in (0, 1) for y in (0, 1) for d in (1, 0)]
_MATCHED_INDEX = tuple(np.array(axis) for axis in zip(*_MATCHED))
# observational matching: the chosen potential outcome equals Y, so each
# observed cell's mass splits between two cells C[d, y, k, z]
_MATCHED_CELLS = [[(1, y, k, z) for k in (0, 1)] if d
                  else [(0, y1, y, z) for y1 in (0, 1)]
                  for y, d, z in _MATCHED]
_A_EQ = _pattern(
    _MATCHED_CELLS
    # no inefficient choice without encouragement
    + [[(1, 0, 1, 0)], [(0, 1, 0, 0)]]
    # encouragement induces exactly the minimal inefficient mass
    + [[(0, 1, 0, 1), (1, 0, 1, 1)]])
# instrument arm of each cell (z is the last axis of the cell index)
_CELL_ARM = np.tile([0, 1], 8)
# best outcome no more likely without encouragement; worst outcome no more
# likely with it.  Each column is scaled by 1 / Pr(Z=z) of its own arm.
_A_UB_SIGNS = (_pattern([[(d, 1, 1, 0) for d in (0, 1)],
                         [(d, 0, 0, 1) for d in (0, 1)]])
               - _pattern([[(d, 1, 1, 1) for d in (0, 1)],
                           [(d, 0, 0, 0) for d in (0, 1)]]))


def build_polyhedron(dist: RoyDistribution):
    """Constraint system over the 16 cell masses C[d, y, k, z].

    Returns ``(A_eq, b_eq, A_ub, b_ub)`` encoding: matching of each observed
    (Y, D, Z) cell; efficiency at Z=0 (no strictly dominated choice has
    mass); the minimal-loss equality at Z=1; and the two stochastic
    dominance comparisons of best and worst potential outcomes across
    instrument arms.  Nonnegativity is implicit in the LP solver.  The 0/1
    pattern is fixed; a distribution sets only ``b_eq`` and the
    1 / Pr(Z=z) scaling of ``A_ub``.
    """
    inv_pz = np.array([1.0 / dist.pr_z(0), 1.0 / dist.pr_z(1)])
    b_eq = np.concatenate([dist.p[_MATCHED_INDEX],
                           [0.0, 0.0, min_efficiency_loss(dist)]])
    a_ub = _A_UB_SIGNS * inv_pz[_CELL_ARM]
    return _A_EQ.copy(), b_eq, a_ub, np.zeros(2)


def potential_outcome_bounds(dist: RoyDistribution, verify=True):
    """Sharp bounds on Pr(Y(1)=1 | Z=z) for z in {0, 1}, in closed form.

    Pr(Y(1)=1, Z=1) is the observed Pr(Y=1, D=1, Z=1) plus C[0, 1, 1, 1]
    plus C[0, 1, 0, 1].  Matching caps C[0, 1, 1, 1] at Pr(Y=1, D=0, Z=1).
    C[0, 1, 0, 1] is a strictly inefficient choice, so it is part of the
    inefficient mass m = C[0, 1, 0, 1] + C[1, 0, 1, 1]; matching also caps
    it at Pr(Y=0, D=0, Z=1).  Hence

        u1 = (Pr(Y=1, Z=1) + min(m, Pr(Y=0, D=0, Z=1))) / Pr(Z=1),

    and the rest of m fits in C[1, 0, 1, 1], which matching caps at
    Pr(Y=0, D=1, Z=1), since m <= Pr(Y=0, Z=1).  The ``min`` binds only
    when m > Pr(Y=0, D=0, Z=1), which needs m > 0, so it changes nothing
    on data that do not refute efficient selection.

    Each end equals the optimum of a linear program over
    :func:`build_polyhedron`; the tests check them against LP solvers.
    ``verify`` is kept, unread, because the benchmark's roy-sweep workload
    still passes ``verify=False``.
    Returns ``{"z0": (lo, hi), "z1": (lo, hi), "min_efficiency_loss": m}``.
    """
    f = dist._cells
    pz0, pz1 = dist._pz
    m_el = min_efficiency_loss(dist)
    py1z1 = f[5] + f[7]  # Pr(Y=1, Z=1)
    l0 = f[6] / pz0
    u0 = (f[6] + min(f[4], pz0 / pz1 * py1z1)) / pz0
    # m - Pr(Y=0, D=1, Z=1) <= Pr(Y=0, D=0, Z=1) holds exactly; the cap
    # keeps it so after rounding, and with it l1 <= u1
    l1 = (f[7] + max(0.0, min(m_el - f[3], f[1]))) / pz1
    u1 = (py1z1 + min(m_el, f[1])) / pz1
    return {"z0": (l0, u0), "z1": (l1, u1), "min_efficiency_loss": m_el}
