"""Binary-outcome self-selection model with an encouragement instrument.

Agents observe both potential outcomes and, absent encouragement, pick the
better one; encouragement (Z=1) may distort choices, and the minimal total
probability of strictly inefficient choices consistent with the data is a
point-identified efficiency-loss measure.  The joint distribution of
(potential outcomes, choice, instrument) lives in a polyhedron of 16 cell
masses; sharp bounds on Pr(Y(1)=1 | Z=z) come out of linear programs over
that polyhedron and admit closed forms.  :func:`potential_outcome_bounds`
reports the closed forms and by default proves them on every call by LP
duality: for each bound end, a point of the polyhedron attains it and dual
multipliers show that no point does better, both checked against the
constraint matrices.  The simplex solver serves :func:`optimize_functional`.

Cell masses are C[d, y, k, z] = Pr(Y(1)=y, Y(0)=k, D=d, Z=z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InternalConsistencyError
from .simplex import solve_lp

_ATOL = 1e-9


def _cell_index(d, y, k, z):
    """Flat position of C[d, y, k, z] in the 16-vector (C-contiguous)."""
    return int(np.ravel_multi_index((d, y, k, z), (2, 2, 2, 2)))


@dataclass(frozen=True)
class RoyDistribution:
    """Observed joint distribution of (Y, D, Z), all binary.

    ``p[y, d, z]`` is Pr(Y=y, D=d, Z=z); entries are nonnegative and sum to
    one, and both instrument arms must have positive probability.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2, 2, 2):
            raise DataError("p must have shape (2, 2, 2) indexed [y, d, z]")
        if not np.isfinite(p).all():
            raise DataError("cell probabilities must be finite")
        if (p < -_ATOL).any():
            raise DataError("cell probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-8:
            raise DataError("cell probabilities must sum to one")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        # the arm masses scale every bound and constraint row
        object.__setattr__(self, "_pz", (float(p[:, :, 0].sum()),
                                         float(p[:, :, 1].sum())))
        if self.pr_z(0) <= 0 or self.pr_z(1) <= 0:
            raise DataError("both instrument arms need positive probability")

    @classmethod
    def from_sample(cls, y, d, z):
        """Empirical cell frequencies from binary data vectors."""
        y = np.asarray(y, dtype=int)
        d = np.asarray(d, dtype=int)
        z = np.asarray(z, dtype=int)
        if y.shape != d.shape or y.shape != z.shape or y.ndim != 1 or y.size == 0:
            raise DataError("y, d, z must be equal-length nonempty vectors")
        for name, v in (("y", y), ("d", d), ("z", z)):
            if not np.isin(v, (0, 1)).all():
                raise DataError(f"{name} must be binary")
        p = np.zeros((2, 2, 2))
        np.add.at(p, (y, d, z), 1.0)
        return cls(p / y.size)

    def pr_z(self, z):
        return self._pz[z]

    def pr_y_given_z(self, y, z):
        return float(self.p[y, :, z].sum()) / self.pr_z(z)

    def to_jsonable(self):
        return {
            f"pr_y{y}_d{d}_z{z}": float(self.p[y, d, z])
            for y in (0, 1) for d in (0, 1) for z in (0, 1)
        }


def check_roy_refutable(dist: RoyDistribution):
    """Test whether the data refute fully efficient selection.

    Efficient selection forces the fraction of zero outcomes not to rise
    under encouragement, so the model is refuted exactly when
    Pr(Y=0 | Z=1) > Pr(Y=0 | Z=0).  Returns a dict with the verdict and the
    slack Pr(Y=0|Z=0) - Pr(Y=0|Z=1) (negative means refuted).
    """
    slack = dist.pr_y_given_z(0, 0) - dist.pr_y_given_z(0, 1)
    return {"refuted": bool(slack < 0), "slack": float(slack)}


def min_efficiency_loss(dist: RoyDistribution):
    """Smallest total probability of strictly inefficient choices
    compatible with the observed distribution (joint scale, i.e. a mass of
    (Y, D, Z) cells, not conditional on Z=1)."""
    pz1, pz0 = dist.pr_z(1), dist.pr_z(0)
    py0z1 = float(dist.p[0, :, 1].sum())
    py0z0 = float(dist.p[0, :, 0].sum())
    return max(0.0, py0z1 - py0z0 * pz1 / pz0)


def _pattern(rows):
    """0/1 matrix with one row per list of (d, y, k, z) cells."""
    a = np.zeros((len(rows), 16))
    for i, cells in enumerate(rows):
        a[i, [_cell_index(*cell) for cell in cells]] = 1.0
    return a


# Observed (y, d, z) cell of each matching row, in row order.
_MATCHED = [(y, d, z) for z in (0, 1) for y in (0, 1) for d in (1, 0)]
_MATCHED_INDEX = tuple(np.array(axis) for axis in zip(*_MATCHED))
_ROW = {cell: i for i, cell in enumerate(_MATCHED)}
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
_NO_C0100, _LOSS = len(_MATCHED) + 1, len(_MATCHED) + 2
# instrument arm of each cell (z is the last axis of the cell index) and of
# each equality row
_CELL_ARM = np.tile([0, 1], 8)
_EQ_ARM = np.array([z for _, _, z in _MATCHED] + [0, 0, 1])
# 16 x 8 maps from a mass per matching row to its first and second cell
_FIRST, _SECOND = (_pattern([[pair[i]] for pair in _MATCHED_CELLS]).T
                   for i in (0, 1))
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


def optimize_functional(dist: RoyDistribution, c, sense="min"):
    """Optimise a linear functional ``c @ C`` of the 16 cell masses over the
    model polyhedron.  Returns ``(value, C)`` with C shaped (2, 2, 2, 2)."""
    c = np.asarray(c, dtype=float)
    if c.shape != (16,) and c.shape != (2, 2, 2, 2):
        raise DataError("c must have 16 entries")
    c = c.reshape(16)
    if sense not in ("min", "max"):
        raise DataError("sense must be 'min' or 'max'")
    A_eq, b_eq, A_ub, b_ub = build_polyhedron(dist)
    sgn = 1.0 if sense == "min" else -1.0
    value, x = solve_lp(sgn * c, A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)
    return sgn * value, x.reshape(2, 2, 2, 2)


def _objective_vector(z):
    """Coefficients of Pr(Y(1)=1, Z=z) as a functional of the cell masses."""
    c = np.zeros(16)
    for d in (0, 1):
        for k in (0, 1):
            c[_cell_index(d, 1, k, z)] = 1.0
    return c


# Pr(Y(1)=1, Z=z) to minimise and, negated, to maximise, for z = 0 then 1.
_BOUND_ENDS = [(z, sgn) for z in (0, 1) for sgn in (1.0, -1.0)]
_BOUND_OBJECTIVES = np.array([sgn * _objective_vector(z)
                              for z, sgn in _BOUND_ENDS])
_BOUND_ARM = np.array([z for z, _ in _BOUND_ENDS])
_BOUND_SIGN = np.array([sgn for _, sgn in _BOUND_ENDS])


def _closed_form_bounds(dist: RoyDistribution):
    """Closed-form ends of the bounds on Pr(Y(1)=1 | Z=z), keyed by z.

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
    """
    p = dist.p
    pz1, pz0 = dist.pr_z(1), dist.pr_z(0)
    m_el = min_efficiency_loss(dist)
    l0 = float(p[1, 1, 0]) / pz0
    u0 = (float(p[1, 1, 0]) + min(float(p[1, 0, 0]),
                                  pz0 / pz1 * float(p[1, :, 1].sum()))) / pz0
    l1 = (float(p[1, 1, 1]) + max(0.0, m_el - float(p[0, 1, 1]))) / pz1
    u1 = (float(p[1, :, 1].sum()) + min(m_el, float(p[0, 0, 1]))) / pz1
    return {0: (l0, u0), 1: (l1, u1)}


def _certificate(dist: RoyDistribution):
    """LP-duality certificate of each bound end, in ``_BOUND_OBJECTIVES``
    order: primal witnesses (16 x 4 cell masses) and the multipliers of a
    dual solution of each minimisation, on the equality rows (11 x 4) and
    on the inequality rows (2 x 4, nonpositive).

    Matching and efficiency at Z=0 leave six free cells: a = C[1,1,1,0] and
    b = C[0,1,1,0] on arm 0; e = C[1,0,1,1], f = C[1,1,1,1], g = C[0,1,0,1]
    and h = C[0,1,1,1] on arm 1.  They obey g + e = m and
    (a + b) / Pr(Z=0) <= (f + h) / Pr(Z=1); the worst-outcome row holds for
    any split.  Every witness takes a = 0, f = Pr(Y=1, D=1, Z=1) and
    e = m - g, which leaves the coupling row as slack as it can be.
    """
    p = dist.p
    pz0, pz1 = dist.pr_z(0), dist.pr_z(1)
    r = pz0 / pz1
    m = min_efficiency_loss(dist)
    p100, p001, p011 = float(p[1, 0, 0]), float(p[0, 0, 1]), float(p[0, 1, 1])
    p101, p111 = float(p[1, 0, 1]), float(p[1, 1, 1])
    py1z1 = float(p[1, :, 1].sum())
    b_capped = p100 > r * py1z1  # the coupling row caps b in u0
    g = min(m, p001)

    # mass of each matching row on its second cell; the rest is on its first
    split = np.zeros((len(_MATCHED), 4))
    split[_ROW[1, 0, 0], 1] = min(p100, r * py1z1)
    split[_ROW[0, 0, 1]] = (g, g, max(0.0, m - p011), g)
    split[_ROW[0, 1, 1]] = m - split[_ROW[0, 0, 1]]
    split[_ROW[1, 1, 1]] = p111
    split[_ROW[1, 0, 1]] = (p101, p101, 0.0, p101)
    witness = (_FIRST @ (p[_MATCHED_INDEX][:, None] - split)
               + _SECOND @ split)

    # multipliers of the dual of min c'x for l0 and l1, of max c'x for u0
    # and u1; the sign flip below turns the latter into minima of -c'x
    eq, ub = np.zeros((len(_A_EQ), 4)), np.zeros((2, 4))
    eq[_ROW[1, 1, 0], 0] = 1.0
    eq[[_ROW[1, 1, 0], _NO_C0100], 1] = 1.0
    if b_capped:
        ub[0, 1] = pz0
        eq[[_ROW[1, 1, 1], _ROW[1, 0, 1]], 1] = r
    else:
        eq[_ROW[1, 0, 0], 1] = 1.0
    eq[_ROW[1, 1, 1], 2] = 1.0
    if m > p011:
        eq[[_LOSS, _ROW[0, 1, 1]], 2] = (1.0, -1.0)
    eq[[_ROW[1, 1, 1], _ROW[1, 0, 1]], 3] = 1.0
    eq[_LOSS if m <= p001 else _ROW[0, 0, 1], 3] = 1.0
    return witness, eq * _BOUND_SIGN, ub * _BOUND_SIGN


def _check_certificate(dist: RoyDistribution, closed):
    """Raise :class:`InternalConsistencyError` unless the certificate
    proves every closed-form end within ``_ATOL`` on the conditional scale.

    The witness must satisfy every constraint, and both it and the dual
    solution must attain the closed form.  A cell with a negative reduced
    cost could lower a minimum by that cost times its mass, which its arm's
    Pr(Z=z) caps; the sum of these is a rigorous bound on how far the dual
    value can lie above the LP optimum.
    """
    A_eq, b_eq, A_ub, _ = build_polyhedron(dist)
    witness, eq, ub = _certificate(dist)
    pz = np.array([dist.pr_z(0), dist.pr_z(1)])
    cell_pz = pz[_CELL_ARM, None]
    end_pz = pz[_BOUND_ARM]
    target = np.array([closed[0], closed[1]]).ravel() * _BOUND_SIGN * end_pz
    reduced = _BOUND_OBJECTIVES.T - A_eq.T @ eq - A_ub.T @ ub
    worst = np.vstack((
        np.abs(A_eq @ witness - b_eq[:, None]) / pz[_EQ_ARM, None],
        A_ub @ witness,
        -witness / cell_pz,
        ub,
        np.abs((_BOUND_OBJECTIVES.T * witness).sum(axis=0) - target) / end_pz,
        np.abs(b_eq @ eq - target) / end_pz,
        (np.maximum(-reduced, 0.0) * cell_pz).sum(axis=0) / end_pz,
    )).max()
    if not worst <= _ATOL:
        raise InternalConsistencyError(
            f"closed-form bounds fail their optimality certificate by "
            f"{worst:.3g}: z0 ({closed[0][0]:.12f}, {closed[0][1]:.12f}), "
            f"z1 ({closed[1][0]:.12f}, {closed[1][1]:.12f})")


def potential_outcome_bounds(dist: RoyDistribution, verify=True):
    """Sharp bounds on Pr(Y(1)=1 | Z=z) for z in {0, 1}.

    Closed-form expressions are evaluated and, when ``verify`` is set,
    proved optimal over the model polyhedron by an LP-duality certificate
    checked against the matrices of :func:`build_polyhedron`; a residual
    beyond 1e-9 on the conditional scale raises
    :class:`InternalConsistencyError`.  No linear program is solved.
    Returns ``{"z0": (lo, hi), "z1": (lo, hi), "min_efficiency_loss": m}``.
    """
    closed = _closed_form_bounds(dist)
    if verify:
        _check_certificate(dist, closed)
    return {
        "z0": closed[0],
        "z1": closed[1],
        "min_efficiency_loss": min_efficiency_loss(dist),
    }
