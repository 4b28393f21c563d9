"""A small dense two-phase primal simplex solver.

Solves  min c'x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.
Pivoting uses Bland's rule, so the method cannot cycle; problems here are
tiny (tens of variables), making a dense tableau the simplest reliable
choice.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalConsistencyError

_TOL = 1e-10


class InfeasibleError(InternalConsistencyError):
    """The constraint system admits no nonnegative solution."""


class UnboundedError(InternalConsistencyError):
    """The objective is unbounded below on the feasible set."""


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factor = T[:, col].copy()
    factor[row] = 0.0
    T -= np.outer(factor, T[row])
    basis[row] = col


def _run_simplex(T, basis, ncols):
    """Iterate Bland pivots on tableau T (last row = reduced costs,
    last column = rhs) until optimal; raises on unboundedness."""
    while True:
        cost = T[-1, :ncols]
        enter_candidates = np.flatnonzero(cost < -_TOL)
        if enter_candidates.size == 0:
            return
        col = int(enter_candidates[0])  # Bland: smallest index enters
        ratios = np.full(T.shape[0] - 1, np.inf)
        pos = T[:-1, col] > _TOL
        ratios[pos] = T[:-1, -1][pos] / T[:-1, col][pos]
        if not np.isfinite(ratios).any():
            raise UnboundedError("objective unbounded below")
        best = ratios.min()
        rows = np.flatnonzero(ratios <= best + _TOL)
        # Bland: among minimal ratios, leave the smallest basis index
        row = int(rows[np.argmin([basis[r] for r in rows])])
        _pivot(T, basis, row, col)


def _feasible_tableau(A_eq, b_eq, A_ub, b_ub):
    """Phase 1: a basic feasible tableau ``(T, basis)`` over the variables
    and one slack per upper-bound row, its cost row left zero."""
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    n_slack = 0 if A_ub is None else A_ub.shape[0]
    blocks, rhs = [], []
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        blocks.append(np.hstack([A_eq, np.zeros((A_eq.shape[0], n_slack))]))
        rhs.append(np.asarray(b_eq, dtype=float).ravel())
    if A_ub is not None:
        blocks.append(np.hstack([A_ub, np.eye(n_slack)]))
        rhs.append(np.asarray(b_ub, dtype=float).ravel())
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    # normalise to b >= 0 so artificial variables start feasible
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    m, ntot = A.shape

    # minimise the sum of artificial variables
    T = np.vstack([
        np.hstack([A, np.eye(m), b[:, None]]),
        np.concatenate([-A.sum(axis=0), np.zeros(m), [-b.sum()]]),
    ])
    basis = list(range(ntot, ntot + m))
    _run_simplex(T, basis, ntot)
    if T[-1, -1] < -1e-8:
        raise InfeasibleError("no nonnegative solution satisfies the constraints")
    # drive any lingering artificial variables out of the basis
    for r in range(m):
        if basis[r] >= ntot:
            piv = np.flatnonzero(np.abs(T[r, :ntot]) > _TOL)
            if piv.size:
                _pivot(T, basis, r, int(piv[0]))

    keep = [r for r in range(m) if basis[r] < ntot]
    T2 = np.vstack([np.hstack([T[keep, :ntot], T[keep, -1:]]),
                    np.zeros(ntot + 1)])
    return T2, [basis[r] for r in keep]


def _phase2(T, basis, c):
    """Minimise ``c @ x`` (slacks cost zero) from the feasible tableau;
    returns ``(value, x)`` with x over the variables of c."""
    ntot = T.shape[1] - 1
    full_c = np.concatenate([c, np.zeros(ntot - c.size)])
    T[-1, :ntot] = full_c
    for r, bcol in enumerate(basis):
        T[-1] -= full_c[bcol] * T[r]
    _run_simplex(T, basis, ntot)
    x = np.zeros(ntot)
    x[basis] = T[:-1, -1]
    return float(full_c @ x), x[:c.size]


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    """Minimise ``c @ x`` over ``x >= 0`` with equality and/or upper-bound
    constraints.  Returns ``(value, x)``; raises :class:`InfeasibleError`
    or :class:`UnboundedError` when no optimum exists.
    """
    c = np.asarray(c, dtype=float)
    if A_eq is None and A_ub is None:
        # only x >= 0 constrains the problem
        if np.any(c < 0):
            raise UnboundedError("objective decreases without bound")
        return 0.0, np.zeros(c.size)
    T, basis = _feasible_tableau(A_eq, b_eq, A_ub, b_ub)
    return _phase2(T, basis, c)
