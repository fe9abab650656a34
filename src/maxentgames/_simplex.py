"""Dense two-phase primal simplex.  Desk-scale sizes only.

Pricing takes the most negative reduced cost, and the ratio test is Harris's
two-pass rule: the first pass bounds the step so that no basic variable drops
below -HARRIS_TOL, the second takes the largest pivot among the rows whose
ratio is within that bound.  A tie-breaking rule on exact ratios alone can
pick a pivot of 1e-10 and lose the equality rows to roundoff; the largest
pivot cannot.  After BLAND_AFTER degenerate pivots in a row, Bland's rule
(lowest-index entering column, lowest-index basic variable among the minimum
ratios) takes over until a step makes progress, so the iteration cannot cycle.
"""

from __future__ import annotations

import numpy as np

from .core import Infeasible

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-9
HARRIS_TOL = 1e-11    # basic variables may dip this far below zero
BLAND_AFTER = 50      # consecutive degenerate pivots before Bland's rule
LP_MAX_ITER = 50000   # pivots per phase


class Unbounded(OverflowError):
    """LP objective is unbounded below."""


class PivotLimit(ArithmeticError):
    """A simplex phase took more than LP_MAX_ITER pivots."""


def _pivot(tableau: np.ndarray, basis: list, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: list, n_cols: int) -> None:
    degenerate = 0
    for _ in range(LP_MAX_ITER):
        cost = tableau[-1, :n_cols]
        bland = degenerate >= BLAND_AFTER
        if bland:
            negative = np.flatnonzero(cost < -PIVOT_TOL)
            if negative.size == 0:
                return
            entering = int(negative[0])
        else:
            entering = int(np.argmin(cost))
            if cost[entering] >= -PIVOT_TOL:
                return
        col = tableau[:-1, entering]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            raise Unbounded("no positive pivot entry in the entering column")
        rhs = tableau[rows, -1]
        if bland:
            ratios = np.maximum(rhs, 0.0) / col[rows]
            tie = rows[ratios <= ratios.min() + 1e-12]
            leaving = min(tie, key=lambda r: basis[r])
        else:
            bound = float(((rhs + HARRIS_TOL) / col[rows]).min())
            within = rows[rhs / col[rows] <= bound]
            leaving = within[np.argmax(col[within])]
        # a leaving variable that dipped below zero leaves at zero: no step back
        tableau[leaving, -1] = max(tableau[leaving, -1], 0.0)
        gain = tableau[leaving, -1] / col[leaving] * -cost[entering]
        degenerate = degenerate + 1 if gain <= PIVOT_TOL else 0
        _pivot(tableau, basis, int(leaving), entering)
    raise PivotLimit(f"simplex phase exceeded {LP_MAX_ITER} pivots")


def solve_lp(c, a_eq, b_eq):
    """min c @ x  subject to  a_eq @ x = b_eq, x >= 0.

    Returns (x, value, reduced), where `reduced` is the reduced-cost row of
    the final basis: c - a_eq' y for the dual y of that basis, zero on the
    basic columns and nonnegative at the optimum.  A column with a positive
    reduced cost is zero in every optimal x (complementary slackness holds
    for any optimal dual).  Raises Infeasible or Unbounded, and PivotLimit
    when a phase takes more than LP_MAX_ITER pivots.
    """
    a = np.array(a_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2:
        raise ValueError("a_eq must be a matrix")
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("b_eq / c shapes do not match a_eq")

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: minimize the sum of artificial variables
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    _iterate(tableau, basis, n + m)
    if tableau[-1, -1] < -FEAS_TOL:
        raise Infeasible("phase-1 optimum positive: constraints unsatisfiable")

    # drive any artificial variables out of the basis
    for r in range(m):
        if basis[r] >= n:
            row = np.abs(tableau[r, :n])
            col = int(np.argmax(row))
            if row[col] > PIVOT_TOL:
                _pivot(tableau, basis, r, col)

    keep_rows = [r for r in range(m) if basis[r] < n]
    drop = [r for r in range(m) if basis[r] >= n]  # redundant constraints
    if drop:
        tableau = np.delete(tableau, drop, axis=0)
        basis = [basis[r] for r in keep_rows]

    # phase 2 on the original objective
    work = np.zeros((tableau.shape[0], n + 1))
    work[:-1, :n] = tableau[:-1, :n]
    work[:-1, -1] = tableau[:-1, -1]
    work[-1, :n] = c
    for r, bv in enumerate(basis):
        if abs(work[-1, bv]) > 0.0:
            work[-1] -= work[-1, bv] * work[r]
    _iterate(work, basis, n)

    x = np.zeros(n)
    for r, bv in enumerate(basis):
        x[bv] = max(float(work[r, -1]), 0.0)
    return x, float(c @ x), work[-1, :n].copy()
