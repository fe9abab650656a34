"""Dense two-phase primal simplex.  Desk-scale sizes only.

Pricing takes the most negative reduced cost, and the ratio test is Harris's
two-pass rule: the first pass bounds the step so that no basic variable drops
below -HARRIS_TOL, the second takes the largest pivot among the rows whose
ratio is within that bound.  A tie-breaking rule on exact ratios alone can
pick a pivot of 1e-10 and lose the equality rows to roundoff; the largest
pivot cannot.  After BLAND_AFTER degenerate pivots in a row, Bland's rule
(lowest-index entering column, lowest-index basic variable among the minimum
ratios) takes over until a step makes progress, so the iteration cannot cycle.

`solve_lps` runs a stack of LPs that share their shape in lockstep: one
tableau per row in one array, every row pivoting at once, each doing the
arithmetic `solve_lp` does, so every row's result is `solve_lp`'s bit for
bit.  A row that is done takes no further step, and a redundant constraint
row stays in its tableau, masked, where `solve_lp` deletes it.  A one-row
stack goes to `solve_lp` itself, which costs less.

`simplex_qp` maximizes a concave quadratic over the weight simplex by a
primal active-set method, the same desk scale.
"""

from __future__ import annotations

import numpy as np

from .core import Infeasible

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-9
HARRIS_TOL = 1e-11    # basic variables may dip this far below zero
BLAND_AFTER = 50      # consecutive degenerate pivots before Bland's rule
LP_MAX_ITER = 50000   # pivots per phase
QP_MAX_CHANGES = 10000  # changes of `simplex_qp`'s free set
QP_RCOND = 1e-12      # KKT eigenvalues below this, relative to the largest, are its null space
QP_TOL = 1e-14        # KKT residuals and multiplier excesses below this, relative, are float noise


class Unbounded(OverflowError):
    """LP objective is unbounded below."""


class PivotLimit(ArithmeticError):
    """A simplex phase took more than LP_MAX_ITER pivots."""


def _pivot(tableau: np.ndarray, basis: list, row: int, col: int) -> None:
    prow = tableau[row]
    prow /= prow[col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= factor[:, None] * prow
    basis[row] = col


def _least(ratios: list) -> float:
    """min(ratios); a nan among them leaves the ratio test no leaving row."""
    if any(q != q for q in ratios):
        raise ValueError("no leaving row: the ratio test met a nan")
    return min(ratios)


def _iterate(tableau: np.ndarray, basis: list, n_cols: int) -> None:
    degenerate = 0
    cost = tableau[-1, :n_cols]   # views: each pivot updates the tableau in place
    body = tableau[:-1]
    for _ in range(LP_MAX_ITER):
        bland = degenerate >= BLAND_AFTER
        if bland:
            negative = (cost < -PIVOT_TOL).nonzero()[0]
            if negative.size == 0:
                return
            entering = int(negative[0])
        else:
            entering = int(cost.argmin())
            if cost[entering] >= -PIVOT_TOL:
                return
        # the ratio test runs on Python floats, the same divisions and
        # comparisons as numpy's, at less cost on a few rows
        col = body[:, entering].tolist()
        rows = [r for r, v in enumerate(col) if v > PIVOT_TOL]
        if not rows:
            raise Unbounded("no positive pivot entry in the entering column")
        rhs = body[:, -1].tolist()
        if bland:
            ratios = [max(rhs[r], 0.0) / col[r] for r in rows]
            low = _least(ratios) + 1e-12
            leaving = min((r for r, q in zip(rows, ratios) if q <= low), key=basis.__getitem__)
        else:
            bound = _least([(rhs[r] + HARRIS_TOL) / col[r] for r in rows])
            leaving = max((r for r in rows if rhs[r] / col[r] <= bound), key=col.__getitem__)
        # a leaving variable that dipped below zero leaves at zero: no step back
        level = rhs[leaving]
        if level < 0.0:
            body[leaving, -1] = level = 0.0
        gain = level / col[leaving] * -cost[entering]
        degenerate = degenerate + 1 if gain <= PIVOT_TOL else 0
        _pivot(tableau, basis, leaving, entering)
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
    basis = list(range(n, n + m))
    tableau[range(m), basis] = 1.0
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    _iterate(tableau, basis, n + m)
    if tableau[-1, -1] < -FEAS_TOL:
        raise Infeasible("phase-1 optimum positive: constraints unsatisfiable")

    # drive any artificial variables out of the basis; an artificial that
    # stays marks a redundant constraint, whose row is dropped
    keep = []
    for r in range(m):
        if basis[r] >= n:
            row = np.abs(tableau[r, :n])
            col = int(row.argmax())
            if row[col] > PIVOT_TOL:
                _pivot(tableau, basis, r, col)
        if basis[r] < n:
            keep.append(r)
    basis = [basis[r] for r in keep]

    # phase 2 on the original objective
    keep.append(m)
    work = tableau[keep][:, list(range(n)) + [-1]]
    cost = work[-1]
    cost[:n] = c
    cost[-1] = 0.0
    for r, bv in enumerate(basis):
        if abs(cost[bv]) > 0.0:
            cost -= cost[bv] * work[r]
    _iterate(work, basis, n)

    x = np.zeros(n)
    rhs = work[:-1, -1]
    x[basis] = np.where(rhs < 0.0, 0.0, rhs)
    return x, float(c @ x), cost[:n].copy()


def solve_lps(c, a_eq, b_eq) -> list:
    """`solve_lp` for each row: c (S, n), a_eq (m, n) shared or (S, m, n),
    b_eq (S, m).  Returns, per row, what solve_lp(c[s], a_eq[s], b_eq[s])
    returns or the exception it raises (Infeasible, Unbounded, PivotLimit),
    in place, bit for bit.

    The rows run in lockstep (`_iterate_stack`); the dot product c @ x of
    each row is the 1-D call.  One row is `solve_lp` itself.  A NaN in a
    row's data makes both raise ValueError, with messages of their own.
    """
    c = np.asarray(c, dtype=float)
    b = np.array(b_eq, dtype=float)
    a = np.asarray(a_eq, dtype=float)
    if b.ndim != 2 or c.ndim != 2 or a.ndim not in (2, 3):
        raise ValueError("solve_lps needs c (S, n), a_eq (m, n) or (S, m, n), b_eq (S, m)")
    s_count, m = b.shape
    n = a.shape[-1]
    if (a.shape[-2] != m or c.shape != (s_count, n)
            or a.ndim == 3 and a.shape[0] != s_count):
        raise ValueError("b_eq / c shapes do not match a_eq")
    if s_count == 0:
        return []
    if s_count == 1:
        try:
            return [solve_lp(c[0], a if a.ndim == 2 else a[0], b[0])]
        except (ArithmeticError, ValueError) as exc:
            return [exc]
    a = np.array(np.broadcast_to(a, (s_count, m, n)))
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    out = [None] * s_count

    # phase 1: minimize the sum of artificial variables
    tableau = np.zeros((s_count, m + 1, n + m + 1))
    tableau[:, :m, :n] = a
    tableau[:, :m, n:n + m] = np.eye(m)
    tableau[:, :m, -1] = b
    tableau[:, -1, :n] = -a.sum(axis=-2)
    tableau[:, -1, -1] = -b.sum(axis=-1)
    basis = np.array(np.broadcast_to(np.arange(n, n + m), (s_count, m)))
    _iterate_stack(tableau, basis, np.ones((s_count, m), dtype=bool), n + m, out)
    for s in np.flatnonzero(tableau[:, -1, -1] < -FEAS_TOL).tolist():
        if out[s] is None:
            out[s] = Infeasible("phase-1 optimum positive: constraints unsatisfiable")
    live = np.array([s for s, o in enumerate(out) if o is None], dtype=np.intp)
    if not live.size:
        return out
    tableau, basis = tableau[live], basis[live]

    # drive any artificial variables out of the basis
    for r in range(m):
        stuck = np.flatnonzero(basis[:, r] >= n)
        if stuck.size:
            row = np.abs(tableau[stuck, r, :n])
            col = row.argmax(axis=1)
            moves = row[np.arange(stuck.size), col] > PIVOT_TOL
            stuck, col = stuck[moves], col[moves]
            if stuck.size:
                part = tableau[stuck]
                _pivot_stack(part, np.full(stuck.size, r), col)
                tableau[stuck] = part
                basis[stuck, r] = col
    usable = basis < n   # an artificial still basic marks a redundant constraint

    # phase 2 on the original objective
    work = np.zeros((live.size, m + 1, n + 1))
    work[:, :m, :n] = tableau[:, :m, :n]
    work[:, :m, -1] = tableau[:, :m, -1]
    work[:, -1, :n] = c[live]
    at = np.arange(live.size)
    for r in range(m):
        coef = work[at, -1, np.where(usable[:, r], basis[:, r], 0)]
        sel = np.flatnonzero(usable[:, r] & (np.abs(coef) > 0.0))
        if sel.size:
            work[sel, -1] -= coef[sel, None] * work[sel, r]
    _iterate_stack(work, basis, usable, n, out, live)

    rhs = work[:, :m, -1]
    rhs = np.where(rhs < 0.0, 0.0, rhs)
    for j, s in enumerate(live.tolist()):
        if out[s] is None:
            x = np.zeros(n)
            x[basis[j][usable[j]]] = rhs[j][usable[j]]
            out[s] = x, float(c[s] @ x), work[j, -1, :n].copy()
    return out


def _pivot_stack(tableau: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """`_pivot` on each tableau of the stack at (rows[i], cols[i]); the
    products are those of np.outer."""
    at = np.arange(len(tableau))
    prow = tableau[at, rows] / tableau[at, rows, cols][:, None]
    tableau[at, rows] = prow
    factor = tableau[at, :, cols]
    factor[at, rows] = 0.0
    tableau -= factor[:, :, None] * prow[:, None, :]


def _iterate_stack(tableau: np.ndarray, basis: np.ndarray, usable: np.ndarray,
                   n_cols: int, out: list, index=None) -> None:
    """`_iterate` on every tableau of the stack (S, R + 1, C + 1) in
    lockstep, with basis (S, R) and the mask `usable` (S, R) of the rows the
    ratio test may take.  A row that reached its optimum takes no further
    step and keeps its final tableau and basis in place; a row that raised
    takes its exception into out[index[s]] (index defaults to the rows)."""
    index = np.arange(len(tableau)) if index is None else index
    pos = np.arange(len(tableau))   # each working row's place in the stack
    work, wb, wu = tableau, basis, usable
    degenerate = np.zeros(len(tableau), dtype=np.intp)
    for _ in range(LP_MAX_ITER):
        at = np.arange(len(work))
        cost = work[:, -1, :n_cols]
        bland = degenerate >= BLAND_AFTER
        any_bland = bland.any()
        entering = cost.argmin(axis=1)
        done = cost[at, entering] >= -PIVOT_TOL
        if any_bland:
            negative = cost[bland] < -PIVOT_TOL
            entering[bland] = negative.argmax(axis=1)
            done[bland] = ~negative.any(axis=1)
        col = work[at, :-1, entering]
        rhs = work[:, :-1, -1]
        positive = (col > PIVOT_TOL) & wu
        safe = np.where(positive, col, 1.0)
        bound = np.where(positive, (rhs + HARRIS_TOL) / safe, np.inf).min(axis=1)
        within = positive & (rhs / safe <= bound[:, None])
        leaving = np.where(within, col, -np.inf).argmax(axis=1)
        if any_bland:
            ratios = np.where(positive[bland], np.maximum(rhs[bland], 0.0) / safe[bland], np.inf)
            tie = ratios <= ratios.min(axis=1)[:, None] + 1e-12
            within[bland] = positive[bland] & tie
            leaving[bland] = np.where(within[bland], wb[bland], np.iinfo(np.intp).max).argmin(axis=1)
        stop = done | ~within.any(axis=1)
        if stop.any():
            for j in np.flatnonzero(stop & ~done).tolist():
                out[index[pos[j]]] = (
                    Unbounded("no positive pivot entry in the entering column")
                    if not positive[j].any() else
                    ValueError("no leaving row: the ratio test met a nan"))
            if work is not tableau:
                fin = np.flatnonzero(done)
                tableau[pos[fin]], basis[pos[fin]] = work[fin], wb[fin]
            go = ~stop
            if not go.any():
                return
            work, wb, wu, degenerate, pos = work[go], wb[go], wu[go], degenerate[go], pos[go]
            entering, leaving, col, cost = entering[go], leaving[go], col[go], cost[go]
            at = np.arange(len(work))
        # a leaving variable that dipped below zero leaves at zero: no step back
        level = work[at, leaving, -1]
        level = np.where(level < 0.0, 0.0, level)
        work[at, leaving, -1] = level
        gain = level / col[at, leaving] * -cost[at, entering]
        degenerate = np.where(gain <= PIVOT_TOL, degenerate + 1, 0)
        _pivot_stack(work, leaving, entering)
        wb[at, leaving] = entering
    for j in range(len(work)):
        out[index[pos[j]]] = PivotLimit(f"simplex phase exceeded {LP_MAX_ITER} pivots")


# ---------------------------------------------------------------------------
# concave quadratics over the weight simplex


def simplex_qp(c: np.ndarray, factor: np.ndarray):
    """Maximize f(w) = w . c - |w factor|^2 over the weight simplex, exactly,
    by a primal active-set method.  Returns (w, capped).

    The free set F holds the weights that may be positive; the others are
    0.  The run starts at the best point mass.  Each step solves the KKT
    system of f on the affine hull of F, 2 Q_FF z + mu 1 = c_F and
    1' z = 1 with Q = factor factor', by least squares on the
    eigendecomposition of its symmetric block; eigenvalues below QP_RCOND
    of the largest are its null space.  The block is singular when F holds
    affinely dependent laws (more laws than outcomes, duplicates, a law on a
    segment) and, for a rank-one Q, whenever F holds three.  Then:
    - if the system is consistent (its residual, the part of the right-hand
      side in the null space, is float noise), z is a maximizer of f on the
      hull and w moves toward z, by the full step or to the first weight
      that reaches 0, which leaves F;
    - otherwise f is linear on the hull along the residual and rises along
      it, since c_F . d = |d|^2, so w moves along it to the first weight
      that reaches 0.
    After a full step w is the maximizer on F with multiplier mu; it is the
    maximum when no weight outside F has a larger partial derivative
    c_j - 2 (Q w)_j than mu (within QP_TOL), and otherwise the weight with
    the largest one joins F.  A run past QP_MAX_CHANGES changes of F stops
    with `capped` set.
    """
    m = c.size
    # the KKT system of every free set is a principal block of this one,
    # its last row and column (the constraint 1' w = 1) always kept
    kkt = np.ones((m + 1, m + 1))
    q2 = kkt[:m, :m]
    np.matmul(factor, factor.T, out=q2)
    q2 *= 2.0
    kkt[m, m] = 0.0
    rhs = np.append(c, 1.0)
    tol = QP_TOL * max(1.0, float(np.abs(c).max()), float(np.abs(q2).max()))
    w = np.zeros(m)
    free = np.zeros(m + 1, bool)
    start = int(np.argmax(c - 0.5 * np.diag(q2)))
    free[start] = free[m] = True
    w[start] = 1.0
    for _ in range(QP_MAX_CHANGES):
        sel = np.flatnonzero(free)
        idx = sel[:-1]
        k = idx.size
        lam, u = np.linalg.eigh(kkt[sel][:, sel])
        kept = np.abs(lam) > QP_RCOND * np.abs(lam).max()
        coef = u.T @ rhs[sel]
        resid = u[:, ~kept] @ coef[~kept]
        if np.abs(resid).max(initial=0.0) > tol:
            d = resid[:k]
        else:
            x = u[:, kept] @ (coef[kept] / lam[kept])
            if (x[:k] >= 0.0).all():
                w[idx] = x[:k]
                out = np.flatnonzero(~free[:m])
                if out.size == 0:
                    return w, False
                s = c[out] - q2[out] @ w
                j = int(np.argmax(s))
                if s[j] <= x[k] + tol:
                    return w, False
                free[out[j]] = True
                continue
            d = x[:k] - w[idx]
        falling = np.flatnonzero(d < 0.0)
        ratios = w[idx[falling]] / -d[falling]
        b = int(np.argmin(ratios))
        w[idx] = np.maximum(w[idx] + ratios[b] * d, 0.0)
        w[idx[falling[b]]] = 0.0
        free[idx[falling[b]]] = False
    return w, True
