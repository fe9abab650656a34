"""Mean-value constraint sets Gamma_tau = {P : E_P T = tau} and their vertices."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from . import _simplex
from .core import (
    CombinatorialBlowup,
    DimensionMismatch,
    Distribution,
    Infeasible,
    Statistic,
    SUPPORT_TOL,
    UndefinedExpectation,
    WEIGHT_CLAMP,
)

DEFAULT_MAX_N = 20     # vertex enumeration cap; override via MAXENT_MAX_N
DEFAULT_MAX_K = 3
MEMBER_TOL = 1e-8      # ||T p - tau||_inf for membership
HULL_TOL = 1e-9        # distance of tau from a hull face that counts as on it
DEDUP_TOL = 1e-8       # L_inf distance below which two vertices coincide
CONSISTENCY_TOL = 1e-9
RANK_TOL = 1e-10       # singular values at or below this make a support dependent
SCREEN_BLOCK = 256     # candidate supports screened per batch
SCREEN_SLACK = 1e-12   # screen slack per unit of condition number and weight
UNION_LIFT_TOL = 1e-6  # z this far below 1 still counts as lifted in union_support


@dataclass(frozen=True)
class GammaTau:
    """Distributions with E_P T = tau.

    The instance is immutable (the statistic matrix and tau are read-only
    copies), so `union_support` keeps its result on it.
    """

    statistic: Statistic
    tau: np.ndarray
    _union: "np.ndarray | None" = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if t.shape != (self.statistic.k,):
            raise DimensionMismatch(
                f"tau has shape {t.shape}, statistic has {self.statistic.k} rows"
            )
        if not np.all(np.isfinite(t)):
            raise DimensionMismatch("tau entries must be finite")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "tau", t)

    @property
    def n(self) -> int:
        return self.statistic.n

    @property
    def k(self) -> int:
        return self.statistic.k


@dataclass(frozen=True)
class VertexSet:
    """Vertices of Gamma_tau, one distribution per row, lexicographically sorted."""

    points: np.ndarray

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def distributions(self) -> list:
        return [Distribution(row) for row in self.points]

    def union_support(self) -> np.ndarray:
        return np.flatnonzero(self.points.max(axis=0) > SUPPORT_TOL)


def max_n() -> int:
    """The vertex enumeration cap: MAXENT_MAX_N, else DEFAULT_MAX_N when it
    is unset or empty.  Raises CombinatorialBlowup unless it is a positive
    integer."""
    value = os.environ.get("MAXENT_MAX_N") or str(DEFAULT_MAX_N)
    cap = int(value) if value.strip().isdecimal() else 0
    if cap < 1:
        raise CombinatorialBlowup(f"MAXENT_MAX_N must be a positive integer, not {value!r}")
    return cap


def _check_sizes(g: GammaTau) -> None:
    cap = max_n()
    if g.n > cap:
        raise CombinatorialBlowup(
            f"N={g.n} exceeds the enumeration cap {cap}; raise MAXENT_MAX_N"
        )
    if g.k > DEFAULT_MAX_K:
        raise CombinatorialBlowup(f"k={g.k} exceeds the supported cap {DEFAULT_MAX_K}")


def vertices(g: GammaTau) -> VertexSet:
    """Enumerate all vertices of Gamma_tau.

    A vertex has support of size at most k+1 with affinely independent
    statistic columns; each candidate support yields one consistent
    nonnegative solution of {sum p = 1, T p = tau} or is skipped.  The
    size caps (`max_n` and DEFAULT_MAX_K) are checked first.
    """
    _check_sizes(g)
    return _enumerate_vertices(g)


def _enumerate_vertices(g: GammaTau) -> VertexSet:
    n, k = g.n, g.k
    rows = np.vstack([np.ones(n), g.statistic.matrix])   # (k+1, n)
    target = np.concatenate([[1.0], g.tau])
    found: list[np.ndarray] = []
    for size in range(1, min(k + 1, n) + 1):
        for supp in _screened_supports(rows, target, size):
            a = rows[:, supp]
            sol, *_ = np.linalg.lstsq(a, target, rcond=None)
            if np.max(np.abs(a @ sol - target)) > CONSISTENCY_TOL:
                continue
            if float(sol.min()) < -WEIGHT_CLAMP:
                continue
            p = np.zeros(n)
            p[list(supp)] = np.where(sol < 0.0, 0.0, sol)
            found.append(p)
    if not found:
        raise Infeasible(f"Gamma_tau empty for tau={np.asarray(g.tau)}")
    pts = np.array(found)
    kept = 1
    for i in range(1, pts.shape[0]):
        if np.max(np.abs(pts[:kept] - pts[i]), axis=1).min() > DEDUP_TOL:
            pts[kept] = pts[i]
            kept += 1
    pts = pts[:kept]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    pts.flags.writeable = False
    return VertexSet(pts)


def _screened_supports(rows: np.ndarray, target: np.ndarray, size: int):
    """Supports of `size` outcomes that can carry a vertex, in combinations order.

    Blocks of SCREEN_BLOCK supports are screened at once.  The batched
    singular values are those `matrix_rank` computes, so affinely dependent
    supports drop exactly, and the same SVD gives every least-squares
    solution V diag(1/s) U' b without forming a singular system.  A support
    stays when its residual and its most negative weight are within the
    exact tests' tolerances plus a slack that grows with the error bound of
    that solve (the condition number).  The exact lstsq test then runs on
    the survivors alone.
    """
    combos = combinations(range(rows.shape[1]), size)
    while True:
        block = np.array(list(islice(combos, SCREEN_BLOCK)), dtype=np.intp)
        if block.size == 0:
            return
        a = rows.T[block].transpose(0, 2, 1)          # (B, k+1, size)
        full, sol, resid, slack = svd_screen(a, target, RANK_TOL)
        keep = ((resid <= CONSISTENCY_TOL + slack)
                & (sol.min(axis=1) >= -WEIGHT_CLAMP - slack))
        yield from map(tuple, block[full][keep].tolist())


def svd_screen(a: np.ndarray, target: np.ndarray, floor=None):
    """Least-squares solutions of a stack of systems a[i] x = target, one SVD.

    A system is full rank when its smallest singular value is above `floor`,
    by default lstsq's own cutoff eps * max(shape) * s_max.  For the full-rank
    systems alone this returns (full mask, solutions V diag(1/s) U' target,
    largest residuals, slack).  The slack bounds how far an exact lstsq test
    on the same system can read otherwise: SCREEN_SLACK per unit of condition
    number, weight and entry size.
    """
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    if floor is None:
        floor = np.finfo(float).eps * max(a.shape[1:]) * sv[:, 0]
    full = sv[:, -1] > floor
    a, u, sv, vh = a[full], u[full], sv[full], vh[full]
    sol = ((target @ u) / sv)[:, None, :] @ vh   # (B, 1, cols)
    resid = np.abs((a @ sol.transpose(0, 2, 1))[:, :, 0] - target).max(axis=1)
    sol = sol[:, 0]
    scale = (1.0 + np.abs(sol).max(axis=1)) * (1.0 + np.abs(a).max(axis=(1, 2)))
    return full, sol, resid, SCREEN_SLACK * (sv[:, 0] / sv[:, -1]) * scale


def feasible(g: GammaTau) -> bool:
    """True when Gamma_tau is nonempty, read from `union_support` (one LP,
    no size cap) as the vertex enumeration reads it."""
    try:
        union_support(g)
        return True
    except Infeasible:
        return False


def contains(g: GammaTau, dist: Distribution) -> bool:
    """Membership check ||T p - tau||_inf <= MEMBER_TOL."""
    if dist.n != g.n:
        raise DimensionMismatch("distribution does not match the statistic")
    return bool(np.max(np.abs(g.statistic.matrix @ dist.w - g.tau)) <= MEMBER_TOL)


def hull_interior(statistic: Statistic, tau) -> str:
    """Classify tau against the convex hull of the statistic columns.

    Returns "interior" (relative interior), "boundary" (within HULL_TOL of
    a face), or "outside".
    """
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    if t.shape != (statistic.k,):
        raise DimensionMismatch("tau does not match the statistic")
    if not np.all(np.isfinite(t)):
        raise DimensionMismatch("tau entries must be finite")
    m = statistic.matrix
    if statistic.k == 1:
        lo, hi = float(m.min()), float(m.max())
        x = float(t[0])
        if x < lo - HULL_TOL or x > hi + HULL_TOL:
            return "outside"
        if hi - lo <= HULL_TOL:
            return "interior"  # degenerate hull: a single point
        if x <= lo + HULL_TOL or x >= hi - HULL_TOL:
            return "boundary"
        return "interior"
    # general k: maximize the minimum combination weight delta subject to
    # {lam >= delta, sum lam = 1, M lam = tau}, written in (s, delta) with
    # lam = delta + s >= delta; delta > 0 iff tau is in the relative
    # interior of the hull.  A tau that only M lam = tau read within HULL_TOL
    # reaches is on the boundary, as for k = 1.
    n = statistic.n
    for width in (0.0, HULL_TOL):
        rows, b = _tolerant_rows(m, t, width)
        a = np.insert(rows, n, 0.0, axis=1)
        a[0, n] = n
        a[1:statistic.k + 1, n] = m.sum(axis=1)
        c = np.zeros(a.shape[1])
        c[n] = -1.0
        try:
            _, value, _ = _simplex.solve_lp(c, a, b)
        except Infeasible:
            continue
        return "interior" if width == 0.0 and -value > HULL_TOL else "boundary"
    return "outside"


def _tolerant_rows(tmat: np.ndarray, tau: np.ndarray, tol: float):
    """Equality rows (a, b) of {sum p = 1, T p + d = tau + tol, d + d' = 2 tol}.

    The variables are p (one per column of T), then d and d' (k each), all
    >= 0, so each row of T p - tau lies in [-tol, tol]; tol = 0 reads the
    rows exactly.
    """
    k, m = tmat.shape
    a = np.zeros((2 * k + 1, m + 2 * k))
    a[0, :m] = 1.0
    a[1:k + 1, :m] = tmat
    a[1:, m:m + k] = np.vstack([np.eye(k), np.eye(k)])
    a[k + 1:, m + k:] = np.eye(k)
    return a, np.concatenate([[1.0], tau + tol, np.full(k, 2.0 * tol)])


def union_support(g: GammaTau) -> np.ndarray:
    """Outcomes that members of Gamma_tau charge, from one homogenized LP.

    The always-active constraints of Freund, Roundy & Todd (1985): maximize
    sum z subject to z <= 1 and p = z + s in lam * Gamma_tau, all variables
    nonnegative; z_x = 1 at the optimum for every outcome some member
    charges.  The scale is bounded, lam = mu / DEDUP_TOL with mu <= 1, which
    keeps the LP bounded and reads the set as the vertex list does: that
    drops a vertex within DEDUP_TOL of another, and here z_x reaches 1 only
    where a member charges x with DEDUP_TOL or more (charges of about 1e-9
    arise when tau is within CONSISTENCY_TOL of a hull face).  mu is the
    column that carries the scale, so the right-hand side stays O(1).
    T p = tau is read exactly, or within CONSISTENCY_TOL when no outcome
    lifts, as the vertex enumeration reads it.  Raises Infeasible for an
    empty Gamma_tau.  The result is kept on `g`.
    """
    if g._union is None:
        object.__setattr__(g, "_union", _lp_union_support(g))
    return g._union


def _lp_union_support(g: GammaTau) -> np.ndarray:
    n = g.n
    for tol in (0.0, CONSISTENCY_TOL):
        rows, target = _tolerant_rows(g.statistic.matrix, g.tau, tol)
        m = rows.shape[0]
        # columns: z; s, d, d' as in `rows`; the slack w of z <= 1; mu and its slack
        a = np.zeros((m + n + 1, rows.shape[1] + 2 * n + 2))
        a[:m, :n] = rows[:, :n]
        a[:m, n:-n - 2] = rows
        a[:m, -2] = -target / DEDUP_TOL
        a[m:-1, :n] = np.eye(n)
        a[m:-1, -n - 2:-2] = np.eye(n)
        a[-1, -2:] = 1.0
        b = np.concatenate([np.zeros(m), np.ones(n + 1)])
        c = np.zeros(a.shape[1])
        c[:n] = -1.0
        x, _, _ = _simplex.solve_lp(c, a, b)
        supp = np.flatnonzero(x[:n] >= 1.0 - UNION_LIFT_TOL)
        if supp.size:
            supp.flags.writeable = False
            return supp
    raise Infeasible(f"Gamma_tau empty for tau={np.asarray(g.tau)}")


def max_expectation(g: GammaTau, values) -> float:
    """sup over Gamma_tau of E_P values, for values in (-inf, +inf], by LP.

    +inf when a member charges an outcome of infinite value (`union_support`
    reads what members charge); otherwise those outcomes carry no mass, so
    their columns are dropped, and the supremum is +inf when Gamma_tau is
    empty without them.  T p = tau is read exactly, or within
    CONSISTENCY_TOL when the exact rows are infeasible, as the vertex
    enumeration reads it.  Raises Infeasible for an empty Gamma_tau.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (g.n,):
        raise DimensionMismatch("values do not match the statistic")
    if np.isnan(v).any() or np.isneginf(v).any():
        raise UndefinedExpectation("nan or -inf encountered in expectation")
    finite = np.isfinite(v)
    if not finite.all() and not finite[union_support(g)].all():
        return float(np.inf)
    cols = np.flatnonzero(finite)
    for tol in (0.0, CONSISTENCY_TOL):
        a, b = _tolerant_rows(g.statistic.matrix[:, cols], g.tau, tol)
        c = np.concatenate([-v[cols], np.zeros(2 * g.k)])
        try:
            x, _, _ = _simplex.solve_lp(c, a, b)
        except Infeasible:
            continue
        return float(v[cols] @ x[:cols.size])
    if finite.all():
        raise Infeasible(f"Gamma_tau empty for tau={np.asarray(g.tau)}")
    return float(np.inf)


def min_max_expectation(tmat: np.ndarray, tau: np.ndarray, cols: np.ndarray):
    """min over {P : sum p = 1, T p = tau} of max_j E_P cols[:, j] >= 0, one LP.

    The variables are p, the level m and one slack s_j per column, all >= 0,
    with cols' p - m + s = 0; T p = tau is read exactly.  Returns (m*, p,
    reduced costs of p, reduced costs of s); the latter are the columns' dual
    weights, which sum to one when m* > 0.  Raises Infeasible.
    """
    k, n = tmat.shape
    w = cols.shape[1]
    a = np.zeros((w + k + 1, n + 1 + w))
    a[:w, :n] = cols.T
    a[:w, n] = -1.0
    a[:w, n + 1:] = np.eye(w)
    a[w, :n] = 1.0
    a[w + 1:, :n] = tmat
    b = np.concatenate([np.zeros(w), [1.0], tau])
    c = np.zeros(n + 1 + w)
    c[n] = 1.0
    try:
        x, value, reduced = _simplex.solve_lp(c, a, b)
    except Infeasible:
        raise Infeasible(f"Gamma_tau empty for tau={tau}") from None
    return value, x[:n], reduced[:n], reduced[n + 1:]


def closed_under_conditioning(g: GammaTau) -> bool:
    """True when Gamma_tau equals the full simplex over some outcome subset.

    That happens exactly when every outcome in the union support of Gamma_tau
    has statistic value tau, so conditioning cannot leave the set.
    """
    supp = union_support(g)
    cols = g.statistic.matrix[:, supp]
    return bool(np.max(np.abs(cols - g.tau[:, None])) <= 1e-9)
