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
    WEIGHT_CLAMP,
)

DEFAULT_MAX_N = 20     # vertex enumeration cap; override via MAXENT_MAX_N or max_n=
DEFAULT_MAX_K = 3
MEMBER_TOL = 1e-8      # ||T p - tau||_inf for membership
DEDUP_TOL = 1e-8       # L_inf distance below which two vertices coincide
CONSISTENCY_TOL = 1e-9
RANK_TOL = 1e-10       # singular values at or below this make a support dependent
SCREEN_BLOCK = 256     # candidate supports screened per batch
SCREEN_SLACK = 1e-12   # screen slack per unit of condition number and weight


def _max_n_cap() -> int:
    env = os.environ.get("MAXENT_MAX_N")
    if env:
        return int(env)
    return DEFAULT_MAX_N


@dataclass(frozen=True)
class GammaTau:
    """Distributions with E_P T = tau.

    The instance is immutable (the statistic matrix and tau are read-only
    copies), so `vertices` keeps its result on it.
    """

    statistic: Statistic
    tau: np.ndarray
    _vertices: "VertexSet | None" = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        t = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if t.shape != (self.statistic.k,):
            raise DimensionMismatch(
                f"tau has shape {t.shape}, statistic has {self.statistic.k} rows"
            )
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

    def centroid(self) -> Distribution:
        return Distribution(self.points.mean(axis=0))

    def union_support(self, tol: float = 1e-12) -> np.ndarray:
        return np.flatnonzero(self.points.max(axis=0) > tol)


def _check_sizes(g: GammaTau, max_n: int | None) -> None:
    cap = max_n if max_n is not None else _max_n_cap()
    if g.n > cap:
        raise CombinatorialBlowup(
            f"N={g.n} exceeds the enumeration cap {cap}; raise max_n or MAXENT_MAX_N"
        )
    if g.k > DEFAULT_MAX_K:
        raise CombinatorialBlowup(f"k={g.k} exceeds the supported cap {DEFAULT_MAX_K}")


def _zero_row_infeasible(g: GammaTau) -> bool:
    # an all-zero statistic row with a nonzero target can never be met
    zero_rows = np.all(np.abs(g.statistic.matrix) <= 0.0, axis=1)
    return bool(np.any(zero_rows & (np.abs(g.tau) > 1e-12)))


def vertices(g: GammaTau, max_n: int | None = None) -> VertexSet:
    """Enumerate all vertices of Gamma_tau.

    A vertex has support of size at most k+1 with affinely independent
    statistic columns; each candidate support yields one consistent
    nonnegative solution of {sum p = 1, T p = tau} or is skipped.  The
    result is kept on `g`; the size caps are checked on every call.
    """
    _check_sizes(g, max_n)
    if _zero_row_infeasible(g):
        raise Infeasible("a zero statistic row has a nonzero target")
    if g._vertices is None:
        object.__setattr__(g, "_vertices", _enumerate_vertices(g))
    return g._vertices


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
        u, sv, vh = np.linalg.svd(a, full_matrices=False)
        full = sv[:, -1] > RANK_TOL
        a, u, sv, vh, block = a[full], u[full], sv[full], vh[full], block[full]
        cond = sv[:, 0] / sv[:, -1]
        sol = ((target @ u) / sv)[:, None, :] @ vh   # (B, 1, size)
        resid = np.abs((a @ sol.transpose(0, 2, 1))[:, :, 0] - target).max(axis=1)
        sol = sol[:, 0]
        slack = SCREEN_SLACK * cond * (1.0 + np.abs(sol).max(axis=1))
        keep = ((resid <= CONSISTENCY_TOL + slack)
                & (sol.min(axis=1) >= -WEIGHT_CLAMP - slack))
        yield from map(tuple, block[keep].tolist())


def feasible(g: GammaTau, max_n: int | None = None) -> bool:
    """True when Gamma_tau is nonempty."""
    try:
        vertices(g, max_n=max_n)
        return True
    except Infeasible:
        return False


def contains(g: GammaTau, dist: Distribution, tol: float = MEMBER_TOL) -> bool:
    """Membership check ||T p - tau||_inf <= tol."""
    if dist.n != g.n:
        raise DimensionMismatch("distribution does not match the statistic")
    return bool(np.max(np.abs(g.statistic.matrix @ dist.w - g.tau)) <= tol)


def hull_interior(statistic: Statistic, tau, tol: float = 1e-9) -> str:
    """Classify tau against the convex hull of the statistic columns.

    Returns "interior" (relative interior), "boundary", or "outside".
    """
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    if t.shape != (statistic.k,):
        raise DimensionMismatch("tau does not match the statistic")
    m = statistic.matrix
    if statistic.k == 1:
        lo, hi = float(m.min()), float(m.max())
        x = float(t[0])
        if x < lo - tol or x > hi + tol:
            return "outside"
        if hi - lo <= tol:
            return "interior"  # degenerate hull: a single point
        if x <= lo + tol or x >= hi - tol:
            return "boundary"
        return "interior"
    # general k: maximize the minimum combination weight delta subject to
    # {lam >= delta, sum lam = 1, M lam = tau}; delta > 0 iff tau is in the
    # relative interior of the hull.
    n = statistic.n
    c = np.zeros(2 * n + 1)
    c[n] = -1.0
    a, b = level_lp(m, t, -1.0)
    try:
        _, value, _ = _simplex.solve_lp(c, a, b)
    except Infeasible:
        return "outside"
    delta = -value
    return "interior" if delta > tol else "boundary"


def level_lp(tmat: np.ndarray, tau: np.ndarray, side: float):
    """Equality rows (a, b) of {P in Gamma_tau, p_x - level + side * s_x = 0}.

    The variables are p (n), the level (1) and slacks s (n), all >= 0; side
    +1 bounds every p_x above by the level, -1 below.
    """
    k, n = tmat.shape
    a = np.zeros((n + k + 1, 2 * n + 1))
    a[:n, :n] = np.eye(n)
    a[:n, n] = -1.0
    a[:n, n + 1:] = side * np.eye(n)
    a[n, :n] = 1.0
    a[n + 1:, :n] = tmat
    return a, np.concatenate([np.zeros(n), [1.0], tau])


def closed_under_conditioning(g: GammaTau, max_n: int | None = None) -> bool:
    """True when Gamma_tau equals the full simplex over some outcome subset.

    That happens exactly when every outcome in the union support of the
    vertices has statistic value tau, so conditioning cannot leave the set.
    """
    vs = vertices(g, max_n=max_n)
    supp = vs.union_support()
    cols = g.statistic.matrix[:, supp]
    return bool(np.max(np.abs(cols - g.tau[:, None])) <= 1e-9)
