"""Mean-value constraint sets Gamma_tau = {P : E_P T = tau} and their vertices."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations

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
        for supp in combinations(range(n), size):
            a = rows[:, supp]
            if np.linalg.matrix_rank(a, tol=1e-10) < size:
                continue  # affinely dependent support: not a vertex
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
    keep: list[int] = []
    for i in range(pts.shape[0]):
        if all(np.max(np.abs(pts[i] - pts[j])) > DEDUP_TOL for j in keep):
            keep.append(i)
    pts = pts[keep]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    pts.flags.writeable = False
    return VertexSet(pts)


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
    k = statistic.k
    # variables: lam (n), delta (1), slack s (n) with lam - delta - s = 0
    n_var = 2 * n + 1
    a = np.zeros((n + k + 1, n_var))
    b = np.zeros(n + k + 1)
    for i in range(n):
        a[i, i] = 1.0
        a[i, n] = -1.0
        a[i, n + 1 + i] = -1.0
    a[n, :n] = 1.0
    b[n] = 1.0
    a[n + 1:, :n] = m
    b[n + 1:] = t
    c = np.zeros(n_var)
    c[n] = -1.0
    try:
        x, value = _simplex.solve_lp(c, a, b)
    except Infeasible:
        return "outside"
    delta = -value
    return "interior" if delta > tol else "boundary"


def closed_under_conditioning(g: GammaTau, max_n: int | None = None) -> bool:
    """True when Gamma_tau equals the full simplex over some outcome subset.

    That happens exactly when every outcome in the union support of the
    vertices has statistic value tau, so conditioning cannot leave the set.
    """
    vs = vertices(g, max_n=max_n)
    supp = vs.union_support()
    cols = g.statistic.matrix[:, supp]
    return bool(np.max(np.abs(cols - g.tau[:, None])) <= 1e-9)
