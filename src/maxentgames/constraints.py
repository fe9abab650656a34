"""Mean-value constraint sets Gamma_tau = {P : E_P T = tau} and their vertices."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np
from numpy.linalg import _umath_linalg

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
    raised,
)

DEFAULT_MAX_N = 20     # vertex enumeration cap; override via MAXENT_MAX_N
DEFAULT_MAX_K = 3
MEMBER_TOL = 1e-8      # ||T p - tau||_inf for membership
DEDUP_TOL = 1e-8       # L_inf distance below which two vertices coincide
CONSISTENCY_TOL = 1e-9  # ||[1; T] p - [1; tau]||_inf that counts as met; the hull band
RANK_TOL = 1e-10       # singular values at or below this make a support dependent
# `_face`'s certificate: a least-squares point that meets [1; T] p = [1; tau]
# this closely and charges every outcome with more than N times the floor
CERTIFICATE_TOL = CONSISTENCY_TOL / 1000
CERTIFICATE_FLOOR = 100 * DEDUP_TOL
SYSTEM_BLOCK = 256     # support systems solved per batched call
_EPS = np.finfo(float).eps


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


def check_sizes(statistic: Statistic) -> None:
    """The size caps of the vertex enumeration: N at most `max_n()` and k
    at most DEFAULT_MAX_K, else CombinatorialBlowup."""
    cap = max_n()
    if statistic.n > cap:
        raise CombinatorialBlowup(
            f"N={statistic.n} exceeds the enumeration cap {cap}; raise MAXENT_MAX_N"
        )
    if statistic.k > DEFAULT_MAX_K:
        raise CombinatorialBlowup(f"k={statistic.k} exceeds the supported cap {DEFAULT_MAX_K}")


def vertices(g: GammaTau) -> VertexSet:
    """Enumerate all vertices of Gamma_tau: `vertex_lists` at one tau.

    Raises CombinatorialBlowup past the size caps and Infeasible for an
    empty Gamma_tau.
    """
    return raised(vertex_lists(g.statistic, g.tau[None])[0])


def vertex_lists(statistic: Statistic, taus) -> list:
    """The vertices of Gamma_tau for every row tau of `taus`: one VertexSet
    each, or the Infeasible that `vertices` raises for an empty Gamma_tau.
    The size caps are checked once, first."""
    check_sizes(statistic)
    return _vertex_lists(statistic, taus)


def _vertex_lists(statistic: Statistic, taus) -> list:
    """The one vertex enumeration, over a grid of tau, without the caps.

    A vertex has support of size at most k+1 with affinely independent
    statistic columns; each candidate support yields one consistent
    nonnegative solution of {sum p = 1, T p = tau} or is skipped.  The
    systems [1; T]_S do not depend on tau, so each block of supports is
    solved against the targets [1; tau] of a chunk of the grid in one
    `support_solutions` call of at most SYSTEM_BLOCK systems; every
    solution is the one a single tau gets.  A chunk holds as many tau as
    one call holds systems of the largest support size, so memory does not
    grow with the grid.  Each tau's points are then deduplicated in the
    order found and sorted lexicographically.
    """
    n, k = statistic.n, statistic.k
    taus = np.asarray(taus, dtype=float).reshape(-1, k)
    cols = np.concatenate((np.ones((1, n)), statistic.matrix)).T   # (n, k+1)
    sizes = range(1, min(k + 1, n) + 1)
    per = max(1, SYSTEM_BLOCK // comb(n, sizes[-1]))
    lists = []
    for lo in range(0, taus.shape[0], per):
        chunk = taus[lo:lo + per]
        m = chunk.shape[0]
        target = np.ones((m, 1, k + 1))   # [1; tau], broadcast over the supports
        target[:, 0, 1:] = chunk
        span = max(1, SYSTEM_BLOCK // m)
        owners, found = [], []
        for size in sizes:
            supports = _supports(n, size)
            for start in range(0, supports.shape[0], span):
                block = supports[start:start + span]
                passes, sol, smallest = support_solutions(cols[block].transpose(0, 2, 1),
                                                          target)
                # no vertex has a dependent support
                t, s = (passes & (smallest > RANK_TOL)).nonzero()
                sol = sol[t, s]
                pts = np.zeros((t.size, n))
                pts[np.arange(t.size)[:, None], block[s]] = np.where(sol < 0.0, 0.0, sol)
                owners.append(t)
                found.append(pts)
        owner = np.concatenate(owners)
        pts = np.concatenate(found)
        pts = pts[owner.argsort(kind="stable")]   # by tau, each tau's in the order found
        ends = np.bincount(owner, minlength=m).cumsum().tolist()
        for tau, start, end in zip(chunk, [0] + ends, ends):
            lists.append(_dedup(pts[start:end]) if end > start else
                         Infeasible(f"Gamma_tau empty for tau={tau}"))
    return lists


@lru_cache(maxsize=64)
def _supports(n: int, size: int) -> np.ndarray:
    """Every support of `size` of n outcomes, one row each, in `combinations`
    order; kept, since building them costs a one-tau enumeration at small N
    about as much as solving their systems."""
    supports = np.fromiter(chain.from_iterable(combinations(range(n), size)), np.intp)
    supports = supports.reshape(-1, size)
    supports.flags.writeable = False
    return supports


def _dedup(pts: np.ndarray) -> VertexSet:
    """The points in the order found, each within DEDUP_TOL of an earlier
    kept one dropped, sorted lexicographically."""
    kept = 1
    for i in range(1, pts.shape[0]):
        if np.abs(pts[:kept] - pts[i]).max(axis=1).min() > DEDUP_TOL:
            pts[kept] = pts[i]
            kept += 1
    pts = pts[:kept]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    pts.flags.writeable = False
    return VertexSet(pts)


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_stack(a: np.ndarray, b: np.ndarray):
    """`np.linalg.lstsq(a[i], b[i], rcond=None)` for every system of a stack,
    in one call of the LAPACK gelsd gufunc that lstsq runs, under its
    errstate; b broadcasts against a, each pair solved alone.  Returns
    (solutions with a trailing axis of 1, singular values), each lstsq's bit
    for bit.  A system with a NaN raises LinAlgError, as lstsq does.
    """
    rcond = _EPS * max(a.shape[-2:])
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        sol, _, _, sv = _umath_linalg.lstsq(a, b[..., None], rcond, signature="ddd->ddid")
    return sol, sv


def support_solutions(a: np.ndarray, target: np.ndarray):
    """The exact test of a stack of support systems a[i] x = target, a = [1; T]
    on a support and target = [1; tau], by `lstsq_stack`.  A stack of
    targets broadcasts against the stack of systems, each pair solved alone.

    Returns (passes, solutions, smallest singular values): each solution is
    lstsq's (rcond=None) bit for bit, and it passes when it meets its system
    within CONSISTENCY_TOL in L_inf with no weight below -WEIGHT_CLAMP.  A
    system with a NaN raises LinAlgError, as lstsq does.
    """
    sol, sv = lstsq_stack(a, target)
    resid = np.abs((a @ sol)[..., 0] - target).max(axis=-1)
    sol = sol[..., 0]
    passes = (resid <= CONSISTENCY_TOL) & (sol.min(axis=-1) >= -WEIGHT_CLAMP)
    return passes, sol, sv[..., -1]


def feasible(g: GammaTau) -> bool:
    """True when Gamma_tau is nonempty, read by `_face` (no size cap) as the
    vertex enumeration reads it."""
    return _face(g.statistic.matrix, g.tau)[0] != "outside"


def contains(g: GammaTau, dist: Distribution) -> bool:
    """Membership check ||T p - tau||_inf <= MEMBER_TOL."""
    if dist.n != g.n:
        raise DimensionMismatch("distribution does not match the statistic")
    return bool(np.max(np.abs(g.statistic.matrix @ dist.w - g.tau)) <= MEMBER_TOL)


def hull_interior(statistic: Statistic, tau) -> str:
    """Classify tau against the convex hull of the statistic columns.

    Returns "interior" (relative interior), "boundary" (within
    CONSISTENCY_TOL of a face), or "outside": `_face`'s class, one
    least-squares solve for a certified interior tau, else at most the two
    reads of one LP.  tau is checked as `GammaTau` checks it.
    """
    return _face(statistic.matrix, GammaTau(statistic, tau).tau)[0]


def union_support(g: GammaTau) -> np.ndarray:
    """Outcomes that members of Gamma_tau charge, by `_face`'s reduction.

    Some member charges each kept outcome with DEDUP_TOL or more, and every
    member charges each dropped one with less than N DEDUP_TOL, which is how
    the vertex list reads charges of about 1e-9 (tau within CONSISTENCY_TOL
    of a hull face): it drops a vertex within DEDUP_TOL of another.  Raises
    Infeasible for an empty Gamma_tau.  The result is kept on `g`.
    """
    if g._union is None:
        hull, supp = _face(g.statistic.matrix, g.tau, support=True)
        if hull == "outside":
            raise Infeasible(f"Gamma_tau empty for tau={np.asarray(g.tau)}")
        supp.flags.writeable = False
        object.__setattr__(g, "_union", supp)
    return g._union


def _face(tmat: np.ndarray, tau: np.ndarray, support: bool = False):
    """(class of tau, the outcomes Gamma_tau charges or None), by face reduction.

    Each round maximizes delta subject to lam = s + delta on the outcomes
    left, lam = s elsewhere, sum lam = 1, T lam = tau, s, delta >= 0
    (Borwein & Wolkowicz 1981), read by a one-row `_lp_reads` call with
    the outcomes left as its lifted mask.  Round 0 leaves every
    outcome and gives the class: "interior" when the exact rows give
    delta* > CONSISTENCY_TOL (k = 1: the closed form), "boundary" when a
    read counts, else "outside".  Without `support` that is all.  Every
    member P has sum_x r_x P_x = delta* for the reduced costs r >= 0 of the
    s columns, so an outcome left with delta* < N DEDUP_TOL r_x (and r_x
    above the simplex's PIVOT_TOL) drops, and the next round reads the rows
    as round 0 did.  When none drops, the reduced costs of the outcomes left
    sum to at least 1, so the round's point charges each with delta* >=
    DEDUP_TOL.

    A member p with min p > N CERTIFICATE_FLOOR, which `_certified` looks
    for first, gives the same answer without an LP: delta* >= min p >
    CONSISTENCY_TOL, and r_x <= delta* / p_x, so no outcome drops.
    """
    k, n = tmat.shape
    hull, tol = None, CONSISTENCY_TOL
    if k == 1:   # a degenerate hull, one point, is interior
        lo, hi, x = float(tmat.min()), float(tmat.max()), float(tau[0])
        if not lo - tol <= x <= hi + tol:
            return "outside", None
        hull = "interior" if hi - lo <= tol or lo + tol < x < hi - tol else "boundary"
        if not support:
            return hull, None
    if _certified(tmat, tau):
        return hull or "interior", np.arange(n) if support else None
    left = np.ones(n, dtype=bool)
    c = np.zeros(n + 1)
    c[n] = -1.0
    widths = (0.0, tol)
    while True:
        read = raised(_lp_reads(tmat, tau[None], c[None], left, widths)[0])
        if read is None:
            return ("outside", None) if left.all() else (hull, np.flatnonzero(left))
        x, r, width = read
        if hull is None:
            hull = "interior" if width == 0.0 and x[n] > tol else "boundary"
        if not support:
            return hull, None
        widths = (width,)
        kept = left & ((r[:n] <= _simplex.PIVOT_TOL) | (x[n] >= n * DEDUP_TOL * r[:n]))
        if kept.sum() in (0, left.sum()):   # none drops; all only when N^2 DEDUP_TOL >= 1
            return hull, np.flatnonzero(left)
        left = kept


def _certified(tmat: np.ndarray, tau: np.ndarray) -> bool:
    """True when the least-norm solution p of [1; T] p = [1; tau] (one
    `lstsq_stack` solve) meets those rows within CERTIFICATE_TOL in L_inf
    and charges every outcome with more than N CERTIFICATE_FLOOR.  The
    uniform law lies in the row space of [1; T], so p is its projection
    onto the plane."""
    k, n = tmat.shape
    a = np.empty((k + 1, n))
    a[0] = 1.0
    a[1:] = tmat
    target = np.empty(k + 1)
    target[0] = 1.0
    target[1:] = tau
    p = lstsq_stack(a, target)[0][:, 0]
    return bool(np.abs(a @ p - target).max() <= CERTIFICATE_TOL
                and p.min() > n * CERTIFICATE_FLOOR)


def _read_lp(tmat: np.ndarray, c: np.ndarray, lifted):
    """The constraint matrix of `_lp_reads`' LPs and their prices; c may be
    one row of prices or a stack of them."""
    k, n = tmat.shape
    m = n if lifted is None else n + 1
    a = np.zeros((2 * k + 1, m + 2 * k))
    a[0, :n] = 1.0
    a[1:k + 1, :n] = tmat
    if lifted is not None:
        a[:k + 1, n] = a[:k + 1, :n] @ lifted
    eye = np.eye(k)
    a[1:k + 1, m:m + k] = eye
    a[k + 1:, m:m + k] = eye
    a[k + 1:, m + k:] = eye
    cost = np.zeros(c.shape[:-1] + a.shape[1:])
    cost[..., :c.shape[-1]] = c
    return a, cost


def _read_counts(tmat: np.ndarray, tau: np.ndarray, x: np.ndarray, lifted) -> bool:
    """True when the point of one of `_lp_reads`' solutions x meets
    [1; T] p = [1; tau] within CONSISTENCY_TOL in L_inf: p = x[:N], or
    with the mask `lifted` s + delta lifted."""
    n = tmat.shape[1]
    p = x[:n] if lifted is None else x[:n] + x[n] * lifted
    return max(abs(p.sum() - 1.0), float(np.abs(tmat @ p - tau).max())) <= CONSISTENCY_TOL


def _lp_reads(tmat: np.ndarray, taus: np.ndarray, cs: np.ndarray, lifted=None,
              widths=(0.0, CONSISTENCY_TOL)) -> list:
    """min c @ x over the points p >= 0 of [1; T] p = [1; tau] at each row
    tau of taus (S, k), c the same row of cs; one LP per width, each width
    reading every row still open in one `_simplex.solve_lps` call.

    A width w reads the rows as {sum p = 1, T p + d = tau + w, d + d' = 2 w}
    with d, d' >= 0 (k each), so each row of T p - tau lies in [-w, w].  x is
    p, or with the mask `lifted` (s, delta) with p = s + delta on the lifted
    outcomes, then d and d'; c prices its leading entries.  A read counts
    only when its own point meets [1; T] p = [1; tau] within CONSISTENCY_TOL
    in L_inf, the vertex enumeration's test, so the simplex's phase-1
    FEAS_TOL does not stack on a widening.  Returns, per row, (x, reduced
    costs, width) of the first read that counts, None, or the exception its
    LP raised; one tau is a one-row call.
    """
    k = tmat.shape[0]
    a, cost = _read_lp(tmat, cs, lifted)
    reads = [None] * len(taus)
    rows, open_taus, open_cost = range(len(taus)), taus, cost
    b = np.ones((len(taus), a.shape[0]))
    for width in widths:
        b[:len(rows), 1:k + 1] = open_taus + width
        b[:len(rows), k + 1:] = 2.0 * width
        missed = []
        for i, res in zip(rows, _simplex.solve_lps(open_cost, a, b[:len(rows)])):
            if isinstance(res, Infeasible):
                missed.append(i)
            elif isinstance(res, Exception):
                reads[i] = res
            elif _read_counts(tmat, taus[i], res[0], lifted):
                reads[i] = res[0], res[2], width
            else:
                missed.append(i)
        if not missed:
            break
        rows, open_taus, open_cost = missed, taus[missed], cost[missed]
    return reads


def max_expectation(g: GammaTau, values) -> float:
    """sup over Gamma_tau of E_P values, for values in (-inf, +inf], by LP:
    the one-row call of `max_expectations`.  Raises Infeasible for an empty
    Gamma_tau."""
    return raised(max_expectations([g], [values])[0])


def _expectation_values(g: GammaTau, values):
    """(values, mask of the finite ones) checked for `max_expectations`, or
    (None, None) when a member of Gamma_tau charges an infinite value."""
    v = np.asarray(values, dtype=float)
    if v.shape != (g.n,):
        raise DimensionMismatch("values do not match the statistic")
    if not v.min() > -np.inf:   # a nan or -inf
        raise UndefinedExpectation("nan or -inf encountered in expectation")
    finite = v < np.inf
    if not finite.all() and not finite[union_support(g)].all():
        return None, None
    return v, finite


def max_expectations(gammas: list, values: list) -> list:
    """sup over Gamma_tau of E_P values at each pair of Gamma_tau and values
    in (-inf, +inf]: per pair, its supremum or the exception it raises
    (Infeasible for an empty Gamma_tau), in place.  One pair is
    `max_expectation`.

    +inf when a member charges an outcome of infinite value (`union_support`
    reads what members charge); otherwise those outcomes carry no mass, so
    their columns are dropped, and the supremum is +inf when Gamma_tau is
    empty without them.  The pairs that need an LP are grouped by statistic
    and by the mask of their finite values, and each group's reads run
    stacked (`_lp_reads`): T p = tau is read exactly or within
    CONSISTENCY_TOL, and a point is accepted only within CONSISTENCY_TOL, as
    the vertex enumeration does.
    """
    tops, groups = [None] * len(gammas), {}
    for i, (g, values) in enumerate(zip(gammas, values)):
        try:
            v, finite = _expectation_values(g, values)
        except (ArithmeticError, TypeError, ValueError) as exc:
            tops[i] = exc
            continue
        if v is None:
            tops[i] = float(np.inf)
            continue
        key = id(g.statistic), finite.tobytes()
        groups.setdefault(key, (g.statistic.matrix, finite, []))[2].append((i, g.tau, v[finite]))
    for tmat, finite, members in groups.values():
        rows, taus, vs = zip(*members)
        taus = np.array(taus)
        reads = _lp_reads(tmat[:, finite], taus, -np.array(vs))
        for i, tau, v, read in zip(rows, taus, vs, reads):
            if read is None:   # no member without the infinite values
                tops[i] = (Infeasible(f"Gamma_tau empty for tau={tau}") if finite.all()
                           else float(np.inf))
            else:
                tops[i] = read if isinstance(read, Exception) else float(v @ read[0][:v.size])
    return tops


def min_max_expectation(tmat: np.ndarray, taus: np.ndarray, cols: np.ndarray) -> list:
    """min over {P : sum p = 1, T p = tau} of max_j E_P cols[:, j] >= 0, one
    LP per row tau of taus (S, k), the LPs in lockstep (`_simplex.solve_lps`).

    The variables are p, the level m and one slack s_j per column, all >= 0,
    with cols' p - m + s = 0; T p = tau is read exactly.  Returns, per row,
    (m*, p, reduced costs of p, reduced costs of s) or the exception raised
    there (Infeasible for an empty Gamma_tau), in place; the reduced costs
    of s are the columns' dual weights, which sum to one when m* > 0.
    """
    k, n = tmat.shape
    w = cols.shape[1]
    a = np.zeros((w + k + 1, n + 1 + w))
    a[:w, :n] = cols.T
    a[:w, n] = -1.0
    a[:w, n + 1:] = np.eye(w)
    a[w, :n] = 1.0
    a[w + 1:, :n] = tmat
    c = np.zeros((len(taus), n + 1 + w))
    c[:, n] = 1.0
    b = np.zeros((len(taus), w + k + 1))
    b[:, w] = 1.0
    b[:, w + 1:] = taus
    found = _simplex.solve_lps(c, a, b)
    for i, res in enumerate(found):
        if isinstance(res, Infeasible):
            found[i] = Infeasible(f"Gamma_tau empty for tau={taus[i]}")
        elif not isinstance(res, Exception):
            x, value, reduced = res
            found[i] = value, x[:n], reduced[:n], reduced[n + 1:]
    return found


def closed_under_conditioning(g: GammaTau) -> bool:
    """True when Gamma_tau equals the full simplex over some outcome subset.

    That happens exactly when every outcome in the union support of Gamma_tau
    has statistic value tau, so conditioning cannot leave the set.
    """
    supp = union_support(g)
    cols = g.statistic.matrix[:, supp]
    return bool(np.max(np.abs(cols - g.tau[:, None])) <= CONSISTENCY_TOL)
