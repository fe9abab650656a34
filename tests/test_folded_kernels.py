"""The one-item certificate kernels against the bodies they had before
each became the one-row call of its block form.

`verify_saddle`, `max_expectation`, `_face`'s LP reads, zero-one phase 1 at
one tau and `LossModel._act_payload` are one-row calls of `verify_grid`,
`max_expectations`, `constraints._lp_reads`, the stacked
`maxent._pattern_pools` and `LossModel._payloads`.  Their former one-item
bodies are kept below verbatim, under their old names (`_act_payload` as a
function of the model), as the references, with the former `_face`,
`union_support`, `_expectation_values` and `_min_pmax` that called them:
every fold must give their results bit for bit (arrays and floats by their
bytes) and raise their exceptions, type and message.

The problems are ladder-shaped (a statistic uniform on [-1, 1]; tau = T p
for p ~ Dirichlet(1), or on the face {t_1 = -1} that k + 2 outcomes share)
at N 3-20 and k 1-3, tau within 1e-10 of a hull vertex, tau outside the
hull, log faces whose acts have +inf losses (against their own Gamma_tau,
where the infinite columns drop, and against an interior one, where the
supremum is +inf), NaN, -inf and wrong-length values, tied integer
statistics for zero-one phase 1 at N <= 12, and the LP paths at N = 160.
`_face` with `support` runs on face taus, which take more than one round,
so the lifted reads of `_lp_reads` are compared too.
"""

from __future__ import annotations

from itertools import chain
from math import comb

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    SampleSpace,
    Statistic,
    brier_model,
    constraints,
    log_model,
    maxent,
    solve,
    verify,
    zero_one_model,
)
from maxentgames import _simplex
from maxentgames.constraints import (
    CONSISTENCY_TOL,
    DEDUP_TOL,
    SYSTEM_BLOCK,
    _certified,
    _read_counts,
    _read_lp,
    support_solutions,
)
from maxentgames.core import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    NORM_TOL,
    WEIGHT_CLAMP,
    Act,
    BaseMeasure,
    CombinatorialBlowup,
    DimensionMismatch,
    Distribution,
    Infeasible,
    NotNormalized,
    UndefinedExpectation,
    attempt,
    ext_dot,
)
from maxentgames.losses import LossModel, bregman_model, xlogx_generator
from maxentgames.maxent import (
    SCREEN_TOL,
    ZERO_ONE_PATTERN_CAP,
    _pattern_systems,
    _pmax_lp,
    _pmax_pick,
)
from maxentgames.verify import BAYES_TOL, VERTEX_TOL, SaddleCheck
from test_solve_grid import assert_same_outcome
from test_vertex_lists import grid, statistic


# ---------------------------------------------------------------------------
# the former one-item bodies, verbatim


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
    (Borwein & Wolkowicz 1981), read by `_lp_read`.  Round 0 leaves every
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
        read = _lp_read(tmat, tau, c, left, widths)
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


def _lp_read(tmat: np.ndarray, tau: np.ndarray, c: np.ndarray, lifted=None,
             widths=(0.0, CONSISTENCY_TOL)):
    """min c @ x over the points p >= 0 of [1; T] p = [1; tau], one LP per width.

    A width w reads the rows as {sum p = 1, T p + d = tau + w, d + d' = 2 w}
    with d, d' >= 0 (k each), so each row of T p - tau lies in [-w, w].  x is
    p, or with the mask `lifted` (s, delta) with p = s + delta on the lifted
    outcomes, then d and d'; c prices its leading entries.  A read counts
    only when its own point meets [1; T] p = [1; tau] within CONSISTENCY_TOL
    in L_inf, the vertex enumeration's test, so the simplex's phase-1
    FEAS_TOL does not stack on a widening.  Returns (x, reduced costs,
    width) of the first read that counts, else None.
    """
    k = tmat.shape[0]
    a, cost = _read_lp(tmat, c, lifted)
    for width in widths:
        b = np.concatenate([[1.0], tau + width, np.full(k, 2.0 * width)])
        try:
            x, _, reduced = _simplex.solve_lp(cost, a, b)
        except Infeasible:
            continue
        if _read_counts(tmat, tau, x, lifted):
            return x, reduced, width
    return None


def max_expectation(g: GammaTau, values) -> float:
    """sup over Gamma_tau of E_P values, for values in (-inf, +inf], by LP.

    +inf when a member charges an outcome of infinite value (`union_support`
    reads what members charge); otherwise those outcomes carry no mass, so
    their columns are dropped, and the supremum is +inf when Gamma_tau is
    empty without them.  `_lp_read` reads T p = tau, exactly or within
    CONSISTENCY_TOL, and accepts a point only within CONSISTENCY_TOL, as the
    vertex enumeration does.  Raises Infeasible for an empty Gamma_tau.
    """
    v, finite = _expectation_values(g, values)
    if v is None:
        return float(np.inf)
    cols = np.flatnonzero(finite)
    return _expectation_top(g, v, cols, _lp_read(g.statistic.matrix[:, cols], g.tau, -v[cols]))


def _expectation_values(g: GammaTau, values):
    """(values, mask of the finite ones) checked for `max_expectation`, or
    (None, None) when a member of Gamma_tau charges an infinite value."""
    v = np.asarray(values, dtype=float)
    if v.shape != (g.n,):
        raise DimensionMismatch("values do not match the statistic")
    if np.isnan(v).any() or np.isneginf(v).any():
        raise UndefinedExpectation("nan or -inf encountered in expectation")
    finite = np.isfinite(v)
    if not finite.all() and not finite[union_support(g)].all():
        return None, None
    return v, finite


def _expectation_top(g: GammaTau, v: np.ndarray, cols: np.ndarray, read) -> float:
    """`max_expectation` from the read of its LP over the finite columns `cols`."""
    if read is not None:
        return float(v[cols] @ read[0][:cols.size])
    if cols.size == g.n:
        raise Infeasible(f"Gamma_tau empty for tau={np.asarray(g.tau)}")
    return float(np.inf)


def _min_pmax(statistic: Statistic, taus) -> list:
    """Minimize max_x p(x) over Gamma_tau for each tau of `taus`: one LP per
    tau screens, exact patterns decide.  The LPs of all the taus run in
    lockstep, one `_pmax_lp` call on the stack of taus.

    The LP in (p, m, s) with p_x - m + s_x = 0, sum p = 1 and T p = tau
    gives the minimum m* and the reduced costs of its final basis.  By
    complementary slackness, which holds for any optimal dual, a positive
    reduced cost on p_x makes x zero in every minimizer, and one on s_x makes
    p_x = m* in every minimizer.  The pattern systems (members at level m,
    free outcomes below it, zeros elsewhere) then run with members holding
    every forced mode outside the free set and no forced zero; free sets
    still range over all outcomes.  Each block of them (`_pattern_systems`)
    takes one exact test (`support_solutions`, then free weights at most
    m + 1e-9).  A pattern minimum above the LP value is an error, not a
    reason to enumerate more.

    The systems depend on tau only through the LP's (zero, mode) masks, so
    the taus the LP screens alike share them: each block is solved against
    the stacked targets [1; tau] of a chunk of those taus, a chunk holding as
    many as keep a call within SYSTEM_BLOCK systems, and every solution is
    the one a single tau gets.  An exception in a chunk's exact tests is
    every one of its taus'.

    The loop is fast when the LP leaves few outcomes open; ties in the
    statistic leave many minimizers and so many open outcomes.  It runs
    sum over free sets F of 2^|open - F| systems, and more than
    ZERO_ONE_PATTERN_CAP of them raise CombinatorialBlowup.  Returns, per
    tau, (m*, P*, the LP's dual weights on its columns) or the exception
    phase 1 raised there.
    """
    n, k = statistic.n, statistic.k
    tmat = statistic.matrix
    found = _pmax_lp(tmat, np.array(taus))
    live = [i for i, screen in enumerate(found) if not isinstance(screen, Exception)]
    groups = {}
    for i in live:
        zero, mode = found[i][1], found[i][2] > SCREEN_TOL
        if len(live) == 1:   # one tau, one group
            groups[None] = zero, mode, live
        else:
            groups.setdefault((zero.tobytes(), mode.tobytes()), (zero, mode, []))[2].append(i)
    for zero, mode, idx in groups.values():
        n_open = n - int(np.count_nonzero(zero | mode))
        systems = sum(comb(n_open, j) * comb(n - n_open, f - j) << (n_open - j)
                      for f in range(k + 1) for j in range(min(f, n_open) + 1))
        if systems > ZERO_ONE_PATTERN_CAP:
            for i in idx:
                found[i] = CombinatorialBlowup(
                    f"zero-one phase 1 needs {systems} pattern systems ({n_open} outcomes "
                    f"left open by the LP); the cap is {ZERO_ONE_PATTERN_CAP}")
            continue
        per = max(1, SYSTEM_BLOCK // systems)
        for lo in range(0, len(idx), per):
            chunk = idx[lo:lo + per]
            pools = attempt(_pattern_pools, tmat, zero, mode, [taus[i] for i in chunk])
            for j, i in enumerate(chunk):
                found[i] = pools if isinstance(pools, Exception) else attempt(
                    _pmax_pick, taus[i], found[i], *pools[j])
    return found


def _pattern_pools(tmat: np.ndarray, zero, mode, taus) -> list:
    """(levels, points) of the candidates that pass the exact test, in loop
    order, for each tau of `taus`; each block of `_pattern_systems` is solved
    against all their targets [1; tau] in one `support_solutions` call.  One
    tau's target is not stacked, and its candidates need no grouping: the
    points come as the blocks' rows."""
    k = tmat.shape[0]
    if len(taus) == 1:
        target = np.concatenate([[1.0], taus[0]])
    else:
        target = np.ones((len(taus), 1, k + 1))
        target[:, 0, 1:] = taus
    owners, levels, points = [], [], []
    for free, members, a in _pattern_systems(tmat, zero, mode, k):
        passes, sol, _ = support_solutions(a, target)
        m, pf = sol[..., 0], sol[..., 1:]
        keep = passes & (pf.max(axis=-1, initial=-np.inf) <= m + 1e-9)
        *owner, s = keep.nonzero()
        level = np.where(m < 0.0, 0.0, m)[keep]
        p = np.where(members[s], level[:, None], 0.0)
        p[np.arange(s.size)[:, None], free[s]] = np.where(pf < 0.0, 0.0, pf)[keep]
        owners += owner
        levels.append(level)
        points.append(p)
    if len(taus) == 1:
        return [([m for level in levels for m in level.tolist()], chain.from_iterable(points))]
    owner = np.concatenate(owners)
    level, p = np.concatenate(levels), np.concatenate(points)
    # group by tau, each tau's in loop order
    order = owner.argsort(kind="stable")
    level, p = level[order], p[order]
    ends = np.bincount(owner, minlength=len(taus)).cumsum().tolist()
    return [(level[lo:hi].tolist(), p[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def verify_saddle(model: LossModel, g: GammaTau, p_star: Distribution,
                  zeta_star: Act) -> SaddleCheck:
    """Certify both saddle-point inequalities.

    The Bayes inequality is checked at P*.  The other one,
    sup over P in Gamma_tau of E_P L(X, zeta*) <= L(P*, zeta*), is one LP
    over Gamma_tau (`max_expectation`); its supremum sits at a vertex, but
    the vertex list is not built, so no size cap applies.
    """
    lv, at_p, bayes_margin = _bayes_side(model, p_star, zeta_star)
    return _saddle_check(bayes_margin, max_expectation(g, lv), at_p)


def _bayes_side(model: LossModel, p_star: Distribution, zeta_star: Act):
    """(L(., zeta*), L(P*, zeta*), the Bayes margin |L(P*, zeta*) - H(P*)|)."""
    lv = model.loss_vector(zeta_star)
    at_p = ext_dot(p_star.w, lv)
    return lv, at_p, abs(at_p - model.entropy(p_star))


def _saddle_check(bayes_margin, top: float, at_p) -> SaddleCheck:
    """The SaddleCheck from the Bayes margin and the certificate's supremum."""
    vertex_margin = top - at_p
    ok = bool(bayes_margin <= BAYES_TOL and vertex_margin <= VERTEX_TOL)
    return SaddleCheck(float(bayes_margin), vertex_margin, ok)


def _act_payload(self, act: Act, kind: str, weights=None) -> np.ndarray:
    """The payload of a `kind` act: finite, nonnegative and of mass one,
    its sum, or its integral against `weights` for a density."""
    if act.kind != kind:
        raise DimensionMismatch(f"{self.name} expects {kind} acts")
    q = act.as_array()
    if q.shape != (self.space.n,):
        raise DimensionMismatch(
            f"act payload shape {q.shape} does not match {self.space.n} outcomes")
    if not float(q.min()) >= -WEIGHT_CLAMP:
        raise DimensionMismatch(f"{kind} act values must be finite and nonnegative")
    q = np.where(q < 0.0, 0.0, q)
    mass = float(q.sum() if weights is None else q @ weights)
    if abs(mass - 1.0) > NORM_TOL:
        raise NotNormalized(f"{kind} act has mass {mass!r}, not 1")
    return q


# ---------------------------------------------------------------------------
# problems


def outcome(fn, *args):
    """fn(*args), or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def fresh(g):
    """Gamma_tau of g's statistic and tau, with no union support kept on it."""
    return GammaTau(Statistic(g.statistic.matrix), g.tau)


MODELS = {
    "brier": brier_model,
    "log": log_model,
    "zero-one": zero_one_model,
    "bregman": lambda space: bregman_model(space, xlogx_generator()),
}


def ladder_problem(rng, n, k, face):
    """A statistic uniform on [-1, 1] and tau = T p; on the face {t_1 = -1}
    of k + 2 outcomes when `face`."""
    t = rng.uniform(-1.0, 1.0, size=(k, n))
    if face:
        on = rng.choice(n, size=min(k + 2, n), replace=False)
        t[0, on] = -1.0
        p = np.zeros(n)
        p[on] = rng.dirichlet(np.ones(on.size))
    else:
        p = rng.dirichlet(np.ones(n))
    tau = t @ p
    if face:
        tau[0] = -1.0
    return t, tau


def problems(seed, sizes=(3, 4, 6, 8, 12, 16, 20)):
    """(t, taus, face): ladder-shaped statistics at N in `sizes` and k 1-3.
    An interior statistic comes with an interior tau, a tau within 1e-10 of
    a hull vertex (the column that maximizes a random direction), on either
    side, and a tau outside the hull; a face statistic with its face tau."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        for k in (1, 2, 3):
            t, tau = ladder_problem(rng, n, k, False)
            top = int(np.argmax(rng.standard_normal(k) @ t))
            vertex = t[:, top] + rng.choice([-1e-10, 1e-10], k)
            yield t, [tau, vertex, rng.uniform(2.0, 3.0, k)], False
            t, tau = ladder_problem(rng, n, k, True)
            yield t, [tau], True


def at_scale(seed):
    """The LP paths at N = 160, k 1-3: `problems` without the tau near a
    hull vertex, where a Brier solve scans about 660,000 support systems
    one at a time and takes over 15 s."""
    for t, taus, face in problems(seed, sizes=(160,)):
        yield t, taus[:1] + taus[2:], face


# ---------------------------------------------------------------------------
# the folds against the references


def test_lp_reads_are_the_one_row_reads():
    rng = np.random.default_rng(20261101)
    seen = set()
    for t, taus, _ in chain(problems(1), at_scale(2)):
        k, n = t.shape
        for tau in taus:
            lifted = rng.random(n) < 0.6 if rng.random() < 0.5 else np.ones(n, dtype=bool)
            delta = np.zeros(n + 1)
            delta[n] = -1.0
            for c, mask, widths in ((-rng.uniform(-1.0, 1.0, n), None, (0.0, CONSISTENCY_TOL)),
                                    (delta, lifted, (0.0, CONSISTENCY_TOL)),
                                    (delta, lifted, (0.0,)),
                                    (delta, lifted, (CONSISTENCY_TOL,))):
                ref = outcome(_lp_read, t, tau, c, mask, widths)
                (found,) = constraints._lp_reads(t, tau[None], c[None], mask, widths)
                assert_same_outcome(found, ref, (n, k, widths))
                seen.add(type(ref).__name__)
    assert seen == {"tuple", "NoneType"}


def test_face_is_the_reference_face(monkeypatch):
    rounds = []
    inner = constraints._lp_reads

    def counted(tmat, taus, cs, lifted=None, widths=(0.0, CONSISTENCY_TOL)):
        rounds.append(len(widths) == 1)   # a later round reads at round 0's width
        return inner(tmat, taus, cs, lifted, widths)

    monkeypatch.setattr(constraints, "_lp_reads", counted)
    classes = set()
    for t, taus, _ in chain(problems(3), at_scale(4)):
        for tau in taus:
            for support in (False, True):
                ref = _face(t, tau, support)
                found = constraints._face(t, tau, support)
                assert found[0] == ref[0], (t.shape, support)
                assert_same_outcome(found[1], ref[1], (t.shape, support))
                classes.add(ref[0])
    assert classes == {"interior", "boundary", "outside"}
    assert sum(rounds) >= 20   # support reads past round 0, on the lifted outcomes left


def value_rows(rng, t, face):
    """Values to take the supremum of: finite ones; +inf off the face {t_1 =
    -1} (no member of a face Gamma_tau charges there, so those columns drop,
    while an interior Gamma_tau charges them: +inf); a NaN, a -inf and a
    vector of the wrong length."""
    n = t.shape[1]
    v = rng.uniform(-1.0, 1.0, n)
    off = np.where(t[0] == -1.0, v, np.inf) if face else np.where(rng.random(n) < 0.3, np.inf, v)
    rows = [v, off]
    for bad in (np.nan, -np.inf):
        w = v.copy()
        w[rng.integers(n)] = bad
        rows.append(w)
    rows.append(v[:-1])
    return rows


def test_max_expectation_is_the_reference():
    rng = np.random.default_rng(20261102)
    seen = set()
    for t, taus, face in chain(problems(5), at_scale(6)):
        for tau in taus:
            g = GammaTau(Statistic(t), tau)
            for values in value_rows(rng, t, face):
                ref = outcome(max_expectation, fresh(g), values)
                found = outcome(constraints.max_expectation, fresh(g), values)
                assert_same_outcome(found, ref, (t.shape, face))
                seen.add("inf" if ref == np.inf else type(ref).__name__)
    assert seen == {"float", "inf", "Infeasible", "UndefinedExpectation", "DimensionMismatch"}


def saddle_rows(model, t, taus):
    """(Gamma_tau, P*, zeta*) per tau: the solver's saddle point where it
    solves, else the uniform law and its Bayes act; then the first face act
    (of a log face, +inf off the face) against the first interior Gamma_tau,
    and an act of the wrong size."""
    n = t.shape[1]
    uniform = Distribution.uniform(n)
    rows, faces, inner = [], [], []
    for tau in taus:
        g = GammaTau(Statistic(t), tau)
        sp = outcome(solve, model, g)
        if isinstance(sp, Exception):
            rows.append((g, uniform, model.bayes_act(uniform)))
            continue
        (faces if sp.p_star.w.min() == 0.0 else inner).append(len(rows))
        rows.append((g, sp.p_star, sp.zeta_star))
    if faces and inner:
        rows.append((rows[inner[0]][0], rows[faces[0]][1], rows[faces[0]][2]))
    rows.append((rows[0][0], uniform, Act(model.act_kind, np.full(n + 1, 1.0 / (n + 1)))))
    return rows


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_verify_saddle_is_the_reference(kind):
    # zero-one stays at the ladder's sizes, N <= 12
    if kind == "zero-one":
        cases = list(problems(7, (3, 4, 6, 8, 12)))
    else:
        cases = list(chain(problems(7), at_scale(8)))
    seen = set()
    # interior and face problems of one size and k share a row list, so a
    # face act meets an interior Gamma_tau
    for (t, taus, _), (t_face, face_taus, _) in zip(cases[0::2], cases[1::2]):
        model = MODELS[kind](SampleSpace.of(range(t.shape[1])))
        rows = saddle_rows(model, t, taus)
        face_rows = saddle_rows(model, t_face, face_taus)
        rows += face_rows + [(rows[0][0], face_rows[0][1], face_rows[0][2])]
        for g, p_star, zeta_star in rows:
            ref = outcome(verify_saddle, model, fresh(g), p_star, zeta_star)
            found = outcome(verify.verify_saddle, model, fresh(g), p_star, zeta_star)
            assert_same_outcome(found, ref, (kind, t.shape))
            if isinstance(ref, SaddleCheck):
                seen.add("inf" if ref.vertex_margin == np.inf else "saddle")
            else:
                seen.add(type(ref).__name__)
    assert {"saddle", "Infeasible", "DimensionMismatch"} <= seen
    if kind == "log":
        assert "inf" in seen


def zero_one_statistics(rng):
    """(t, taus): ladder-shaped statistics at N 3-12 with their taus, and
    tied integer ones (test_vertex_lists' statistics) with grids of taus."""
    for t, taus, _ in problems(8, (3, 4, 6, 8, 12)):
        yield t, taus
    for n in (3, 4, 5, 6, 8, 10, 12):
        for k in (1, 2, 3):
            t = statistic(rng, n, k, True)
            yield t, grid(rng, t, 6 if n <= 8 else 3)


def test_zero_one_phase_one_is_the_reference():
    rng = np.random.default_rng(20261103)
    seen = set()
    for t, taus in zero_one_statistics(rng):
        for tau in taus:
            (ref,) = _min_pmax(Statistic(t), [tau])
            (found,) = maxent._min_pmax(Statistic(t), [tau])
            assert_same_outcome(found, ref, (t.shape, tuple(tau)))
            seen.add(type(ref).__name__)
            if isinstance(ref, Exception):
                continue
            (screen,) = _pmax_lp(t, tau[None])
            zero, mode = screen[1], screen[2] > SCREEN_TOL
            ((levels, points),) = _pattern_pools(t, zero, mode, [tau])
            ((found_levels, found_points),) = maxent._pattern_pools(t, zero, mode, [tau])
            assert np.array(found_levels).tobytes() == np.array(levels).tobytes()
            ref_points = np.array(list(points)).reshape(-1, t.shape[1])
            assert found_points.tobytes() == ref_points.tobytes()
    assert seen == {"tuple", "Infeasible"}


def payloads(rng, n, weights):
    """Acts of n outcomes whose payloads the checks pass or refuse: laws
    (divided by the base weights for a density), off their mass by 1e-10 to
    1e-2 either way, entries slightly or clearly negative, NaN, +inf and
    -inf entries, and payloads of the wrong shape."""
    law = rng.dirichlet(np.ones(n))
    q = law if weights is None else law / weights
    rows = [q]
    for scale in (1e-10, 9e-10, 2e-9, 1e-6, 1e-2):
        rows.append(q * (1.0 + rng.choice([-1.0, 1.0]) * scale))
    for bad in (-1e-13, -1e-12, -3e-12, -1e-3, np.nan, np.inf, -np.inf):
        w = q.copy()
        w[rng.integers(n)] = bad
        rows.append(w)
    rows += [q[:-1], np.append(q, 0.0), q[None]]
    return rows


def test_act_payload_is_the_reference():
    rng = np.random.default_rng(20261104)
    checked, seen = 0, set()
    for n in (1, 2, 3, 5, 8, 13, 40):
        space = SampleSpace.of(range(n))
        base = BaseMeasure(rng.uniform(0.2, 3.0, n))
        models = [(brier_model(space), ACT_DISTRIBUTION, None),
                  (zero_one_model(space), ACT_DISTRIBUTION, None),
                  (log_model(space, base), ACT_DENSITY, base.weights),
                  (bregman_model(space, xlogx_generator()), ACT_DENSITY,
                   BaseMeasure.counting(n).weights)]
        for model, kind, weights in models:
            other = ACT_DENSITY if kind == ACT_DISTRIBUTION else ACT_DISTRIBUTION
            for _ in range(6):
                for q in payloads(rng, n, weights):
                    for act in (Act(kind, q), Act(other, q)):
                        ref = outcome(_act_payload, model, act, kind, weights)
                        found = outcome(model._act_payload, act, kind, weights)
                        assert_same_outcome(found, ref, (n, model.name))
                        checked += 1
                        seen.add(type(ref).__name__)
    assert checked >= 2400
    assert seen == {"ndarray", "DimensionMismatch", "NotNormalized"}


def test_act_payload_messages_of_the_cli_checks():
    model = brier_model(SampleSpace.of("abc"))
    with pytest.raises(NotNormalized, match=r"^distribution act has mass 0\.6000000000000001, not 1$"):
        model.loss_vector(Act(ACT_DISTRIBUTION, [0.2, 0.2, 0.2]))
    with pytest.raises(DimensionMismatch, match=r"^act payload shape \(2,\) does not match 3 outcomes$"):
        model.loss_vector(Act(ACT_DISTRIBUTION, [0.2, 0.8]))
