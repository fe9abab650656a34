"""The dual Brier solver against the exact support enumeration it replaced.

`enumerate_brier` is the old solver kept as a test oracle: it tries all 2^N
supports, so it is capped at BRIER_ENUM_CAP outcomes.  The problems mix
continuous and integer-valued statistics (ties between outcomes), tau on
hull faces and tau from sparse laws (vertices and low-dimensional faces of
Gamma_tau), where the dual is degenerate, and tau at or within 1e-10 of a
hull vertex.  The dual names at most two supports for the exact test, at
any N.
"""

from itertools import combinations

import numpy as np
import pytest

from maxentgames import (
    CombinatorialBlowup,
    GammaTau,
    Infeasible,
    SampleSpace,
    Statistic,
    brier_model,
    maxent,
    solve,
    solve_grid,
    verify_saddle,
)
from maxentgames.constraints import CONSISTENCY_TOL, support_solutions
from maxentgames.core import WEIGHT_CLAMP
from maxentgames.maxent import BRIER_GAP_TOL, _brier_degenerate_beta
from test_folded_kernels import problems

BRIER_ENUM_CAP = 16


def enumerate_brier(g):
    """(p, h, beta) of the Brier game over Gamma_tau, by support enumeration.

    On each support the entropy maximizer is the minimum-norm solution of
    {sum p = 1, T p = tau}; nonnegative solutions are scanned by size
    descending, then in `combinations` order, and one replaces the incumbent
    only when its entropy is larger by more than 1e-12.
    """
    n, k = g.n, g.k
    if n > BRIER_ENUM_CAP:
        raise CombinatorialBlowup(
            f"N={n} exceeds the Brier enumeration cap {BRIER_ENUM_CAP}")
    rows = np.vstack([np.ones(n), g.statistic.matrix])
    target = np.concatenate([[1.0], g.tau])
    best = None
    for size in range(n, 0, -1):
        for supp in combinations(range(n), size):
            a = rows[:, supp]
            sol, *_ = np.linalg.lstsq(a, target, rcond=None)
            if np.max(np.abs(a @ sol - target)) > CONSISTENCY_TOL:
                continue
            if float(sol.min()) < -WEIGHT_CLAMP:
                continue
            p = np.zeros(n)
            p[list(supp)] = np.where(sol < 0.0, 0.0, sol)
            h = 1.0 - float(p @ p)
            if best is None or h > best[0] + 1e-12:
                best = (h, p)
    if best is None:
        raise Infeasible(f"Gamma_tau empty for tau={g.tau}")
    h, p = best
    supp = np.flatnonzero(p > WEIGHT_CLAMP)
    a = rows[:, supp]
    alpha, *_ = np.linalg.lstsq(a.T, p[supp], rcond=None)
    if np.linalg.matrix_rank(a, tol=1e-10) == k + 1:
        beta = -2.0 * alpha[1:]
    else:
        beta = _brier_degenerate_beta(g, p, supp)
    return p, h, beta


def random_problem(rng, sizes=(3, 10)):
    """A feasible (statistic, tau): continuous or integer T at N in
    range(*sizes); tau from a full, sparse or face-supported law."""
    n = int(rng.integers(*sizes))
    k = int(rng.integers(1, 4))
    integer = bool(rng.random() < 0.6)
    if integer:
        t = rng.integers(-2, 3, size=(k, n)).astype(float)
    else:
        t = rng.uniform(-1.0, 1.0, size=(k, n))
    kind = rng.integers(0, 3)
    if kind == 0:
        on = np.arange(n)
    elif kind == 1:
        on = rng.choice(n, size=int(rng.integers(1, min(n, k + 2) + 1)), replace=False)
    else:
        # a face {t_1 = min t_1}: put the support on the minimizers
        if not integer:
            t[0, rng.choice(n, size=min(k + 2, n), replace=False)] = -1.0
        on = np.flatnonzero(t[0] == t[0].min())
    p = np.zeros(n)
    p[on] = rng.dirichlet(np.ones(on.size))
    if integer and rng.random() < 0.5:
        p = np.round(p * 4.0)   # rational tau: ties on the dual side too
        if p.sum() == 0.0:
            p[on[0]] = 1.0
        p /= p.sum()
    return Statistic(t), t @ p


def test_dual_solver_matches_support_enumeration():
    rng = np.random.default_rng(20261018)
    for case in range(324):   # the last 24 at N 10-12
        stat, tau = random_problem(rng, (3, 10) if case < 300 else (10, 13))
        g = GammaTau(stat, tau)
        p, h, beta = enumerate_brier(g)
        sp = solve(brier_model(SampleSpace.of(range(stat.n))), g)
        assert np.max(np.abs(sp.p_star.w - p)) <= 1e-12, case
        assert abs(sp.h_star - h) <= 1e-12, case
        if beta is None:
            assert sp.beta is None, case
        else:
            assert sp.beta is not None, case
            assert np.max(np.abs(sp.beta - beta)) <= 1e-9, case


def near_vertex(rng, n, k):
    """(statistic, tau): T uniform on [-1, 1] and tau the column that
    maximizes a random direction, moved by 0 or +-1e-10 per row."""
    t = rng.uniform(-1.0, 1.0, size=(k, n))
    top = int(np.argmax(rng.standard_normal(k) @ t))
    return Statistic(t), t[:, top] + rng.choice([-1e-10, 0.0, 1e-10], k)


def test_dual_solver_near_a_vertex_meets_the_enumeration():
    rng = np.random.default_rng(20261021)
    for case in range(30):
        stat, tau = near_vertex(rng, int(rng.integers(8, 13)), int(rng.integers(1, 4)))
        g = GammaTau(stat, tau)
        model = brier_model(SampleSpace.of(range(stat.n)))
        _, h, _ = enumerate_brier(g)
        sp = solve(model, g)
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, case
        assert abs(sp.h_star - h) <= BRIER_GAP_TOL, case


def test_brier_scan_tests_at_most_two_supports_per_tau(monkeypatch):
    # pytest.fail, not an Exception, escapes the fallback of `_by_slice`,
    # so a scan past its bound stops at its first extra system
    tested, allowed = [], [0]

    def counted(a, target):
        tested.append(len(a))
        if sum(tested) > allowed[0]:
            pytest.fail(f"{sum(tested)} support systems tested, {allowed[0]} allowed")
        return support_solutions(a, target)

    monkeypatch.setattr(maxent, "support_solutions", counted)

    def solved(model, stat, taus):
        tested.clear()
        allowed[0] = 2 * len(taus)
        found = solve_grid(model, stat, taus)
        for tau, sp in zip(taus, found):
            assert not isinstance(sp, Exception), (tau, sp)
            assert verify_saddle(model, GammaTau(stat, tau), sp.p_star, sp.zeta_star).is_saddle
        return sum(tested)

    model = brier_model(SampleSpace.of(range(160)))
    for seed in (7, 8, 9):
        for t, taus, face in problems(seed, (160,)):
            if not face:
                assert solved(model, Statistic(t), [taus[1]]) >= 1
    t = next(problems(7, (160,)))[0]   # k = 1: the grid runs over the hull, ends included
    assert solved(model, Statistic(t), np.linspace(t.min(), t.max(), 41)[:, None]) >= 41
