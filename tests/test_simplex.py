"""The in-house simplex against scipy's HiGHS, and the reduced costs it returns.

scipy is a test dependency only (the `test` extra); the runtime stays
numpy-only, so the HiGHS comparisons skip where scipy is missing.  The LPs
are the two the solvers build on 7 outcomes: zero-one phase 1 (min over
Gamma_tau of max_x p(x)), which also gives zero-one upper values, and the
matrix game of the Gamma_tau vertices against point acts, their oracle.
"""

import numpy as np
import pytest

from maxentgames import (
    GammaTau,
    SampleSpace,
    Statistic,
    lp_game_value,
    restricted_upper_value,
    vertices,
    zero_one_model,
)
from maxentgames import _simplex
from maxentgames.maxent import _pmax_lp

ZERO_ONE_7 = zero_one_model(SampleSpace.of(range(7)))


def seven_outcome_problems(seed, count):
    """(T, tau) on 7 outcomes: k = 1 + i % 3, T integer in [-2, 2] for even i
    and uniform on [-1, 1] for odd i, tau = T p with p ~ Dirichlet(0.5)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = 1 + i % 3
        if i % 2:
            t = rng.uniform(-1.0, 1.0, (k, 7))
        else:
            t = rng.integers(-2, 3, (k, 7)).astype(float)
        yield t, t @ rng.dirichlet(0.5 * np.ones(7))


def test_ratio_test_keeps_the_equality_rows():
    # trial 410 of seed 123: the exact-ratio tie rule pivoted on a tiny entry,
    # the column player's LP left its rows 1e-4 off, and lp_game_value's
    # duality check failed; HiGHS gives m* = 0.3106480428722476
    t, tau = list(seven_outcome_problems(123, 411))[-1]
    g = GammaTau(Statistic(t), tau)
    assert vertices(g).m == 8
    value = restricted_upper_value(ZERO_ONE_7, g).value
    assert value == pytest.approx(1.0 - 0.3106480428722476, abs=1e-12)


def test_reduced_costs_certify_the_optimum():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 12))
        a = rng.uniform(-1.0, 1.0, (m, n))
        b = a @ rng.dirichlet(np.ones(n))          # feasible
        c = rng.uniform(0.0, 1.0, n)               # bounded below on x >= 0
        x, value, reduced = _simplex.solve_lp(c, a, b)
        assert x.min() >= 0.0
        assert np.max(np.abs(a @ x - b)) <= 1e-9
        assert value == float(c @ x)
        assert reduced.shape == (n,)
        assert reduced.min() >= -1e-9
        # complementary slackness: positive reduced costs only off the support
        assert abs(float(reduced @ x)) <= 1e-9
        # reduced = c - a' y for one dual y, and b' y is the optimum
        y, *_ = np.linalg.lstsq(a.T, c - reduced, rcond=None)
        assert np.max(np.abs(a.T @ y + reduced - c)) <= 1e-9
        assert float(b @ y) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("bland_after", [_simplex.BLAND_AFTER, 0])
def test_beale_degenerate_lp(bland_after, monkeypatch):
    # Beale's example, on which most-negative pricing with lowest-index ties
    # cycles: the default rules and Bland's rule alone (the anti-cycling
    # fallback, here from the first pivot) reach -5/4 at x1 = 3/4, x4 = x6 = 1
    monkeypatch.setattr(_simplex, "BLAND_AFTER", bland_after)
    c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
    a = [[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
         [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]]
    x, value, reduced = _simplex.solve_lp(c, a, [0.0, 0.0, 1.0])
    assert value == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert reduced.min() >= -1e-12


def test_phase_one_lp_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = 7
    for case, (t, tau) in enumerate(seven_outcome_problems(123, 600)):
        value, _, _ = _pmax_lp(t, tau)
        # the same program in (p, m) with p <= m as inequalities
        res = linprog(
            np.r_[np.zeros(n), 1.0],
            A_ub=np.hstack([np.eye(n), -np.ones((n, 1))]), b_ub=np.zeros(n),
            A_eq=np.vstack([np.r_[np.ones(n), 0.0], np.hstack([t, np.zeros((len(t), 1))])]),
            b_eq=np.r_[1.0, tau],
            bounds=[(0.0, None)] * (n + 1), method="highs")
        assert res.status == 0, case
        assert value == pytest.approx(res.fun, abs=1e-9), case


def test_point_act_games_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = 7
    for case, (t, tau) in enumerate(seven_outcome_problems(123, 600)):
        points = vertices(GammaTau(Statistic(t), tau)).points
        # min over mixed point acts z of the worst vertex loss 1 - V z
        loss = 1.0 - points
        sol = lp_game_value(loss)
        res = linprog(
            np.r_[np.zeros(n), 1.0],
            A_ub=np.hstack([loss, -np.ones((len(points), 1))]),
            b_ub=np.zeros(len(points)),
            A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)], method="highs")
        assert res.status == 0, case
        assert sol.value == pytest.approx(res.fun, abs=1e-9), case
        # the row strategy, read off the reduced costs, guarantees the value
        assert sol.row_guarantee >= res.fun - 1e-9, case
