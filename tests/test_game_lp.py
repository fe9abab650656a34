"""The one point-act game LP against the matrix-game LP it replaced.

`lp_game_value` is `maxent._point_act_game` over the simplex of rows: one
`min_max_expectation` LP on the columns payoff.max() + 1 - payoff, whose
primal is the row strategy and whose dual weights are the column strategy.
Its former body, a slack-column LP of its own on `_simplex.solve_lp` with
the row strategy read off the reduced costs, is kept below verbatim as the
reference.  Both are run on seeded payoffs (normal and integer entries,
every shape from 1 x 1 to 12 x 12, single rows and columns, the 201 x 2
zero game) and on the zero-one capacities of the benchmark's shapes, which
call it through `_mixture_max`.
"""

from __future__ import annotations

import numpy as np

from maxentgames import (
    SampleSpace,
    StatModel,
    capacity_solve,
    lp_game_value,
    zero_one_model,
)
from maxentgames import _simplex
from maxentgames.maxent import DUALITY_TOL, GameSolution, point_act_losses


def _former_lp_game_value(payoff) -> GameSolution:
    """Value and optimal mixed strategies of a finite zero-sum game.

    One LP, on the shifted-positive matrix Lp, by the in-house dense
    simplex: the column player's max 1'z s.t. Lp z + s = 1.  The row
    player's strategy is its dual, read off the reduced costs of the slack
    columns: u = max(reduced[s], 0) has Lp'u >= 1 and sum u = sum z at the
    optimum.  The strategies certify themselves: raises ArithmeticError
    when col_guarantee - row_guarantee exceeds DUALITY_TOL * max(1, |value|).
    """
    L = np.asarray(payoff, dtype=float)
    if L.ndim != 2:
        raise ValueError("payoff must be a matrix")
    m, n = L.shape
    if not np.all(np.isfinite(L)):
        raise ValueError("payoff entries must be finite")
    shift = 1.0 - float(L.min())
    a = np.hstack([L + shift, np.eye(m)])
    c = np.concatenate([-np.ones(n), np.zeros(m)])
    x, _, reduced = _simplex.solve_lp(c, a, np.ones(m))
    z = x[:n]
    u = np.maximum(reduced[n:], 0.0)
    v = 1.0 / float(z.sum())
    col = z * v
    row = u / float(u.sum())
    value = v - shift
    row_guarantee = float((row @ L).min())
    col_guarantee = float((L @ col).max())
    if col_guarantee - row_guarantee > DUALITY_TOL * max(1.0, abs(value)):
        raise ArithmeticError(
            f"game strategies not optimal: column guarantee {col_guarantee!r}"
            f" above row guarantee {row_guarantee!r}"
        )
    return GameSolution(value, row, col, row_guarantee, col_guarantee)


def payoffs():
    """(label, payoff): 600 seeded games of 1-12 x 1-12, half with normal
    and half with small integer entries, then every 1 x n and m x 1 game of
    both kinds and the 201 x 2 zero game."""
    rng = np.random.default_rng(4301)

    def draw(kind, shape):
        return rng.normal(size=shape) if kind == "normal" else rng.integers(-2, 3, shape)

    for i in range(600):
        kind = ("normal", "integer")[i % 2]
        shape = tuple(int(s) for s in rng.integers(1, 13, 2))
        yield f"{kind} {shape} #{i}", draw(kind, shape)
    for kind in ("normal", "integer"):
        for s in range(1, 13):
            yield f"{kind} 1x{s}", draw(kind, (1, s))
            yield f"{kind} {s}x1", draw(kind, (s, 1))
    yield "zero 201x2", np.zeros((201, 2))


def on_simplex(w):
    return w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12


def test_game_lp_matches_the_former_lp():
    count = 0
    for label, payoff in payoffs():
        new = lp_game_value(payoff)
        old = _former_lp_game_value(payoff)
        assert abs(new.value - old.value) <= 1e-12, (label, new.value - old.value)
        assert new.row_strategy.shape == (payoff.shape[0],), label
        assert new.col_strategy.shape == (payoff.shape[1],), label
        assert on_simplex(new.row_strategy) and on_simplex(new.col_strategy), label
        assert new.row_guarantee >= new.value - 1e-9, label
        assert new.col_guarantee <= new.value + 1e-9, label
        count += 1
    assert count >= 600 + 48 + 1


def test_zero_one_capacities_keep_their_value():
    # the benchmark's capacity shapes: i_star within 1e-12 of the value the
    # former LP gives for the same game of members against point acts
    rng = np.random.default_rng(4302)
    for n, m in ((4, 3), (8, 6), (12, 10)):
        model = zero_one_model(SampleSpace.of([str(i) for i in range(n)]))
        for _ in range(10):
            sm = StatModel(model, tuple(rng.dirichlet(np.ones(n), m)))
            res = capacity_solve(sm)
            game = sm.member_matrix @ point_act_losses(model) - sm.member_entropies[:, None]
            former = _former_lp_game_value(game).value
            assert res.method == "matrix-game" and res.iterations == 0, (n, m)
            assert abs(res.i_star - former) <= 1e-12, (n, m, res.i_star - former)
