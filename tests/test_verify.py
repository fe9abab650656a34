"""Independent game oracles: LP values, upper-value agreement, saddle
certificates, and the equal-loss support set."""

import numpy as np
import pytest

from maxentgames import (
    Act,
    Distribution,
    GammaTau,
    SampleSpace,
    StatModel,
    Statistic,
    brier_model,
    capacity_solve,
    equalizer_check,
    log_model,
    lp_game_value,
    relative_model,
    restricted_upper_value,
    solve,
    specific_entropy,
    u_set_check,
    verify_saddle,
    vertices,
    zero_one_model,
)
from maxentgames import _simplex, maxent
from maxentgames.core import ACT_DISTRIBUTION
from maxentgames.losses import LossModel
from maxentgames.maxent import _tilts, point_act_losses, solve_generic

SPACE = SampleSpace.of(["-1", "0", "1"])
T = Statistic(np.array([[-1.0, 0.0, 1.0]]))
BRIER = brier_model(SPACE)
LOG = log_model(SPACE)
ZERO_ONE = zero_one_model(SPACE)


def gamma(tau):
    return GammaTau(T, np.array([float(tau)]))


# ---------------------------------------------------------------------------
# matrix games


def test_matching_pennies():
    sol = lp_game_value([[1.0, -1.0], [-1.0, 1.0]])
    assert abs(sol.value) <= 1e-9
    assert np.max(np.abs(sol.row_strategy - 0.5)) <= 1e-9
    assert np.max(np.abs(sol.col_strategy - 0.5)) <= 1e-9


def test_unrestricted_zero_one_game():
    payoff = 1.0 - np.eye(3)
    sol = lp_game_value(payoff)
    assert abs(sol.value - 2.0 / 3.0) <= 1e-9
    assert np.max(np.abs(sol.row_strategy - 1.0 / 3.0)) <= 1e-9
    assert np.max(np.abs(sol.col_strategy - 1.0 / 3.0)) <= 1e-9


def test_degenerate_shapes():
    sol = lp_game_value([[3.0, 5.0, 2.0]])
    assert abs(sol.value - 2.0) <= 1e-9
    assert abs(sol.col_strategy[2] - 1.0) <= 1e-9
    tall = lp_game_value([[2.0], [7.0]])
    assert abs(tall.value - 7.0) <= 1e-9
    assert abs(tall.row_strategy[1] - 1.0) <= 1e-9


def test_strategy_guarantees_bracket_value():
    rng = np.random.default_rng(7)
    for _ in range(30):
        payoff = rng.normal(size=(rng.integers(2, 7), rng.integers(2, 7)))
        sol = lp_game_value(payoff)
        assert sol.row_guarantee >= sol.value - 1e-8
        assert sol.col_guarantee <= sol.value + 1e-8
    # integer payoffs: degenerate LPs with ties among the optimal strategies
    for _ in range(30):
        payoff = rng.integers(-2, 3, size=(rng.integers(2, 7), rng.integers(2, 7)))
        sol = lp_game_value(payoff)
        assert sol.row_guarantee >= sol.value - 1e-8
        assert sol.col_guarantee <= sol.value + 1e-8


def test_one_lp_per_game(monkeypatch):
    # the row strategy is the column LP's dual, read off its reduced costs
    lps = []
    solve_lp = _simplex.solve_lp

    def counted(*args, **kwargs):
        lps.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(_simplex, "solve_lp", counted)
    lp_game_value([[3.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
    assert len(lps) == 1
    del lps[:]
    model = zero_one_model(SampleSpace.of(range(4)))
    statistic = Statistic(np.array([[-1.0, -0.2, 0.5, 1.0]]))
    tilts = _tilts(model, statistic, np.linspace(-2.0, 2.0, 401)[:, None], 1e-6)
    # zero-one tilts are one sort per beta, with no LP
    assert lps == []
    assert {t.method for t in tilts} == {"closed-form"}
    assert max(t.gap for t in tilts) <= 1e-9
    # a zero-one capacity is still one matrix game
    members = np.random.default_rng(4).dirichlet(np.ones(4), size=3)
    res = capacity_solve(StatModel(model, tuple(members)))
    assert len(lps) == 1
    assert res.method == "matrix-game"


def test_game_certificate_raises(monkeypatch):
    # strategies whose guarantees differ by more than DUALITY_TOL are refused
    monkeypatch.setattr(maxent, "DUALITY_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="column guarantee"):
        lp_game_value([[1.0, -1.0], [-1.0, 1.0]])


def test_game_input_validation():
    with pytest.raises(ValueError):
        lp_game_value(np.ones(3))
    with pytest.raises(ValueError):
        lp_game_value([[1.0, np.inf], [0.0, 1.0]])
    # games have no size cap: a 201 x 2 game solves to its value
    assert lp_game_value(np.zeros((201, 2))).value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# upper values


def test_upper_value_zero_one_quarter():
    res = restricted_upper_value(ZERO_ONE, gamma(0.25))
    assert res.method == "lp"
    assert abs(res.value - 7.0 / 12.0) <= 1e-9


def test_upper_value_zero_one_center():
    res = restricted_upper_value(ZERO_ONE, gamma(0.0))
    assert abs(res.value - 2.0 / 3.0) <= 1e-9


def test_upper_value_brier_half():
    res = restricted_upper_value(BRIER, gamma(0.5))
    assert res.method == "certificate"
    assert abs(res.value - 13.0 / 24.0) <= 1e-9
    assert abs(res.margin) <= 1e-9


def test_upper_value_meets_entropy_on_grid():
    for model in (ZERO_ONE, BRIER):
        for tau in np.linspace(-0.9, 0.9, 19):
            upper = restricted_upper_value(model, gamma(tau)).value
            lower = specific_entropy(model, T, np.array([tau]))
            assert abs(upper - lower) <= 1e-7, (model.kind, tau)


def zero_one_models(n, rng):
    """Zero-one loss on n outcomes and its relative form to a random act."""
    base = zero_one_model(SampleSpace.of(range(n)))
    return base, relative_model(base, Act("distribution", rng.dirichlet(np.ones(n))))


def test_upper_value_with_many_vertices():
    # N = 16, k = 3: Gamma_tau has 275 vertices, and the game over Gamma_tau
    # is still one LP of N + k + 1 rows
    rng = np.random.default_rng(3)
    t = rng.uniform(-1.0, 1.0, (3, 16))
    g = GammaTau(Statistic(t), t @ rng.dirichlet(np.ones(16)))
    zero_one, relative = zero_one_models(16, rng)
    upper = restricted_upper_value(zero_one, g)
    assert upper.method == "lp"
    assert upper.value == pytest.approx(solve(zero_one, g).h_star, abs=1e-12)
    for model in (zero_one, relative):
        sp = solve_generic(model, g)
        assert sp.method == "matrix-game"
        assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle


def test_point_act_lp_matches_the_vertex_game():
    # oracle: the matrix game of the Gamma_tau vertices against point acts
    for i in range(144):
        rng = np.random.default_rng(1000 + i)
        n, k = 3 + i % 6, 1 + (i // 6) % 3
        if (i // 18) % 2:
            t = rng.integers(-2, 3, (k, n)).astype(float)
        else:
            t = rng.uniform(-1.0, 1.0, (k, n))
        g = GammaTau(Statistic(t), t @ rng.dirichlet(np.ones(n)))
        for model in zero_one_models(n, rng):
            oracle = lp_game_value(vertices(g).points @ point_act_losses(model)).value
            assert restricted_upper_value(model, g).value == pytest.approx(oracle, abs=1e-12)
            sp = solve_generic(model, g)
            assert sp.h_star == pytest.approx(oracle, abs=1e-12), (i, model.kind)
            assert sp.gap <= 1e-12
            assert verify_saddle(model, g, sp.p_star, sp.zeta_star).is_saddle, i


class _CostZeroOne(LossModel):
    """Cost-weighted zero-one loss c(x) (1 - zeta(x)), with only the
    per-act loss: its loss matrix is the base class's loop."""

    def __init__(self, space, cost):
        self.space, self.cost = space, cost
        self.name = self.kind = "cost_zero_one"
        self.act_kind = ACT_DISTRIBUTION

    def loss_vector(self, act):
        return self.cost * (1.0 - self._act_payload(act, ACT_DISTRIBUTION))

    def bayes_act_set(self, dist):
        return np.flatnonzero(self.cost * dist.w >= (self.cost * dist.w).max())


def test_point_act_losses_is_the_column_stack_bit_for_bit():
    # the matrix comes from one loss_matrix block; it must be the column
    # stack of the point acts' loss vectors, in values, bytes and layout
    rng = np.random.default_rng(39)
    for n in (3, 6, 11):
        zero_one, relative = zero_one_models(n, rng)
        minimal = _CostZeroOne(zero_one.space, rng.uniform(0.5, 2.0, n))
        for model in (zero_one, relative, minimal):
            old = np.column_stack([model.loss_vector(Act(ACT_DISTRIBUTION, e))
                                   for e in np.eye(n)])
            found = point_act_losses(model)
            assert found.flags.c_contiguous and found.dtype == old.dtype
            assert found.shape == old.shape and found.tobytes() == old.tobytes(), model.kind


# ---------------------------------------------------------------------------
# saddle certificates


def test_solver_outputs_certify():
    for model in (BRIER, LOG, ZERO_ONE):
        for tau in (-0.8, -0.3, 0.0, 0.45, 0.9):
            sp = solve(model, gamma(tau))
            chk = verify_saddle(model, gamma(tau), sp.p_star, sp.zeta_star)
            assert chk.is_saddle, (model.kind, tau)
            assert chk.bayes_margin <= 1e-8
            assert chk.vertex_margin <= 1e-7


def test_point_mass_act_is_bayes_but_not_robust():
    uniform = Distribution.uniform(3)
    point = Act("distribution", np.array([1.0, 0.0, 0.0]))
    chk = verify_saddle(ZERO_ONE, gamma(0.0), uniform, point)
    assert chk.bayes_margin <= 1e-12          # guessing one mode is Bayes
    assert abs(chk.vertex_margin - 1.0 / 3.0) <= 1e-12
    assert not chk.is_saddle


def test_family_endpoint_passes_saddle_but_not_equalizer():
    sp = solve(ZERO_ONE, gamma(0.5))
    fam = sp.act_family
    ends = {round(float(fam.act(c).payload[2]), 6): c for c in (fam.lo, fam.hi)}
    zeta0 = fam.act(ends[1.0])                # the a = 0 member (0, 0, 1)
    chk = verify_saddle(ZERO_ONE, gamma(0.5), sp.p_star, zeta0)
    assert chk.is_saddle
    eq = equalizer_check(ZERO_ONE, vertices(gamma(0.5)).points, zeta0)
    assert not eq.is_equalizer
    assert eq.spread >= 0.25 - 1e-9


# ---------------------------------------------------------------------------
# equal-loss support set


def test_u_set_full_simplex_log():
    # full simplex encoded as a constant statistic
    const = Statistic(np.zeros((1, 3)))
    g = GammaTau(const, np.array([0.0]))
    sp = solve(LOG, g)
    rep = u_set_check(LOG, sp.zeta_star, sp.h_star, sp.p_star, g)
    assert abs(sp.h_star - np.log(3.0)) <= 1e-12
    assert rep.u_set.tolist() == [0, 1, 2]
    assert rep.supported and rep.applicable
    assert abs(rep.p_star_mass - 1.0) <= 1e-12


def test_u_set_brier_face():
    face = Statistic(np.array([[0.0, 1.0, 0.0]]))
    g = GammaTau(face, np.array([0.0]))      # all mass away from the middle
    sp = solve(BRIER, g)
    assert np.max(np.abs(sp.p_star.w - [0.5, 0.0, 0.5])) <= 1e-9
    rep = u_set_check(BRIER, sp.zeta_star, sp.h_star, sp.p_star, g)
    assert rep.u_set.tolist() == [0, 2]
    assert rep.supported and rep.applicable


def test_u_set_mean_constraint_not_applicable():
    sp = solve(ZERO_ONE, gamma(0.75))
    rep = u_set_check(ZERO_ONE, sp.zeta_star, sp.h_star, sp.p_star, gamma(0.75))
    assert rep.applicable is False
    no_gamma = u_set_check(ZERO_ONE, sp.zeta_star, sp.h_star, sp.p_star)
    assert no_gamma.applicable is None


def test_vertex_mass_off_u_implies_unequal_losses():
    # for games closed under conditioning the solver's U absorbs every
    # vertex, so the implication (mass off U -> spread > 1e-6) never misfires
    faces = [np.array([[0.0, 1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]),
             np.zeros((1, 3))]
    for model in (BRIER, LOG, ZERO_ONE):
        for rows in faces:
            g = GammaTau(Statistic(rows), np.array([0.0]))
            sp = solve(model, g)
            rep = u_set_check(model, sp.zeta_star, sp.h_star, sp.p_star, g)
            assert rep.applicable
            vs = vertices(g)
            off_mass = max(1.0 - float(v[rep.u_set].sum()) for v in vs.points)
            if off_mass > 1e-9:
                eq = equalizer_check(model, vs.points, sp.zeta_star)
                assert eq.spread > 1e-6
            else:
                assert rep.supported
