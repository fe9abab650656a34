"""Derived games over a finite family: value of information, capacity
solvers, the alternating-maximization oracle, and equalization reports."""

import numpy as np
import pytest

from maxentgames import (
    ACT_DENSITY,
    ACT_DISTRIBUTION,
    Act,
    DimensionMismatch,
    Distribution,
    Prior,
    SampleSpace,
    StatModel,
    blahut_arimoto,
    brier_model,
    capacity_solve,
    derived_loss,
    discrepancy,
    equalization_report,
    log_model,
    value_of_information,
    zero_one_model,
)
from maxentgames.maxent import MaxIterExceeded

SPACE2 = SampleSpace.of(["0", "1"])
LOG2 = log_model(SPACE2)
BRIER2 = brier_model(SPACE2)
ZERO_ONE2 = zero_one_model(SPACE2)

# binary symmetric channel with crossover 0.1
CHANNEL = [np.array([0.9, 0.1]), np.array([0.1, 0.9])]
CHANNEL_VALUE = np.log(2) - (0.1 * np.log(10.0) + 0.9 * np.log(10.0 / 9.0))


def _random_family(rng, n, m):
    return [rng.dirichlet(np.ones(n)) for _ in range(m)]


def _mass_on_upsilon(result):
    return float(result.pi_star.pi.w[result.upsilon].sum())


# ---------------------------------------------------------------------------
# family and prior plumbing


def test_family_needs_members():
    with pytest.raises(DimensionMismatch):
        StatModel(LOG2, [])


def test_family_members_share_the_space():
    with pytest.raises(DimensionMismatch):
        StatModel(LOG2, [np.array([0.2, 0.3, 0.5])])


def test_family_one_label_per_member():
    with pytest.raises(DimensionMismatch):
        StatModel(LOG2, CHANNEL, labels=("only",))


def test_family_coerces_and_labels():
    sm = StatModel(BRIER2, CHANNEL)
    assert sm.m == 2
    assert sm.labels == ("w0", "w1")
    assert all(isinstance(p, Distribution) for p in sm.omegas)
    assert np.allclose(sm.member_matrix, np.array(CHANNEL))
    mix = sm.mixture(Prior.uniform(2))
    assert np.allclose(mix.w, [0.5, 0.5])


def test_prior_size_is_checked():
    sm = StatModel(LOG2, CHANNEL)
    with pytest.raises(DimensionMismatch):
        value_of_information(sm, Prior.uniform(3))


# ---------------------------------------------------------------------------
# derived loss and value of information


def test_derived_loss_vanishes_at_the_member_bayes_act():
    for model in (LOG2, BRIER2, ZERO_ONE2):
        sm = StatModel(model, CHANNEL)
        for i, p in enumerate(sm.omegas):
            assert abs(derived_loss(sm, i, model.bayes_act(p))) <= 1e-12


def test_derived_loss_is_the_kl_for_the_log_model():
    sm = StatModel(LOG2, CHANNEL)
    flat = Act(ACT_DENSITY, np.array([0.5, 0.5]))
    assert abs(derived_loss(sm, 0, flat) - 0.3680642071684971) <= 1e-12


def test_derived_loss_squared_distance_between_point_masses():
    space = SampleSpace.of(["a", "b", "c"])
    sm = StatModel(brier_model(space), [np.array([1.0, 0.0, 0.0])])
    other = Act(ACT_DISTRIBUTION, np.array([0.0, 1.0, 0.0]))
    assert abs(derived_loss(sm, 0, other) - 2.0) <= 1e-12


def test_information_value_of_a_singleton_is_zero():
    sm = StatModel(LOG2, [np.array([0.3, 0.7])])
    assert abs(value_of_information(sm, Prior.uniform(1))) <= 1e-12


def test_information_value_of_a_perfectly_informative_pair():
    members = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert abs(value_of_information(StatModel(LOG2, members), Prior.uniform(2))
               - np.log(2)) <= 1e-12
    assert abs(value_of_information(StatModel(BRIER2, members), Prior.uniform(2))
               - 0.5) <= 1e-12


def test_information_value_frozen_asymmetric_prior():
    sm = StatModel(LOG2, CHANNEL)
    got = value_of_information(sm, Prior(Distribution(np.array([0.3, 0.7]))))
    assert abs(got - 0.31595250448970746) <= 1e-12


def test_information_value_nonnegative_and_concave():
    rng = np.random.default_rng(12)
    space = SampleSpace.of(["a", "b", "c", "d"])
    for model in (log_model(space), brier_model(space), zero_one_model(space)):
        sm = StatModel(model, _random_family(rng, 4, 5))
        for _ in range(40):
            p0, p1 = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
            v0, v1 = value_of_information(sm, p0), value_of_information(sm, p1)
            assert v0 >= -1e-12
            lam = rng.uniform()
            mixed = value_of_information(sm, (1 - lam) * p0 + lam * p1)
            assert mixed >= (1 - lam) * v0 + lam * v1 - 1e-8


def test_prior_average_derived_loss_matches_the_mixture_discrepancy():
    # averaging the derived losses under a prior and recentring at the
    # information value reproduces the base-game discrepancy of the mixture
    rng = np.random.default_rng(21)
    space = SampleSpace.of(["a", "b", "c"])
    for model in (log_model(space), brier_model(space), zero_one_model(space)):
        sm = StatModel(model, _random_family(rng, 3, 4))
        for _ in range(25):
            pi = Prior(Distribution(rng.dirichlet(np.ones(4))))
            probe = (rng.dirichlet(np.ones(3)) + 1e-3) / (1 + 3e-3)
            kind = ACT_DENSITY if model.act_kind == ACT_DENSITY else ACT_DISTRIBUTION
            act = Act(kind, probe)
            avg = sum(pi.pi.w[i] * derived_loss(sm, i, act) for i in range(4))
            lhs = avg - value_of_information(sm, pi)
            rhs = discrepancy(model, sm.mixture(pi), act)
            assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# capacity: closed forms


def test_capacity_binary_symmetric_channel_log():
    sm = StatModel(LOG2, CHANNEL)
    r = capacity_solve(sm, tol=1e-8)
    assert abs(r.i_star - CHANNEL_VALUE) <= 1e-9
    assert abs(r.i_star - 0.3680642071684971) <= 1e-12
    assert np.allclose(r.pi_star.pi.w, [0.5, 0.5], atol=1e-9)
    assert list(r.upsilon) == [0, 1]
    assert r.gap <= 1e-8


def test_capacity_binary_symmetric_channel_brier():
    r = capacity_solve(StatModel(BRIER2, CHANNEL), tol=1e-8)
    assert abs(r.i_star - 0.32) <= 1e-9
    assert np.allclose(r.pi_star.pi.w, [0.5, 0.5], atol=1e-6)


def test_capacity_binary_symmetric_channel_zero_one():
    r = capacity_solve(StatModel(ZERO_ONE2, CHANNEL), tol=1e-8)
    assert abs(r.i_star - 0.4) <= 1e-9
    assert np.allclose(r.pi_star.pi.w, [0.5, 0.5], atol=1e-8)
    assert r.method == "matrix-game"


def test_capacity_perfectly_informative_pair():
    members = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    r = capacity_solve(StatModel(LOG2, members), tol=1e-8)
    assert abs(r.i_star - np.log(2)) <= 1e-9
    assert list(r.upsilon) == [0, 1]


def test_capacity_excludes_a_dominated_member():
    # the third member sits at the capacity mixture itself, so it earns zero
    # derived loss there and the optimal prior ignores it
    members = CHANNEL + [np.array([0.5, 0.5])]
    for model in (LOG2, ZERO_ONE2):
        r = capacity_solve(StatModel(model, members), tol=1e-8)
        assert r.pi_star.pi.w[2] <= 1e-7
        assert list(r.upsilon) == [0, 1]
        assert _mass_on_upsilon(r) >= 1 - 1e-6


def test_capacity_singleton_family_is_flat():
    r = capacity_solve(StatModel(LOG2, [np.array([0.3, 0.7])]), tol=1e-8)
    assert abs(r.i_star) <= 1e-12
    assert list(r.upsilon) == [0]


def test_capacity_act_agrees_with_the_mixture_bayes_act():
    sm = StatModel(LOG2, CHANNEL)
    r = capacity_solve(sm, tol=1e-8)
    bayes = LOG2.bayes_act(sm.mixture(r.pi_star))
    assert np.allclose(r.act_star.payload, bayes.payload, atol=1e-9)


def test_capacity_zero_one_is_the_matrix_game_without_iterations():
    # the ninth 12-outcome, 10-member channel drawn from seed 11, on which
    # pairwise Frank-Wolfe crawls for over 15 s; the matrix game needs none
    rng = np.random.default_rng(11)
    for _ in range(9):
        members = rng.dirichlet(np.ones(12), size=10)
    sm = StatModel(zero_one_model(SampleSpace.of([str(i) for i in range(12)])),
                   tuple(members))
    r = capacity_solve(sm)
    assert r.method == "matrix-game"
    assert r.iterations == 0
    assert abs(value_of_information(sm, r.pi_star) - r.i_star) <= 1e-8
    assert max(derived_loss(sm, i, r.act_star) for i in range(sm.m)) <= r.i_star + 1e-8


def test_capacity_unreachable_tolerance_raises_with_best_iterate():
    # a gap target of 0 cannot be met, so the run ends by stalling
    rng = np.random.default_rng(5)
    sm = StatModel(log_model(SampleSpace.of(["a", "b", "c"])),
                   _random_family(rng, 3, 4))
    with pytest.raises(MaxIterExceeded) as err:
        capacity_solve(sm, tol=0.0)
    assert err.value.result is not None
    assert err.value.result.value >= -1e-12


# ---------------------------------------------------------------------------
# capacity: solver invariants on random families


def test_capacity_invariants_on_random_families():
    rng = np.random.default_rng(9)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        space = SampleSpace.of([str(i) for i in range(n)])
        members = _random_family(rng, n, m)
        for mk in (log_model, brier_model, zero_one_model):
            model = mk(space)
            sm = StatModel(model, members)
            r = capacity_solve(sm, tol=1e-6)
            assert r.i_star >= -1e-9
            assert r.gap <= 1e-6
            assert _mass_on_upsilon(r) >= 1 - 1e-6
            # minimax certificate: no member suffers more than value + gap
            worst = max(derived_loss(sm, i, r.act_star) for i in range(m))
            assert worst <= r.i_star + r.gap + 1e-8
            # the reported value is the information value of the prior
            assert abs(value_of_information(sm, r.pi_star) - r.i_star) <= 1e-8


def test_capacity_act_transfers_from_the_base_game():
    # the minimax act is Bayes against the capacity mixture, hence optimal
    # for the prior-averaged derived loss as well
    rng = np.random.default_rng(14)
    space = SampleSpace.of(["a", "b", "c"])
    for mk in (log_model, brier_model):
        model = mk(space)
        sm = StatModel(model, _random_family(rng, 3, 4))
        r = capacity_solve(sm, tol=1e-6)
        pi = r.pi_star.pi.w
        best = sum(pi[i] * derived_loss(sm, i, r.act_star) for i in range(4))
        for _ in range(20):
            probe = (rng.dirichlet(np.ones(3)) + 1e-3) / (1 + 3e-3)
            kind = ACT_DENSITY if model.act_kind == ACT_DENSITY else ACT_DISTRIBUTION
            act = Act(kind, probe)
            other = sum(pi[i] * derived_loss(sm, i, act) for i in range(4))
            assert best <= other + 1e-8


# ---------------------------------------------------------------------------
# alternating-maximization oracle


def test_alternating_oracle_rejects_other_models():
    with pytest.raises(ValueError):
        blahut_arimoto(StatModel(BRIER2, CHANNEL))


def test_alternating_oracle_binary_channel():
    ba = blahut_arimoto(StatModel(LOG2, CHANNEL))
    assert abs(ba.i_star - CHANNEL_VALUE) <= 1e-8
    assert np.allclose(ba.pi_star.pi.w, [0.5, 0.5], atol=1e-8)
    assert ba.method == "blahut-arimoto"
    assert ba.gap <= 1e-10


def test_alternating_oracle_perfectly_informative_pair():
    members = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ba = blahut_arimoto(StatModel(LOG2, members))
    assert abs(ba.i_star - np.log(2)) <= 1e-10


def test_alternating_oracle_agrees_with_the_gradient_route():
    rng = np.random.default_rng(3)
    space = SampleSpace.of(["x", "y", "z"])
    for _ in range(8):
        sm = StatModel(log_model(space), _random_family(rng, 3, 4))
        fw = capacity_solve(sm, tol=1e-6)
        ba = blahut_arimoto(sm, tol=1e-10)
        assert abs(fw.i_star - ba.i_star) <= 1e-6
        assert np.max(np.abs(fw.pi_star.pi.w - ba.pi_star.pi.w)) <= 1e-4
        assert _mass_on_upsilon(ba) >= 1 - 1e-6


def test_alternating_oracle_iteration_cap():
    sm = StatModel(LOG2, [np.array([0.8, 0.2]), np.array([0.3, 0.7])])
    with pytest.raises(MaxIterExceeded):
        blahut_arimoto(sm, tol=1e-12, max_iter=1)


# ---------------------------------------------------------------------------
# equalization reports


def test_equalizer_on_the_symmetric_channel():
    sm = StatModel(LOG2, CHANNEL)
    r = capacity_solve(sm, tol=1e-8)
    rep = equalization_report(r, sm)
    assert rep.is_equalizer
    assert rep.upsilon_constant
    assert rep.upsilon_spread <= 1e-8
    assert rep.slack_members.size == 0
    assert np.allclose(rep.losses, r.i_star, atol=1e-8)


def test_dominated_member_breaks_the_equalizer():
    sm = StatModel(LOG2, CHANNEL + [np.array([0.5, 0.5])])
    r = capacity_solve(sm, tol=1e-8)
    rep = equalization_report(r, sm)
    assert not rep.is_equalizer
    assert rep.upsilon_constant
    assert list(rep.slack_members) == [2]
    assert rep.losses[2] <= r.i_star - 1e-3


def test_singleton_family_is_trivially_equalized():
    sm = StatModel(LOG2, [np.array([0.3, 0.7])])
    rep = equalization_report(capacity_solve(sm, tol=1e-8), sm)
    assert rep.is_equalizer
    assert rep.upsilon_constant
    assert rep.losses.shape == (1,)
